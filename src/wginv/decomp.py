"""Simultaneous unitary block decomposition of a weighted pair, with the
Moore-Penrose and weak MPD inverses rebuilt from the blocks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import (
    DEFAULT_TOL,
    CertificationError,
    ToleranceConfig,
    VerificationReport,
    WeightedPair,
    _passes,
    as_matrix,
    matrix_power,
    mp_inverse,
    rank_of,
    spectral_norm,
)
from .winv import WeightedInverseResult, _left_member_residual, weak_mpd

__all__ = [
    "BlockDecomposition",
    "weighted_core_ep_decompose",
    "decomposition_report",
    "mp_via_blocks",
    "weak_mpd_canonical",
    "canonical_report",
]


@dataclass(frozen=True)
class BlockDecomposition:
    """Unitary M (m x m) and N (n x n) with B = M [[B1, B2], [0, B3]] N* and
    W = N [[W1, W2], [0, W3]] M*; B1 and W1 are invertible of size q and the
    tails B3 W3, W3 B3 are nilpotent."""

    pair: WeightedPair
    M: np.ndarray
    N: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    B3: np.ndarray
    W1: np.ndarray
    W2: np.ndarray
    W3: np.ndarray
    q: int

    def assemble_b(self) -> np.ndarray:
        m, n = self.pair.m, self.pair.n
        core = np.zeros((m, n), dtype=complex)
        core[: self.q, : self.q] = self.B1
        core[: self.q, self.q :] = self.B2
        core[self.q :, self.q :] = self.B3
        return self.M @ core @ self.N.conj().T

    def assemble_w(self) -> np.ndarray:
        m, n = self.pair.m, self.pair.n
        core = np.zeros((n, m), dtype=complex)
        core[: self.q, : self.q] = self.W1
        core[: self.q, self.q :] = self.W2
        core[self.q :, self.q :] = self.W3
        return self.N @ core @ self.M.conj().T


def _orthonormal_with_complement(A: np.ndarray, q: int) -> np.ndarray:
    """Unitary matrix whose first q columns span the column space of A."""
    d = A.shape[0]
    if q == 0:
        return np.eye(d, dtype=complex)
    U = np.linalg.svd(A)[0]
    basis = U[:, :q]
    if q == d:
        return basis
    # complete through the orthogonal complement's projector; its singular
    # vectors for value 1 are deterministic up to the usual SVD conventions
    P_perp = np.eye(d, dtype=complex) - basis @ basis.conj().T
    U_perp = np.linalg.svd(P_perp)[0][:, : d - q]
    return np.hstack([basis, U_perp])


def _structure_checks(dec: BlockDecomposition, tol: ToleranceConfig) -> list:
    """(label, residual, pass) rows shared by the constructor and the report."""
    pair = dec.pair
    m, n, q = pair.m, pair.n, dec.q
    rows = []

    def eq(label, lhs, rhs):
        r = spectral_norm(lhs - rhs)
        rows.append((label, r, _passes(r, spectral_norm(rhs), tol)))

    eq("reassembly B", dec.assemble_b(), pair.B)
    eq("reassembly W", dec.assemble_w(), pair.W)
    eq("unitary M", dec.M.conj().T @ dec.M, np.eye(m))
    eq("unitary N", dec.N.conj().T @ dec.N, np.eye(n))

    Bhat = dec.M.conj().T @ pair.B @ dec.N
    What = dec.N.conj().T @ pair.W @ dec.M
    r_bl = spectral_norm(Bhat[q:, :q])
    rows.append(("lower-left B", r_bl, _passes(r_bl, spectral_norm(pair.B), tol)))
    r_wl = spectral_norm(What[q:, :q])
    rows.append(("lower-left W", r_wl, _passes(r_wl, spectral_norm(pair.W), tol)))

    gap = float((q - rank_of(dec.B1, tol)) + (q - rank_of(dec.W1, tol)))
    rows.append(("leading blocks invertible", gap, gap == 0.0))

    BW_tail = dec.B3 @ dec.W3
    WB_tail = dec.W3 @ dec.B3
    r_nb = spectral_norm(matrix_power(BW_tail, pair.k_bw)) if BW_tail.size else 0.0
    ref_nb = spectral_norm(BW_tail) ** pair.k_bw if BW_tail.size else 0.0
    rows.append(("nilpotent BW tail", r_nb, _passes(r_nb, ref_nb, tol)))
    r_nw = spectral_norm(matrix_power(WB_tail, pair.k_wb)) if WB_tail.size else 0.0
    ref_nw = spectral_norm(WB_tail) ** pair.k_wb if WB_tail.size else 0.0
    rows.append(("nilpotent WB tail", r_nw, _passes(r_nw, ref_nw, tol)))
    return rows


def weighted_core_ep_decompose(
    pair: WeightedPair, tol: ToleranceConfig = DEFAULT_TOL
) -> BlockDecomposition:
    """Decompose the pair over orthonormal bases of R((BW)^k) and R((WB)^k),
    k = max of the two indices. Structural failures raise CertificationError."""
    k = max(pair.k_bw, pair.k_wb)
    Kbw = pair.bw_power(k)
    Kwb = pair.wb_power(k)
    q = pair._rank("BW", k, tol)
    if pair._rank("WB", k, tol) != q:
        raise CertificationError(
            f"stabilized product ranks disagree: {q} vs {pair._rank('WB', k, tol)}"
        )
    M = _orthonormal_with_complement(Kbw, q)
    N = _orthonormal_with_complement(Kwb, q)
    Bhat = M.conj().T @ pair.B @ N
    What = N.conj().T @ pair.W @ M
    dec = BlockDecomposition(
        pair=pair,
        M=M,
        N=N,
        B1=Bhat[:q, :q],
        B2=Bhat[:q, q:],
        B3=Bhat[q:, q:],
        W1=What[:q, :q],
        W2=What[:q, q:],
        W3=What[q:, q:],
        q=q,
    )
    for label, residual, ok in _structure_checks(dec, tol):
        if not ok:
            raise CertificationError(
                f"decomposition check {label!r} failed with residual {residual:.3e}"
            )
    return dec


def decomposition_report(
    dec: BlockDecomposition, tol: ToleranceConfig = DEFAULT_TOL
) -> VerificationReport:
    report = VerificationReport("lem3.15", tol)
    for label, residual, ok in _structure_checks(dec, tol):
        report.add(label, residual, ok)
    return report


def mp_via_blocks(dec: BlockDecomposition, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose inverse assembled from the decomposition blocks and
    certified against the SVD value."""
    pair = dec.pair
    q = dec.q
    B1, B2, B3 = dec.B1, dec.B2, dec.B3
    B1h = B1.conj().T
    # B3 is carved out of B: rank decisions inside it must use B's scale, or a
    # tail of pure roundoff turns into a spurious direction.
    B3p = mp_inverse(B3, tol, floor=spectral_norm(pair.B))
    F = np.eye(B3.shape[1], dtype=complex) - B3p @ B3  # (n-q) x (n-q)
    delta = np.linalg.inv(B1 @ B1h + B2 @ F @ B2.conj().T)
    core = np.zeros((pair.n, pair.m), dtype=complex)
    core[:q, :q] = B1h @ delta
    core[:q, q:] = -B1h @ delta @ B2 @ B3p
    core[q:, :q] = F @ B2.conj().T @ delta
    core[q:, q:] = B3p - F @ B2.conj().T @ delta @ B2 @ B3p
    val = dec.N @ core @ dec.M.conj().T
    reference = pair._pinv(tol)
    residual = spectral_norm(val - reference)
    if not _passes(residual, spectral_norm(reference), tol):
        raise CertificationError(
            f"block Moore-Penrose disagrees with the SVD value (residual {residual:.3e})"
        )
    return val


def weak_mpd_canonical(
    pair: WeightedPair,
    X,
    tol: ToleranceConfig = DEFAULT_TOL,
    dec: BlockDecomposition | None = None,
) -> WeightedInverseResult:
    """Weak MPD inverse assembled from the canonical block form of the member.

    Every certified left family member has block form
    [[ (W1 B1 W1)^-1, X2 ], [0, 0]] over the decomposition bases; the value is
    rebuilt from B1, B2, B3, W1, W2, W3 and X2 alone, then certified against
    the direct construction.
    """
    X = as_matrix(X)
    ok, residual, rank_gap = _left_member_residual(pair, X, tol)
    if not ok:
        raise CertificationError(
            f"X is not a certified left family member "
            f"(power residual {residual:.3e}, rank gap {rank_gap})"
        )
    if dec is None:
        dec = weighted_core_ep_decompose(pair, tol)
    q = dec.q
    B1, B2, B3, W1, W2, W3 = dec.B1, dec.B2, dec.B3, dec.W1, dec.W2, dec.W3

    Xhat = dec.M.conj().T @ X @ dec.N
    core_inv = np.linalg.inv(W1 @ B1 @ W1)
    canon = np.zeros_like(Xhat)
    canon[:q, :q] = core_inv
    canon[:q, q:] = Xhat[:q, q:]
    r_form = spectral_norm(Xhat - canon)
    X2 = Xhat[:q, q:]

    B1h = B1.conj().T
    B3p = mp_inverse(B3, tol, floor=spectral_norm(pair.B))
    F = np.eye(B3.shape[1], dtype=complex) - B3p @ B3
    delta = np.linalg.inv(B1 @ B1h + B2 @ F @ B2.conj().T)
    Q = B1 @ W1 @ core_inv @ W1
    D = delta @ B1 @ W1 @ core_inv @ W2

    left = np.vstack([B1h, F @ B2.conj().T])          # n x q
    right = np.hstack([delta @ Q, D + delta @ B1 @ W1 @ X2 @ W3])  # q x m
    val = dec.N @ left @ right @ dec.M.conj().T

    direct = weak_mpd(pair, X, tol).value
    checks = {
        "canonical member form": (r_form, spectral_norm(Xhat)),
        "agreement with direct value": (spectral_norm(val - direct), spectral_norm(direct)),
    }
    residuals = {}
    for label, (r, ref) in checks.items():
        residuals[label] = r
        if not _passes(r, ref, tol):
            raise CertificationError(
                f"canonical weak MPD check {label!r} failed with residual {r:.3e}"
            )
    return WeightedInverseResult(
        value=val, kind="weak-mpd", index_used=pair.k_bw, residuals=residuals
    )


def canonical_report(pair: WeightedPair, X, tol: ToleranceConfig = DEFAULT_TOL) -> VerificationReport:
    """Report form: canonical reassembly of the weak MPD inverse plus the
    block Moore-Penrose, all residuals surfaced."""
    report = VerificationReport("thm3.16", tol)
    dec = weighted_core_ep_decompose(pair, tol)
    result = weak_mpd_canonical(pair, X, tol, dec=dec)
    for label, residual in result.residuals.items():
        report.add(label, residual, True)
    reference = pair._pinv(tol)
    report.add_equation("block Moore-Penrose", mp_via_blocks(dec, tol), reference)
    return report
