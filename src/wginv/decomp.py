"""Simultaneous unitary block decomposition of a weighted pair, with the
Moore-Penrose and weak MPD inverses rebuilt from the blocks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import (
    VerificationReport,
    WeightedPair,
    _certify,
    _exact,
    _rank_gap,
    _refuse,
    _Row,
    matrix_power,
    mp_inverse,
    rank_of,
    spectral_norm,
)
from .winv import WeightedInverseResult, _require_member, _weak_mpd

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

    def _assemble(self, left, X1, X2, X3, right) -> np.ndarray:
        zero = np.zeros((X3.shape[0], self.q))
        return left @ np.block([[X1, X2], [zero, X3]]) @ right.conj().T

    def assemble_b(self) -> np.ndarray:
        return self._assemble(self.M, self.B1, self.B2, self.B3, self.N)

    def assemble_w(self) -> np.ndarray:
        return self._assemble(self.N, self.W1, self.W2, self.W3, self.M)


def _upper_blocks(A: np.ndarray, q: int) -> tuple:
    return A[:q, :q], A[:q, q:], A[q:, q:]


def _structure_checks(dec: BlockDecomposition) -> tuple:
    """The rows shared by the constructor and the report, in the report's
    order: the rows of the factors and blocks, the rank row (label, gap,
    pass), and the rows of the tails, each matrix row a `_Row`."""
    pair = dec.pair
    m, n, q = pair.m, pair.n, dec.q
    Bhat = dec.M.conj().T @ pair.B @ dec.N
    What = dec.N.conj().T @ pair.W @ dec.M
    factors = {
        "reassembly B": _Row(dec.assemble_b(), pair.B),
        "reassembly W": _Row(dec.assemble_w(), pair.W),
        "unitary M": _Row(dec.M.conj().T @ dec.M, np.eye(m)),
        "unitary N": _Row(dec.N.conj().T @ dec.N, np.eye(n)),
        "lower-left B": _Row(Bhat[q:, :q], np.zeros_like(Bhat[q:, :q]), pair.B),
        "lower-left W": _Row(What[q:, :q], np.zeros_like(What[q:, :q]), pair.W),
    }
    ranks = rank_of(dec.B1, pair.tol) + rank_of(dec.W1, pair.tol)
    rank = ("leading blocks invertible", *_rank_gap(2 * q, ranks))
    # the tails' powers vanish on the tails' own scale
    tails = {}
    for side, tail, k in (("BW", dec.B3 @ dec.W3, pair.k_bw), ("WB", dec.W3 @ dec.B3, pair.k_wb)):
        tails[f"nilpotent {side} tail"] = _Row(matrix_power(tail, k), np.zeros_like(tail), tail)
    return factors, rank, tails


def weighted_core_ep_decompose(pair: WeightedPair) -> BlockDecomposition:
    """Decompose the pair over the unitaries M and N of the staircase forms of
    BW and WB, whose leading q columns span R((BW)^k) and R((WB)^k), which B
    and W map into each other. Structural failures raise CertificationError:
    the rank rows first, then the matrix rows as a certificate."""
    bw, wb = pair._staircase_of("BW"), pair._staircase_of("WB")
    q = bw.q
    kind = "weighted_core_ep_decompose"
    _refuse(kind, [("stabilized product ranks agree", *_rank_gap(q, wb.q))])
    M, N = bw.U, wb.U
    B_blocks = _upper_blocks(M.conj().T @ pair.B @ N, q)  # B1, B2, B3
    W_blocks = _upper_blocks(N.conj().T @ pair.W @ M, q)
    dec = BlockDecomposition(pair, M, N, *B_blocks, *W_blocks, q)
    factors, rank, tails = _structure_checks(dec)
    _refuse(kind, [rank])
    _certify(kind, {**factors, **tails}, pair.tol)
    return dec


def decomposition_report(dec: BlockDecomposition) -> VerificationReport:
    report = VerificationReport("lem3.15", dec.pair.tol)
    factors, rank, tails = _structure_checks(dec)
    rows = {**factors, **tails}.items()
    exact = [(label, *_exact(*row.formed({}), dec.pair.tol)) for label, row in rows]
    for row in exact[: len(factors)] + [rank] + exact[len(factors) :]:
        report.add(*row)
    return report


def _schur_parts(dec: BlockDecomposition) -> tuple:
    """B3^+, F = I - B3^+ B3 and Delta = (B1 B1^* + B2 F B2^*)^-1, shared by
    the block forms of B^+ and of the weak MPD inverse."""
    B1, B2, B3 = dec.B1, dec.B2, dec.B3
    # B3 is carved out of B: rank decisions inside it must use B's scale, or a
    # tail of pure roundoff turns into a spurious direction.
    B3p = mp_inverse(B3, dec.pair.tol, floor=spectral_norm(dec.pair.B))
    F = np.eye(B3.shape[1]) - B3p @ B3  # (n-q) x (n-q)
    delta = np.linalg.inv(B1 @ B1.conj().T + B2 @ F @ B2.conj().T)
    return B3p, F, delta


def mp_via_blocks(dec: BlockDecomposition) -> np.ndarray:
    """Moore-Penrose inverse assembled from the decomposition blocks and
    certified against the SVD value."""
    pair = dec.pair
    q = dec.q
    B1h, B2 = dec.B1.conj().T, dec.B2
    B3p, F, delta = _schur_parts(dec)
    core = np.zeros((pair.n, pair.m), dtype=pair.B.dtype)
    core[:q, :q] = B1h @ delta
    core[:q, q:] = -B1h @ delta @ B2 @ B3p
    core[q:, :q] = F @ B2.conj().T @ delta
    core[q:, q:] = B3p - F @ B2.conj().T @ delta @ B2 @ B3p
    val = dec.N @ core @ dec.M.conj().T
    _certify("mp_via_blocks", {"agreement with the SVD value": _Row(val, pair._pinv())}, pair.tol)
    return val


def weak_mpd_canonical(
    pair: WeightedPair,
    X,
    dec: BlockDecomposition | None = None,
) -> WeightedInverseResult:
    """Weak MPD inverse assembled from the canonical block form of the member.

    Every certified left family member has block form
    [[ (W1 B1 W1)^-1, X2 ], [0, 0]] over the decomposition bases; the value is
    rebuilt from B1, B2, B3, W1, W2, W3 and X2 alone, then certified against
    the direct construction.
    """
    X = _require_member(pair, X)
    if dec is None:
        dec = weighted_core_ep_decompose(pair)
    q = dec.q
    B1, B2, W1, W2, W3 = dec.B1, dec.B2, dec.W1, dec.W2, dec.W3

    Xhat = dec.M.conj().T @ X @ dec.N
    core_inv = np.linalg.inv(W1 @ B1 @ W1)
    canon = np.zeros_like(Xhat)
    canon[:q, :q] = core_inv
    canon[:q, q:] = Xhat[:q, q:]
    X2 = Xhat[:q, q:]
    # the member's form is refused before a value is built on it
    rows = [("canonical member form", *_exact(Xhat - canon, Xhat, pair.tol))]
    _refuse("weak_mpd_canonical", rows)

    B1h = B1.conj().T
    B3p, F, delta = _schur_parts(dec)
    Q = B1 @ W1 @ core_inv @ W1
    D = delta @ B1 @ W1 @ core_inv @ W2

    left = np.vstack([B1h, F @ B2.conj().T])          # n x q
    right = np.hstack([delta @ Q, D + delta @ B1 @ W1 @ X2 @ W3])  # q x m
    val = dec.N @ left @ right @ dec.M.conj().T

    direct = _weak_mpd(pair, X).value
    rows.append(("agreement with direct value", *_exact(val - direct, direct, pair.tol)))
    _refuse("weak_mpd_canonical", rows)
    residuals = {label: residual for label, residual, _ in rows}
    return WeightedInverseResult(
        value=val, kind="weak-mpd", index_used=pair.k_bw, residuals=residuals
    )


def canonical_report(pair: WeightedPair, X) -> VerificationReport:
    """Report form: canonical reassembly of the weak MPD inverse plus the
    block Moore-Penrose, all residuals surfaced."""
    report = VerificationReport("thm3.16", pair.tol)
    dec = weighted_core_ep_decompose(pair)
    result = weak_mpd_canonical(pair, X, dec=dec)
    for label, residual in result.residuals.items():
        report.add(label, residual, True)
    reference = pair._pinv()
    report.add_equation("block Moore-Penrose", mp_via_blocks(dec), reference)
    return report
