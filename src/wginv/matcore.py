"""Dense-matrix substrate: pseudoinverse, rank, matrix index, projectors,
subspace tests, and the shared report/tolerance types."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "DimensionError",
    "CertificationError",
    "HypothesisError",
    "GenerationError",
    "ToleranceConfig",
    "DEFAULT_TOL",
    "VerificationReport",
    "WeightedPair",
    "weighted_pair",
    "as_matrix",
    "matrix_power",
    "mp_inverse",
    "rank_of",
    "index_of",
    "range_inclusion",
    "projector_onto",
    "oblique_projector_check",
    "spectral_norm",
]


class DimensionError(ValueError):
    """Matrix dimensions are incompatible with the requested operation."""


class CertificationError(RuntimeError):
    """A constructed value failed its defining-equation residual check."""


class HypothesisError(RuntimeError):
    """A stated hypothesis does not hold for the given inputs."""


class GenerationError(RuntimeError):
    """Random instance generation could not satisfy the required constraints."""


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite complex 2-d array."""
    A = np.asarray(a, dtype=complex)
    if A.ndim != 2:
        raise DimensionError(f"expected a 2-d array, got shape {A.shape}")
    if A.size and not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite")
    return A


@dataclass(frozen=True)
class ToleranceConfig:
    """Shared numerical thresholds.

    rank_rtol scales the singular-value cutoff for rank decisions;
    residual_atol is the absolute floor for equation-residual pass/fail,
    applied as residual <= residual_atol * (1 + ||reference||).
    """

    rank_rtol: float = 1e-10
    residual_atol: float = 1e-8

    def __post_init__(self):
        if self.rank_rtol <= 0.0 or self.residual_atol <= 0.0:
            raise ValueError("tolerances must be positive")


DEFAULT_TOL = ToleranceConfig()


def spectral_norm(A) -> float:
    """Largest singular value; 0 for empty matrices."""
    A = np.asarray(A, dtype=complex)
    if A.size == 0:
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[0])


def _passes(residual: float, ref_norm: float, tol: ToleranceConfig) -> bool:
    return residual <= tol.residual_atol * (1.0 + ref_norm)


# A Frobenius norm is a root of a sum of squares, which loses entries below
# 1e-154: thresholds under this floor are left to the spectral norms.
_FROBENIUS_FLOOR = 1e-100


def _frobenius(A: np.ndarray) -> float:
    # a BLAS dot, which overflows to inf without a floating-point warning
    return math.sqrt(np.vdot(A, A).real)


def _frobenius_pass(residuals, references, tol: ToleranceConfig) -> float | None:
    """max ||R_i||_F when it proves max ||R_i||_2 <= residual_atol * (1 +
    max ||F_j||_2) for the residuals R_i and references F_j, else None.

    ||R||_2 <= ||R||_F, and ||F||_2 >= ||F||_F / sqrt(d) for d >= min(F.shape)
    (Golub and Van Loan, Matrix Computations, 2.3), so the bound implies the
    spectral test and needs no SVD. The threshold is shaded by 1e-12 so that
    the two norms' roundoff cannot turn a spectral failure into a pass.
    """
    bound = max(_frobenius(R) for R in residuals)
    ref = max(_frobenius(F) for F in references)
    d = max(1, max(min(F.shape) for F in references))
    threshold = tol.residual_atol * (1.0 + ref / math.sqrt(d)) * (1.0 - 1e-12)
    # an infinite threshold is an overflowed reference, not a large one
    if _FROBENIUS_FLOOR <= threshold < np.inf and bound <= threshold:
        return bound
    return None


def _judge(residuals, references, tol: ToleranceConfig) -> tuple:
    """(residual, pass) of max ||R_i||_2 <= residual_atol * (1 + max ||F_j||_2):
    the Frobenius bound when it proves the pass, else the exact spectral
    residual with the exact verdict, so a failure always reports the latter."""
    bound = _frobenius_pass(residuals, references, tol)
    if bound is not None:
        return bound, True
    residual = max(spectral_norm(R) for R in residuals)
    return residual, _passes(residual, max(spectral_norm(F) for F in references), tol)


def matrix_power(A, j: int) -> np.ndarray:
    """A**j by repeated multiplication; j=0 gives the identity."""
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"powers need a square matrix, got {A.shape}")
    if j < 0:
        raise ValueError("negative powers are not defined here")
    return np.linalg.matrix_power(A, j)


def mp_inverse(A, tol: ToleranceConfig = DEFAULT_TOL, floor: float = 0.0) -> np.ndarray:
    """Moore-Penrose inverse, SVD-truncated at the shared rank threshold.

    `floor` raises the cutoff scale above sigma_max: a sub-block carved out of
    a larger matrix passes the parent's norm so that a block of pure roundoff
    inverts to zero instead of to noise^-1.
    """
    A = as_matrix(A)
    if A.size == 0:
        return np.zeros((A.shape[1], A.shape[0]), dtype=complex)
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    scale = max(float(s[0]) if s.size else 0.0, floor)
    if scale == 0.0:
        return np.zeros((A.shape[1], A.shape[0]), dtype=complex)
    keep = s > tol.rank_rtol * scale * max(A.shape)
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return Vh.conj().T @ np.diag(inv).astype(complex) @ U.conj().T


def rank_of(A, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Number of singular values above rank_rtol * sigma_max * max(rows, cols)."""
    A = as_matrix(A)
    if A.size == 0:
        return 0
    return _count_above(np.linalg.svd(A, compute_uv=False), 0.0, max(A.shape), tol)


def _count_above(s: np.ndarray, floor: float, dim: int, tol: ToleranceConfig) -> int:
    # Singular values s above rank_rtol * max(s[0], floor) * dim. The floor
    # keeps high powers of a nearly nilpotent matrix from picking up roundoff
    # rank: index_of judges S^j with floor = ||S||^j.
    scale = max(float(s[0]) if s.size else 0.0, floor)
    if scale == 0.0:
        return 0
    return int(np.count_nonzero(s > tol.rank_rtol * scale * dim))


def index_of(S, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Smallest k >= 0 with rank(S^k) = rank(S^(k+1)), where S^0 = I."""
    S = as_matrix(S)
    n, nc = S.shape
    if n != nc:
        raise DimensionError(f"the index needs a square matrix, got {S.shape}")
    if n == 0:
        return 0
    prev_rank = n  # rank of S^0
    P = np.eye(n, dtype=complex)
    for k in range(1, n + 2):
        P = P @ S
        s = np.linalg.svd(P, compute_uv=False)
        if k == 1:
            norm_s = float(s[0])  # ||S||: the first step factors S itself
        r = _count_above(s, norm_s**k, n, tol)
        if r == prev_rank:
            return k - 1
        prev_rank = r
    return n


def projector_onto(A, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthogonal projector onto the column space, A A^+."""
    A = as_matrix(A)
    return A @ mp_inverse(A, tol)


def range_inclusion(A, B, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff every column of A lies in the column space of B."""
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape[0] != B.shape[0]:
        raise DimensionError(
            f"column spaces live in different dimensions: {A.shape[0]} vs {B.shape[0]}"
        )
    residual = spectral_norm(A - projector_onto(B, tol) @ A)
    return _passes(residual, spectral_norm(A), tol)


@dataclass
class VerificationReport:
    """Per-condition residual norms with pass flags.

    `conditions` holds (label, residual, pass) triples and decides `overall`.
    `notes` holds informational (label, value) pairs that are reported but
    never asserted.
    """

    theorem_id: str
    tolerances: ToleranceConfig = DEFAULT_TOL
    conditions: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def add(self, label: str, residual: float, ok: bool) -> None:
        self.conditions.append((str(label), float(residual), bool(ok)))

    def add_equation(self, label: str, lhs, rhs) -> float:
        """Record ||lhs - rhs|| against the (1 + ||rhs||)-scaled threshold."""
        lhs = np.asarray(lhs, dtype=complex)
        rhs = np.asarray(rhs, dtype=complex)
        residual = spectral_norm(lhs - rhs)
        self.add(label, residual, _passes(residual, spectral_norm(rhs), self.tolerances))
        return residual

    def add_rank_gap(self, label: str, r1: int, r2: int) -> None:
        gap = float(abs(int(r1) - int(r2)))
        self.add(label, gap, gap == 0.0)

    def note(self, label: str, value: float) -> None:
        self.notes.append((str(label), float(value)))

    def merge(self, other: "VerificationReport", prefix: str = "") -> None:
        for label, residual, ok in other.conditions:
            self.add(prefix + label, residual, ok)
        for label, value in other.notes:
            self.notes.append((prefix + label, float(value)))

    def mirrored(self, theorem_id: str, labels: dict) -> "VerificationReport":
        """This report under `theorem_id`, its conditions renamed and ordered
        by `labels` ({own label: new label}), whose keys must be exactly the
        own labels so that no condition is dropped. Notes are kept."""
        rows = {label: (residual, ok) for label, residual, ok in self.conditions}
        if len(rows) != len(self.conditions) or labels.keys() != rows.keys():
            raise ValueError(
                f"label map {sorted(labels)} does not match the conditions {sorted(rows)}"
            )
        report = VerificationReport(theorem_id, self.tolerances, notes=list(self.notes))
        for label, new_label in labels.items():
            report.add(new_label, *rows[label])
        return report

    @property
    def overall(self) -> bool:
        return all(ok for _, _, ok in self.conditions)

    def worst_residual(self) -> float:
        return max((r for _, r, _ in self.conditions), default=0.0)

    def to_dict(self) -> dict:
        doc = {
            "theorem_id": self.theorem_id,
            "tolerances": {
                "rank_rtol": f"{self.tolerances.rank_rtol:.16e}",
                "residual_atol": f"{self.tolerances.residual_atol:.16e}",
                "norm_kind": "spectral",
            },
            "conditions": [
                {"label": label, "residual": f"{residual:.16e}", "pass": ok}
                for label, residual, ok in self.conditions
            ],
            "overall": self.overall,
        }
        if self.notes:
            doc["notes"] = [
                {"label": label, "value": f"{value:.16e}"} for label, value in self.notes
            ]
        return doc


def _range_eqc(A, B, tol: ToleranceConfig) -> tuple:
    # (residual, pass) of R(A) = R(B), by projector residuals both ways
    r_ab = spectral_norm(A - projector_onto(B, tol) @ A)
    r_ba = spectral_norm(B - projector_onto(A, tol) @ B)
    ok = _passes(r_ab, spectral_norm(A), tol) and _passes(r_ba, spectral_norm(B), tol)
    return max(r_ab, r_ba), ok


def _null_eqc(A, B, tol: ToleranceConfig) -> tuple:
    # (rank gap, pass) of N(A) = N(B): the row spaces agree iff stacking adds no rank
    stacked = rank_of(np.vstack([A, B]), tol)
    gap = float(max(stacked - rank_of(A, tol), stacked - rank_of(B, tol)))
    return gap, gap == 0.0


def oblique_projector_check(
    P, range_gen, null_gen, tol: ToleranceConfig = DEFAULT_TOL
) -> VerificationReport:
    """Check that P is idempotent with column space R(range_gen) and null
    space N(null_gen).

    Null-space equality is decided by rank tests on stacked rows: N(P) equals
    N(F) exactly when the row spaces agree, i.e. rank([F; P]) = rank(F) = rank(P).
    """
    P = as_matrix(P)
    G = as_matrix(range_gen)
    F = as_matrix(null_gen)
    if P.shape[0] != P.shape[1]:
        raise DimensionError(f"projector must be square, got {P.shape}")
    n = P.shape[0]
    if G.shape[0] != n:
        raise DimensionError(f"range generator rows {G.shape[0]} != {n}")
    if F.shape[1] != n:
        raise DimensionError(f"null generator columns {F.shape[1]} != {n}")

    report = VerificationReport("oblique-projector", tol)
    report.add_equation("idempotent", P @ P, P)
    report.add("column-space equality", *_range_eqc(P, G, tol))
    report.add("null-space equality", *_null_eqc(F, P, tol))
    return report


def _read_only(A: np.ndarray) -> np.ndarray:
    A.flags.writeable = False
    return A


@dataclass(frozen=True)
class WeightedPair:
    """A rectangular matrix B (m x n) with weight W (n x m), the indices of
    both products, and a memo of the factors that several inverses share.

    The pair stores read-only copies of B and W, however it is built, so the
    memo depends only on data that cannot change. The memo holds values
    that cost an SVD (B^+, the Drazin and core-EP kernels of BW and WB, the
    projectors onto their powers, ...), keyed by (quantity, tolerance[, power]).
    Each is built, and certified where it is a kernel value, on first use, is
    read-only from then on, and is never a public result: constructors still
    assemble and certify their own values on every call. The checkers in
    `verify` and the family membership test read nothing from it: what
    judges a caller's candidate rebuilds its factors from B and W.
    """

    B: np.ndarray
    W: np.ndarray
    k_bw: int
    k_wb: int

    def __post_init__(self):
        for name in ("B", "W"):
            A = as_matrix(getattr(self, name)).copy(order="K")
            object.__setattr__(self, name, _read_only(A))

    @property
    def m(self) -> int:
        return self.B.shape[0]

    @property
    def n(self) -> int:
        return self.B.shape[1]

    def bw(self) -> np.ndarray:
        return self.B @ self.W

    def wb(self) -> np.ndarray:
        return self.W @ self.B

    def bw_power(self, j: int) -> np.ndarray:
        return matrix_power(self.B @ self.W, j)

    def wb_power(self, j: int) -> np.ndarray:
        return matrix_power(self.W @ self.B, j)

    @cached_property
    def H(self) -> "WeightedPair":
        """The dual pair (B^*, W^*): B^* W^* = (WB)^* has the index of WB, so
        the indices swap and none is recomputed. It is built once and keeps
        its own memo; it holds no reference back to this pair."""
        return WeightedPair(self.B.conj().T, self.W.conj().T, self.k_wb, self.k_bw)

    @cached_property
    def _memo(self) -> dict:
        return {}

    def _cached(self, key: tuple, build):
        """The memo entry `key`, made by `build()` on first use; an array is
        stored read-only. A build that raises stores nothing."""
        memo = self._memo
        if key not in memo:
            value = build()
            memo[key] = _read_only(value) if isinstance(value, np.ndarray) else value
        return memo[key]

    def _power(self, side: str, j: int) -> np.ndarray:
        return self.bw_power(j) if side == "BW" else self.wb_power(j)

    def _pinv(self, tol: ToleranceConfig) -> np.ndarray:
        """B^+."""
        return self._cached(("B^+", tol), lambda: mp_inverse(self.B, tol))

    def _projector(self, side: str, j: int, tol: ToleranceConfig) -> np.ndarray:
        """Orthogonal projector onto R((BW)^j) (side "BW") or R((WB)^j) ("WB")."""
        return self._cached(
            ("projector", tol, side, j), lambda: projector_onto(self._power(side, j), tol)
        )

    def _rank(self, side: str, j: int, tol: ToleranceConfig) -> int:
        """rank((BW)^j) or rank((WB)^j)."""
        return self._cached(("rank", tol, side, j), lambda: rank_of(self._power(side, j), tol))


def weighted_pair(B, W, tol: ToleranceConfig = DEFAULT_TOL) -> WeightedPair:
    """Validate shapes, reject the zero weight, and cache both indices. The
    pair keeps read-only copies of B and W, so the caller's arrays may change."""
    B = as_matrix(B)
    W = as_matrix(W)
    m, n = B.shape
    if W.shape != (n, m):
        raise DimensionError(f"weight shape {W.shape} does not match required ({n}, {m})")
    if not W.any():
        raise ValueError("the zero weight is excluded")
    return WeightedPair(B=B, W=W, k_bw=index_of(B @ W, tol), k_wb=index_of(W @ B, tol))
