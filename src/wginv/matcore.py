"""Dense-matrix substrate: pseudoinverse, rank, matrix index, projectors,
subspace tests, and the shared report/tolerance types."""

from __future__ import annotations

import copy
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


def _working(A: np.ndarray) -> np.ndarray:
    """A in its working dtype: float64 when its entries are real (integer,
    boolean or floating), complex128 otherwise. An array already of one of
    the two is returned as it is, without a copy."""
    if A.dtype == np.float64 or A.dtype == np.complex128:
        return A
    return A.astype(np.float64 if A.dtype.kind in "biuf" else np.complex128)


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-d array in its working dtype (see `_working`):
    a real input stays real, in float64, and any other becomes complex128.
    An array that is already float64 or complex128 is not copied."""
    A = _working(np.asarray(a))
    if A.ndim != 2:
        raise DimensionError(f"expected a 2-d array, got shape {A.shape}")
    if A.size and not np.isfinite(A).all():
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
        # NaN compares false both ways, so it fails this test as infinity does
        if not (0.0 < self.rank_rtol < math.inf and 0.0 < self.residual_atol < math.inf):
            raise ValueError("tolerances must be finite and positive")


DEFAULT_TOL = ToleranceConfig()


def spectral_norm(A) -> float:
    """Largest singular value, taken in A's working dtype; 0 for empty and
    zero matrices."""
    A = _working(np.asarray(A))
    if not np.count_nonzero(A):  # empty or exactly zero: what the SVD would return
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[0])


def _passes(residual: float, ref_norm: float, tol: ToleranceConfig) -> bool:
    return residual <= tol.residual_atol * (1.0 + ref_norm)


def _frobenius(A) -> float:
    # a BLAS dot, which overflows to inf without a floating-point warning; an
    # integer dot would wrap around instead, so integers are cast first
    A = np.asarray(A)
    if A.dtype.kind not in "fc":
        A = A.astype(float)
    return math.sqrt(np.vdot(A, A).real)


def _exact(R, F, tol: ToleranceConfig) -> tuple:
    """(||R||_2, ||R||_2 <= residual_atol * (1 + ||F||_2)): the exact residual
    and verdict of a row with residual R and reference F. A residual within
    residual_atol passes whatever F is, and since ||F||_2 <= ||F||_F one above
    residual_atol * (1 + ||F||_F) fails whatever it is (shaded by 1e-12
    against the norms' roundoff), so ||F||_2 is taken only in the band
    between. An infinite Frobenius bound proves nothing."""
    residual = spectral_norm(R)
    if residual <= tol.residual_atol:
        return residual, True
    if residual > tol.residual_atol * (1.0 + _frobenius(F)) * (1.0 + 1e-12):
        return residual, False
    return residual, _passes(residual, spectral_norm(F), tol)


# A Frobenius norm is a root of a sum of squares, which loses entries below
# 1e-154: thresholds under this floor are left to the spectral norms.
_FROBENIUS_FLOOR = 1e-100


def _frobenius_pass(R, F, tol: ToleranceConfig) -> float | None:
    """||R||_F when it proves ||R||_2 <= residual_atol * (1 + ||F||_2) for the
    residual R and reference F, else None.

    ||R||_2 <= ||R||_F, and ||F||_2 >= ||F||_F / sqrt(d) for d = min(F.shape)
    (Golub and Van Loan, Matrix Computations, 2.3), so the bound implies the
    spectral test and needs no SVD. The threshold is shaded by 1e-12 so that
    the two norms' roundoff cannot turn a spectral failure into a pass.
    """
    bound = _frobenius(R)
    d = max(1, min(F.shape))
    threshold = tol.residual_atol * (1.0 + _frobenius(F) / math.sqrt(d)) * (1.0 - 1e-12)
    # an infinite threshold is an overflowed reference, not a large one
    if _FROBENIUS_FLOOR <= threshold < np.inf and bound <= threshold:
        return bound
    return None


def _judge(R, F, tol: ToleranceConfig) -> tuple:
    """(residual, pass) of a certificate row: the Frobenius bound when it
    proves the pass, else `_exact`'s exact residual and verdict, so a failure
    always reports the exact spectral residual."""
    bound = _frobenius_pass(R, F, tol)
    if bound is not None:
        return bound, True
    return _exact(R, F, tol)


def _rank_gap(r1: int, r2: int) -> tuple:
    """(|r1 - r2|, pass): a rank row passes only on equal ranks."""
    gap = float(abs(int(r1) - int(r2)))
    return gap, gap == 0.0


def _refuse(kind: str, rows) -> None:
    """Raise CertificationError on the worst failing (label, residual, pass) row."""
    worst = max((row for row in rows if not row[2]), key=lambda row: row[1], default=None)
    if worst is not None:
        raise CertificationError(
            f"{kind}: check {worst[0]!r} has residual {worst[1]:.3e} beyond tolerance"
        )


@dataclass(eq=False, slots=True)
class _Row:
    """The certificate row lhs = rhs, judged against `reference` (against rhs
    when None): a range row X = P X names its lhs, a row whose rhs is zero the
    matrix its residual is measured on. Each side is a factor: an array, or a
    chain, a tuple of factors whose product is formed left to right, so that
    a chain spells the association its product was formed in. A chain shared
    by several rows of one certificate is formed once."""

    lhs: object
    rhs: object
    reference: object = None

    def formed(self, products: dict) -> tuple:
        """(lhs - rhs, reference), each formed as a dense product; `products`
        keeps the chains formed so far, by identity."""
        lhs, rhs = _formed(self.lhs, products), _formed(self.rhs, products)
        return lhs - rhs, rhs if self.reference is None else _formed(self.reference, products)


def _formed(factor, products: dict) -> np.ndarray:
    if isinstance(factor, np.ndarray):
        return factor
    value = products.get(id(factor))
    if value is None:
        for f in factor:  # most factors are arrays, taken without a call
            f = f if isinstance(f, np.ndarray) else _formed(f, products)
            value = f if value is None else value @ f
        products[id(factor)] = value
    return value


def _applied(factor, G: np.ndarray, images: dict, kept: dict) -> np.ndarray:
    """factor @ G, applied right to left: thin products only. Each array's
    product with each block is formed once and held in `images`, keyed by the
    identities of both, so a suffix that rows share is applied once. `kept`
    is a pair's `_images`: a product of two arrays it holds is read from it,
    or formed and kept there, as one of its own."""
    if not isinstance(factor, np.ndarray):
        for f in reversed(factor):
            G = _applied(f, G, images, kept)
        return G
    key = (id(factor), id(G))
    image = images.get(key)
    if image is None:
        image = kept.get(key)
        if image is None:
            image = factor @ G
            if id(factor) in kept and id(G) in kept:
                kept[key] = kept[id(image)] = _read_only(image)
        images[key] = image
    return image


def _columns(factor) -> int:
    while not isinstance(factor, np.ndarray):
        factor = factor[-1]
    return factor.shape[1]


# Rows of a pair with min(m, n) >= _PROBE_GATE are first judged on a block G
# of _PROBE_COLUMNS complex Gaussian probes (see `_probe`); below the gate
# forming the products costs less than applying the chains.
_PROBE_GATE = 32
_PROBE_COLUMNS = 4
_PROBE_MARGIN = 100.0


def _probe(
    row: _Row, G: np.ndarray, tol: ToleranceConfig, images=None, kept=None
) -> float | None:
    """100 e, e = ||R G||_F / sqrt(p) for R = lhs - rhs and G the d x p probe
    block, when 100 e <= residual_atol * (1 + ||F G||_F / ||G||_F) for the
    reference F; else None. Each side is applied by `_applied` (`images` and
    `kept` fresh when None).

    e estimates ||R||_F (Freivalds' check in its norm-estimating form; Halko,
    Martinsson and Tropp, SIAM Rev. 53, 2011, 4.3), and ||F G||_F / ||G||_F
    <= ||F||_2, so the threshold never exceeds the spectral test's. G has
    entries of unit complex variance, so ||R G||_F^2 >= ||R||_2^2 ||v^* G||^2
    for v the leading right singular vector of R, and ||v^* G||^2 is
    chi^2_(2p) / 2: a row that fails the spectral test passes here only if
    chi^2_8 < 8e-4, with probability 1.1e-15 at p = 4, whatever R is."""
    images, kept = {} if images is None else images, {} if kept is None else kept
    lhs, rhs = _applied(row.lhs, G, images, kept), _applied(row.rhs, G, images, kept)
    estimate = _PROBE_MARGIN * _frobenius(lhs - rhs) / math.sqrt(G.shape[1])
    FG = rhs if row.reference is None else _applied(row.reference, G, images, kept)
    threshold = tol.residual_atol * (1.0 + _frobenius(FG) / _frobenius(G))
    if _FROBENIUS_FLOOR <= threshold < np.inf and estimate <= threshold:
        return estimate
    return None


def _verdicts(checks: dict, tol: ToleranceConfig, pair=None, products=None) -> list:
    """[(label, residual, pass)] of certificate rows, label -> `_Row`.

    A row of a pair at or above the probe gate is first judged by `_probe`,
    which records 100 e for a pass: each array of the certificate meets each
    probe block once, and an image of the pair's own arrays alone is read
    from the pair (see `WeightedPair._images`). Any other row, and a row the
    probe does not pass, is formed (a shared chain once, kept in `products`)
    and judged by `_judge`: the Frobenius bound when it proves the pass, else
    the exact spectral residual and verdict."""
    products = {} if products is None else products
    probed = pair is not None and min(pair.B.shape) >= _PROBE_GATE
    rows, images = [], {}
    for label, row in checks.items():
        estimate = None
        if probed:
            G = pair._probe_block(_columns(row.rhs))
            estimate = _probe(row, G, tol, images, pair._images)
        verdict = (estimate, True) if estimate is not None else _judge(*row.formed(products), tol)
        rows.append((label, *verdict))
    return rows


def _certify(kind: str, checks: dict, tol: ToleranceConfig, pair=None) -> dict:
    """Decide every check by `_verdicts` and return {label: residual}; raise
    on the worst failing one, whose residual is always exact."""
    rows = _verdicts(checks, tol, pair)
    _refuse(kind, rows)
    return {label: residual for label, residual, _ in rows}


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
        return np.zeros((A.shape[1], A.shape[0]), dtype=A.dtype)
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    scale = max(float(s[0]), floor)
    if scale == 0.0:
        return np.zeros((A.shape[1], A.shape[0]), dtype=A.dtype)
    keep = s > tol.rank_rtol * scale * max(A.shape)
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return Vh.conj().T @ np.diag(inv) @ U.conj().T


def rank_of(A, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Number of singular values above rank_rtol * sigma_max * max(rows, cols)."""
    A = as_matrix(A)
    if A.size == 0:
        return 0
    s = np.linalg.svd(A, compute_uv=False)
    return int(np.count_nonzero(s > tol.rank_rtol * s[0] * max(A.shape)))


def _read_only(A: np.ndarray) -> np.ndarray:
    A.flags.writeable = False
    return A


@dataclass(frozen=True, eq=False)
class _Staircase:
    """S = U [[T, S12], [0, N]] U^* with U unitary, T invertible of order q
    and N strictly block upper triangular, N^k = 0: k is the index of S and
    the leading q columns U1 of U span R(S^j) for every j >= k. The blocks
    are formed on first use, so an index decision costs little beyond its SVDs."""

    S: np.ndarray
    U: np.ndarray
    sizes: tuple  # n = m_0 > m_1 > ... > m_k = q, the orders of the deflated blocks

    @property
    def q(self) -> int:
        return self.sizes[-1]

    @property
    def k(self) -> int:
        return len(self.sizes) - 1

    @cached_property
    def core(self) -> np.ndarray:
        """[[T, S12], [0, N]]: U^* S U with the rows each step dropped zeroed."""
        core = self.U.conj().T @ self.S @ self.U
        for m, r in zip(self.sizes, self.sizes[1:]):
            core[r:m, :m] = 0.0
        return _read_only(core)

    @cached_property
    def P(self) -> np.ndarray:
        """U1 U1^*, the orthogonal projector onto R(S^k)."""
        U1 = self.U[:, : self.q]
        return _read_only(U1 @ U1.conj().T)

    def projector(self, j: int) -> np.ndarray:
        """The orthogonal projector onto R(S^j): the leading sizes[j] columns
        of U span R(S^j) for j < k, as U1 does for every j >= k."""
        if j >= self.k:
            return self.P
        Uj = self.U[:, : self.sizes[j]]
        return _read_only(Uj @ Uj.conj().T)

    @cached_property
    def T_inv(self) -> np.ndarray:
        return _read_only(np.linalg.inv(self.core[: self.q, : self.q]))


def _staircase(S, tol: ToleranceConfig) -> _Staircase:
    """The staircase form of a square S (kept without a copy if it is float64
    or complex128, and with U real for a real S) by orthogonal deflation
    (Golub and Wilkinson, SIAM Rev. 18, 1976): each step takes one SVD of the
    active leading block A and rotates A onto its r left singular vectors
    above rank_rtol * ||S||_2 * n, dropping the rows below that cutoff, until
    A has full rank. Every rank is decided on S's scale."""
    S = as_matrix(S)
    if S.shape[0] != S.shape[1]:
        raise DimensionError(f"expected a square matrix, got {S.shape}")
    A, U, sizes = S, np.eye(S.shape[0], dtype=S.dtype), [S.shape[0]]
    while sizes[-1]:
        Q, s, Vh = np.linalg.svd(A)
        if len(sizes) == 1:
            cutoff = tol.rank_rtol * s[0] * S.shape[0]
        r = int(np.count_nonzero(s > cutoff))
        if r == sizes[-1]:
            break
        A = (s[:r, None] * Vh[:r]) @ Q[:, :r]  # the leading block of Q^* A Q
        U[:, : sizes[-1]] = U[:, : sizes[-1]] @ Q
        sizes.append(r)
    return _Staircase(S, _read_only(U), tuple(sizes))


def index_of(S, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Smallest k >= 0 with rank(S^k) = rank(S^(k+1)), S^0 = I: the k of S's staircase form."""
    return _staircase(S, tol).k


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
    return _exact(A - projector_onto(B, tol) @ A, A, tol)[1]


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
        residual, ok = _exact(np.subtract(lhs, rhs), rhs, self.tolerances)
        self.add(label, residual, ok)
        return residual

    def add_rank_gap(self, label: str, r1: int, r2: int) -> None:
        self.add(label, *_rank_gap(r1, r2))

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
    # (residual, pass) of R(A) = R(B), by projector residuals both ways; ||B||
    # is taken only when the first inclusion holds
    r_ab, ok = _exact(A - projector_onto(B, tol) @ A, A, tol)
    R_ba = B - projector_onto(A, tol) @ B
    r_ba, ok = _exact(R_ba, B, tol) if ok else (spectral_norm(R_ba), False)
    return max(r_ab, r_ba), ok


def _null_eqc(A, B, tol: ToleranceConfig) -> tuple:
    # (rank gap, pass) of N(A) = N(B): the row spaces agree iff stacking adds
    # no rank
    stacked = rank_of(np.vstack([A, B]), tol)
    return _rank_gap(stacked, min(rank_of(A, tol), rank_of(B, tol)))


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


@dataclass(frozen=True)
class WeightedPair:
    """A rectangular matrix B (m x n) with weight W (n x m), the indices of
    both products, the tolerance `tol` they were decided at, and a memo of
    every quantity that depends on B and W alone.

    The pair has one tolerance: every rank, index and certificate of the
    pair, its dual and the checks, chains and decompositions read on it is
    decided at `tol`, so each quantity has one value. To judge B and W at
    another tolerance, build another pair with `weighted_pair(B, W, tol)`.

    The pair stores read-only copies of B and W, however it is built, both
    in the pair's working dtype: float64 when B and W are real, complex128
    otherwise. Every array it builds is in that dtype too. Its memo
    holds the powers of BW and WB and the products W (BW)^(k+1) and
    B^+ (BW)^(k+1), the staircase forms of BW and WB (which `weighted_pair`
    seeds, once for both when BW and WB are one matrix, and which give the
    rank of and the projector onto every power, and the projector onto the
    row space of a stabilized power), B^+, the left family's particular
    solution and annihilator, the kernels and the certified inverses that
    constructors compose, each built on first use and read-only. Each of
    them is built once, here: constructors, checkers, perturbation chains
    and order laws all read it from the pair. A check reads the pair as a
    constructor does and stores nothing about its candidate, whose report
    norms are taken on every call. Public inverses are never read from the
    memo; a solution family's arrays are the pair's, read-only.

    The memo also holds every product of these alone that a catalog value
    is formed from, keyed by m where there is one: ((BW)^D)^2 (`w_drazin`),
    B (WB)^core-EP (`w_core_ep`), (CW)^(m+1) (BW)^(m-1) with
    C = B^core-EP,W (`w_m_wgi`), B^+ B W C (`w_mpcep`), W C W B
    (`w_cepmp`), W B^wgi(m),W W B (`w_m_wgmp`), and B^+ B and W B^D,W W
    (`w_mpd`). Each is associated as the constructor associates it, so that
    a value and its residuals are bitwise those of forming every product on
    each call; the value is still formed by its last product, and every row
    evaluated, on every call. A product that only a certificate row reads is
    not kept (see `_verdicts`). On a pair with min(m, n) at or above the
    probe gate the memo holds its probe block too, and `_images` the image
    on it of every chain of the pair's own arrays that a row applies.
    """

    B: np.ndarray
    W: np.ndarray
    k_bw: int
    k_wb: int
    tol: ToleranceConfig = DEFAULT_TOL

    # on a dual pair (see H), a twin of the pair it is the dual of
    _primal = None

    def __post_init__(self):
        B, W = as_matrix(self.B), as_matrix(self.W)
        dtype = np.result_type(B, W)  # the pair's working dtype
        for name, A in (("B", B), ("W", W)):
            object.__setattr__(self, name, _read_only(A.astype(dtype, order="K")))

    @property
    def m(self) -> int:
        return self.B.shape[0]

    @property
    def n(self) -> int:
        return self.B.shape[1]

    def bw_power(self, j: int) -> np.ndarray:
        """(BW)^j, formed once per pair and read-only."""
        return self._cached(("BW^", j), lambda: matrix_power(self.B @ self.W, j))

    def wb_power(self, j: int) -> np.ndarray:
        """(WB)^j, formed once per pair and read-only."""
        return self._cached(("WB^", j), lambda: matrix_power(self.W @ self.B, j))

    @cached_property
    def H(self) -> "WeightedPair":
        """The dual pair (B^*, W^*) with the indices swapped. Its B^+, Drazin
        kernels and ranks of powers are this pair's (the first two as
        adjoints), and its projector onto a stabilized power is this pair's
        projector onto the row space of the other product's power, read
        through a twin of this pair (the dual's dual): a shallow copy that
        shares its read-only B and W, its memo and its probe images. No SVD,
        and no reference back."""
        if self._primal is not None:
            return self._primal
        twin = copy.copy(self)
        twin.__dict__["_memo"], twin.__dict__["_images"] = self._memo, self._images
        dual = WeightedPair(self.B.conj().T, self.W.conj().T, self.k_wb, self.k_bw, self.tol)
        dual.__dict__["_primal"] = twin
        return dual

    @cached_property
    def _memo(self) -> dict:
        return {}

    def __getstate__(self) -> dict:
        """A copy or a pickle keeps the memo, but not `_images`, which ids key."""
        return {key: value for key, value in self.__dict__.items() if key != "_images"}

    @cached_property
    def _images(self) -> dict:
        """The pair's probe images: {(id(A), id(G)): A @ G} for A and G arrays
        the pair holds, G a probe block or such an image (see `_applied`), and
        {id(A): A} for each array it holds: B, W, every array `_cached` stores,
        its probe block of d rows (also under ("probe", d)) and the images.
        Holding them keeps an id from being reused while it keys an image."""
        return {id(self.B): self.B, id(self.W): self.W}

    def _cached(self, key: tuple, build):
        """The memo entry `key`, made by `build()` on first use; an array is
        stored read-only, and held in `_images`. A build that raises stores
        nothing."""
        memo = self._memo
        if key not in memo:
            value = build()
            if isinstance(value, np.ndarray):
                value = self._images.setdefault(id(value), _read_only(value))
            memo[key] = value
        return memo[key]

    def _probe_block(self, d: int) -> np.ndarray:
        """The leading d rows of G, the max(m, n) x _PROBE_COLUMNS complex
        Gaussian probes of unit variance that certificate rows with d columns
        are judged on (see `_probe`). G is complex on a real pair too, so that
        a probed row misses a failure with the probability `_probe` states.
        G is seeded from the bytes of B and W, so that residuals repeat bit
        for bit, and a dual pair reads the pair's: one seeding per pair. The
        block of d rows is one array, held in `_images`, so that images on it
        are kept by its identity."""
        kept = self._images
        if ("probe", d) in kept:
            return kept["probe", d]

        def build():
            words = np.frombuffer(self.B.tobytes() + self.W.tobytes(), dtype=np.uint32)
            rng = np.random.default_rng(np.random.SeedSequence(words))
            shape = (max(self.B.shape), _PROBE_COLUMNS)
            return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)

        if self._primal is not None:
            G = self._primal._probe_block(d)
        else:
            G = self._cached(("probe",), build)[:d]
        kept["probe", d] = kept[id(G)] = G
        return G

    def _power(self, side: str, j: int) -> np.ndarray:
        return self.bw_power(j) if side == "BW" else self.wb_power(j)

    def _k(self, side: str) -> int:
        return self.k_bw if side == "BW" else self.k_wb

    def _staircase_of(self, side: str) -> _Staircase:
        """The staircase form of BW (side "BW") or WB ("WB")."""
        return self._cached(("staircase", side), lambda: _staircase(self._power(side, 1), self.tol))

    def _pinv(self) -> np.ndarray:
        """B^+; on a dual pair, the adjoint of the pair's B^+."""
        if self._primal is not None:
            return _read_only(self._primal._pinv().conj().T)
        return self._cached(("B^+",), lambda: mp_inverse(self.B, self.tol))

    def _projector(self, side: str, j: int) -> np.ndarray:
        """The orthogonal projector onto R((BW)^j) (side "BW") or R((WB)^j),
        read from the staircase form. On a dual pair and j at or above the
        index, the pair's projector onto the row space of the other product's
        power, since B^* W^* = (WB)^* and R((A^j)^*) is the row space of A^j.
        Each projector is a memo entry, one per power up to the index, so its
        probe images are kept."""
        if self._primal is not None and j >= self._k(side):
            return self._primal._row_projector("WB" if side == "BW" else "BW")
        form = self._staircase_of(side)
        j = min(j, form.k)
        return self._cached(("projector", side, j), lambda: form.projector(j))

    def _one_product(self) -> bool:
        """Whether BW and WB are one matrix, factored once: `weighted_pair`
        seeds its staircase form under both sides when the two products are
        equal bit for bit (W = I, say)."""
        memo = self._memo
        return memo.get(("staircase", "WB"), 0) is memo.get(("staircase", "BW"))

    def _row_projector(self, side: str) -> np.ndarray:
        """The orthogonal projector onto the row space of (BW)^j (side "BW")
        or (WB)^j for every j at or above the index, R(((BW)^j)^*).

        With S = U [[T, S12], [0, N]] U^*, S^k = U1 T^k [I, G] U^* for
        G = T^-k Y_k = sum_(j<k) T^-(j+1) S12 N^j, Y_k the upper right block
        of the k-th power of the core, and U1 T^k has full column rank q, so
        the row space is R(U [I; G^*]): one QR of that n x q basis, read from
        the staircase form that decided the index, with no SVD."""

        def build():
            form = self._staircase_of(side)
            q, core = form.q, form.core
            G = np.zeros_like(core[:q, q:])
            for _ in range(form.k):  # Horner's scheme
                G = form.T_inv @ (core[:q, q:] + G @ core[q:, q:])
            Q = np.linalg.qr(form.U[:, :q] + form.U[:, q:] @ G.conj().T)[0]
            return Q @ Q.conj().T

        return self._cached(("row projector", side), build)

    def _rank(self, side: str, j: int) -> int:
        """rank((BW)^j) (side "BW") or rank((WB)^j), read from the staircase
        form. On a dual pair, the pair's rank of the other product's power,
        since B^* W^* = (WB)^* and an adjoint keeps the rank."""
        if self._primal is not None:
            return self._primal._rank("WB" if side == "BW" else "BW", j)
        form = self._staircase_of(side)
        return form.sizes[min(j, form.k)]


def weighted_pair(B, W, tol: ToleranceConfig = DEFAULT_TOL) -> WeightedPair:
    """Validate shapes, reject the zero weight, and decide both indices from
    the staircase forms of BW and WB at `tol`, which the pair keeps as its
    one tolerance, with the forms and with BW and WB as its first powers
    (and with read-only copies of B and W, so the caller's arrays may
    change). B and W are cast to their result type first, so a
    real pair is factored in real arithmetic and a pair with one complex
    input in complex. When BW and WB are equal bit for bit, as for W = I,
    they are one matrix: it is factored once, and its form and its array
    serve both sides."""
    B, W = as_matrix(B), as_matrix(W)
    dtype = np.result_type(B, W)  # real only when both are
    B, W = B.astype(dtype, copy=False), W.astype(dtype, copy=False)
    m, n = B.shape
    if W.shape != (n, m):
        raise DimensionError(f"weight shape {W.shape} does not match required ({n}, {m})")
    if not W.any():
        raise ValueError("the zero weight is excluded")
    BW, WB = B @ W, W @ B
    bw = _staircase(BW, tol)
    # compared as bytes, since equal values may differ in the sign of a zero
    wb = bw if m == n and BW.tobytes() == WB.tobytes() else _staircase(WB, tol)
    pair = WeightedPair(B=B, W=W, k_bw=bw.k, k_wb=wb.k, tol=tol)
    # the first powers are the products the forms were taken of
    for side, form in (("BW", bw), ("WB", wb)):
        pair._cached(("staircase", side), lambda: form)
        pair._cached((f"{side}^", 1), lambda: form.S)
    return pair
