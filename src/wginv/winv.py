"""Weighted inverses of rectangular matrices and the affine solution families
of the two rank-constrained power equations.

Every constructor certifies its defining equations before returning; a value
that cannot be certified raises CertificationError rather than being handed
back silently wrong.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .matcore import (
    DEFAULT_TOL,
    CertificationError,
    DimensionError,
    HypothesisError,
    ToleranceConfig,
    WeightedPair,
    _certify,
    _eq,
    _exact,
    _judge,
    _read_only,
    as_matrix,
    mp_inverse,
)
from .sqinv import _core_ep, _drazin, _drazin_checks, _m_wgi

__all__ = [
    "WeightedInverseResult",
    "SolutionFamily",
    "w_drazin",
    "w_core_ep",
    "w_m_wgi",
    "w_m_weak_core",
    "w_mpcep",
    "w_cepmp",
    "w_m_wgmp",
    "w_dmp",
    "w_mpd",
    "weak_mpd",
    "weak_dmp",
    "mrwwd_family",
    "mrwwd_right_family",
    "CATALOG",
    "PARAMETRIZED_KINDS",
    "compute_kind",
]


# Certified kernel values of a pair, built from the staircase forms of BW and
# WB once per pair and tolerance and read from its memo (see WeightedPair).


def _drazin_kernel(pair: WeightedPair, side: str, tol: ToleranceConfig) -> np.ndarray:
    """(BW)^D (side "BW") or (WB)^D; on a dual pair, the adjoint of the pair's
    kernel of the other product, (B^* W^*)^D = ((WB)^D)^*, certified anew."""
    if pair._primal is None:
        if side == "WB" and pair._one_product(tol):
            side = "BW"
        return pair._cached(
            (f"({side})^D", tol), lambda: _drazin(pair._staircase_of(side, tol), tol).value
        )
    X = _drazin_kernel(pair._primal, "WB" if side == "BW" else "BW", tol).conj().T
    _certify("drazin", _drazin_checks(pair._power(side, 1), X, pair._k(side)), tol)
    return _read_only(X)


def _wb_core_ep(pair: WeightedPair, tol: ToleranceConfig) -> np.ndarray:
    """(WB)^core-EP."""
    return pair._cached(
        ("(WB)^core-EP", tol), lambda: _core_ep(pair._staircase_of("WB", tol), tol).value
    )


def _pinv_b(pair: WeightedPair, tol: ToleranceConfig) -> np.ndarray:
    """B^+ B, the left factor of the MP-core-EP and weighted MPD inverses."""
    return pair._cached(("B^+ B", tol), lambda: pair._pinv(tol) @ pair.B)


def _value(pair: WeightedPair, constructor, tol: ToleranceConfig, *args) -> np.ndarray:
    """The value of the public `constructor(pair, *args, tol)`, built and
    certified once per pair, tolerance and arguments, for a constructor that
    composes it into its own value. A failed certification stores nothing."""
    return pair._cached(
        (constructor.__name__, tol, *args), lambda: constructor(pair, *args, tol).value
    )


@dataclass(frozen=True)
class WeightedInverseResult:
    value: np.ndarray
    kind: str
    index_used: int
    residuals: dict


def w_drazin(pair: WeightedPair, tol: ToleranceConfig = DEFAULT_TOL) -> WeightedInverseResult:
    """W-weighted Drazin inverse ((BW)^D)^2 B, certified against its three
    defining equations and the dual representation B ((WB)^D)^2."""
    B, W = pair.B, pair.W
    k = pair.k_bw

    def square():
        Xd = _drazin_kernel(pair, "BW", tol)
        return Xd @ Xd

    val = pair._cached(("((BW)^D)^2", tol), square) @ B
    dual = pair._cached(
        ("B ((WB)^D)^2", tol),
        lambda: B @ np.linalg.matrix_power(_drazin_kernel(pair, "WB", tol), 2),
    )
    vWB = val @ W @ B  # shared by the fixed-point and commute rows
    residuals = _certify(
        "w_drazin",
        {
            "fixed point": _eq(vWB @ W @ val, val),
            "commute": _eq(pair.bw_power(1) @ val, vWB),
            "power": _eq(pair.bw_power(k + 1) @ val @ W, pair.bw_power(k)),
            "dual agreement": _eq(dual, val),
        },
        tol,
    )
    return WeightedInverseResult(value=val, kind="w-drazin", index_used=k, residuals=residuals)


def _w_core_ep_checks(pair: WeightedPair, val: np.ndarray, tol: ToleranceConfig) -> dict:
    """The rows that fix the W-weighted core-EP inverse: W B W val = P_WB,
    the projector onto R((WB)^k), and val = P_BW val, R(val) inside
    R((BW)^k), each projector read from the pair's staircase form.

    They fix val uniquely. (BW)^k and (WB)^k have the same rank q at k at or
    above both indices, so the projector row forces rank val >= q, and the
    range row rank val <= q, hence R(val) = R((BW)^k). Two solutions differ
    by a D with W B W D = 0 and R(D) inside R((BW)^k); D = (BW)^k z then
    gives (BW)^(k+2) z = B W B W D = 0, and (BW)^(k+2) has the null space of
    (BW)^k, so D = 0."""
    return {
        "projector": _eq(
            pair._cached(("W B W",), lambda: pair.wb_power(1) @ pair.W) @ val,
            pair._projector("WB", pair.k_wb, tol),
        ),
        "range": ((val - pair._projector("BW", pair.k_bw, tol) @ val,), (val,)),
    }


def w_core_ep(pair: WeightedPair, tol: ToleranceConfig = DEFAULT_TOL) -> WeightedInverseResult:
    """W-weighted core-EP inverse B ((WB)^core-EP)^2, certified by the two
    rows that fix it (see `_w_core_ep_checks`)."""
    C = _wb_core_ep(pair, tol)
    val = pair._cached(("B (WB)^core-EP", tol), lambda: pair.B @ C) @ C
    residuals = _certify("w_core_ep", _w_core_ep_checks(pair, val, tol), tol)
    return WeightedInverseResult(
        value=val, kind="w-core-ep", index_used=pair.k_wb, residuals=residuals
    )


def w_m_wgi(
    pair: WeightedPair, m: int, tol: ToleranceConfig = DEFAULT_TOL
) -> WeightedInverseResult:
    """W-weighted m-fold weak group inverse (B^core-EP,W W)^(m+1) (BW)^(m-1) B."""
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    B, W = pair.B, pair.W

    def power(j):  # (CW)^j (BW)^(m-1), C = B^core-EP,W
        CW = _value(pair, w_core_ep, tol) @ W
        return np.linalg.matrix_power(CW, j) @ pair.bw_power(m - 1)

    val = pair._cached(("(CW)^(m+1) (BW)^(m-1)", tol, m), lambda: power(m + 1)) @ B
    product = pair._cached(("(CW)^m (BW)^(m-1) B", tol, m), lambda: power(m) @ B)
    residuals = _certify(
        "w_m_wgi",
        {
            "product": _eq(pair.bw_power(1) @ val, product),
            "outer": _eq(val @ W @ B @ W @ val, val),
        },
        tol,
    )
    return WeightedInverseResult(
        value=val, kind="w-m-wgi", index_used=pair.k_bw, residuals=residuals
    )


def w_m_weak_core(
    pair: WeightedPair, m: int, tol: ToleranceConfig = DEFAULT_TOL
) -> WeightedInverseResult:
    """W-weighted m-fold weak core inverse: the m-fold weak group value
    composed with the projector onto R((WB)^m)."""
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    B, W = pair.B, pair.W
    P = pair._projector("WB", m, tol)
    val = _value(pair, w_m_wgi, tol, m) @ P

    def star():  # B (WB)^wgi(m) P, the m-fold weak group inverse of WB from its core-EP
        wgi = _m_wgi(pair._staircase_of("WB", tol), m, _wb_core_ep(pair, tol), tol).value
        return B @ (wgi @ P)

    BWval = pair.bw_power(1) @ val  # shared by both rows
    residuals = _certify(
        "w_m_weak_core",
        {
            "product": _eq(BWval, pair._cached(("B (WB)^wgi P", tol, m), star)),
            "inner composition": _eq(BWval @ W @ val, val),
        },
        tol,
    )
    return WeightedInverseResult(
        value=val, kind="w-m-weak-core", index_used=pair.k_bw, residuals=residuals
    )


def _outer_only(kind: str, pair: WeightedPair, val: np.ndarray, tol: ToleranceConfig) -> dict:
    return _certify(kind, {"outer": _eq(val @ pair.B @ val, val)}, tol)


def w_mpcep(pair: WeightedPair, tol: ToleranceConfig = DEFAULT_TOL) -> WeightedInverseResult:
    """MP-core-EP composition B^+ B W B^core-EP,W W."""
    W = pair.W
    head = pair._cached(
        ("B^+ B W B^core-EP,W", tol), lambda: _pinv_b(pair, tol) @ W @ _value(pair, w_core_ep, tol)
    )
    val = head @ W
    residuals = _outer_only("w_mpcep", pair, val, tol)
    return WeightedInverseResult(
        value=val, kind="w-mpcep", index_used=pair.k_bw, residuals=residuals
    )


def w_cepmp(pair: WeightedPair, tol: ToleranceConfig = DEFAULT_TOL) -> WeightedInverseResult:
    """Core-EP-MP composition W B^core-EP,W W B B^+."""
    B, W = pair.B, pair.W
    head = pair._cached(
        ("W B^core-EP,W W B", tol), lambda: W @ _value(pair, w_core_ep, tol) @ W @ B
    )
    val = head @ pair._pinv(tol)
    residuals = _outer_only("w_cepmp", pair, val, tol)
    return WeightedInverseResult(
        value=val, kind="w-cepmp", index_used=pair.k_wb, residuals=residuals
    )


def w_m_wgmp(
    pair: WeightedPair, m: int, tol: ToleranceConfig = DEFAULT_TOL
) -> WeightedInverseResult:
    """m-fold weak-group-MP composition W B^wgi(m),W W B B^+."""
    B, W = pair.B, pair.W
    head = pair._cached(
        ("W B^wgi,W W B", tol, m), lambda: W @ _value(pair, w_m_wgi, tol, m) @ W @ B
    )
    val = head @ pair._pinv(tol)
    residuals = _outer_only("w_m_wgmp", pair, val, tol)
    return WeightedInverseResult(
        value=val, kind="w-m-wgmp", index_used=pair.k_wb, residuals=residuals
    )


def _pinv_power(pair: WeightedPair, tol: ToleranceConfig) -> np.ndarray:
    """B^+ (BW)^(k+1), the right side of the power rows of the weighted and
    weak MPD inverses, formed once per pair and tolerance and read-only."""
    k = pair.k_bw
    return pair._cached(("B^+ BW^", tol, k + 1), lambda: pair._pinv(tol) @ pair.bw_power(k + 1))


def w_mpd(pair: WeightedPair, tol: ToleranceConfig = DEFAULT_TOL) -> WeightedInverseResult:
    """Weighted MPD inverse B^+ B W B^D,W W."""
    B, W = pair.B, pair.W
    k = pair.k_bw
    WdW = pair._cached(("W B^D,W W", tol), lambda: W @ _value(pair, w_drazin, tol) @ W)
    val = _pinv_b(pair, tol) @ WdW
    residuals = _certify(
        "w_mpd",
        {
            "outer": _eq(val @ B @ val, val),
            "product": _eq(B @ val, pair._cached(("B W B^D,W W", tol), lambda: B @ WdW)),
            "power": _eq(val @ pair.bw_power(k + 1), _pinv_power(pair, tol)),
        },
        tol,
    )
    return WeightedInverseResult(value=val, kind="w-mpd", index_used=k, residuals=residuals)


# Right-hand (DMP) statements are the left-hand (MPD) ones on the dual pair
# (B^*, W^*), read through the adjoint: right(pair, Z) = left(pair.H, Z^*)^*.

# The left-hand subjects that open error messages, and the names a caller of
# a right-hand wrapper knows them by.
_RIGHT_HAND_NAMES = {
    "X is not a member of the left": "Z is not a member of the right",
    "w_mpd:": "w_dmp:",
    "weak_mpd:": "weak_dmp:",
    "mrwwd_family:": "mrwwd_right_family:",
}


@contextmanager
def _right_hand():
    """Run a left-hand call on the dual pair for a right-hand caller: a
    membership or certification error is re-raised, with its type, under the
    names that caller used."""
    try:
        yield
    except (HypothesisError, CertificationError) as exc:
        message = str(exc)
        for left, right in _RIGHT_HAND_NAMES.items():
            if message.startswith(left):
                raise type(exc)(right + message[len(left) :]) from exc
        raise


def _adjoint(result: WeightedInverseResult, kind: str) -> WeightedInverseResult:
    return replace(result, value=result.value.conj().T, kind=kind)


def w_dmp(pair: WeightedPair, tol: ToleranceConfig = DEFAULT_TOL) -> WeightedInverseResult:
    """Weighted DMP inverse W B^D,W W B B^+: the adjoint of the weighted MPD
    inverse of the dual pair, certified by its equations."""
    with _right_hand():
        return _adjoint(w_mpd(pair.H, tol), "w-dmp")


@dataclass(frozen=True)
class SolutionFamily:
    """Affine family member(P) = particular + left_factor @ P @ annihilator.

    The free parameter P always has the particular solution's shape; the two
    outer factors encode which side of the family absorbs the freedom.
    """

    particular: np.ndarray
    left_factor: np.ndarray
    annihilator: np.ndarray
    side: str

    def member(self, P) -> np.ndarray:
        P = as_matrix(P)
        if P.shape != self.particular.shape:
            raise DimensionError(
                f"free parameter shape {P.shape} != {self.particular.shape}"
            )
        return self.particular + self.left_factor @ P @ self.annihilator


def _family_product(pair: WeightedPair, k: int) -> np.ndarray:
    """M = W (BW)^(k+1) of the family at power k (the left family's at the
    index k_bw), formed once per pair and power and read-only."""
    return pair._cached(("W BW^", k + 1), lambda: pair.W @ pair.bw_power(k + 1))


def _family_parts(pair: WeightedPair, tol: ToleranceConfig) -> tuple:
    """(K M^+, I - M M^+) with K = (BW)^k and M = W (BW)^(k+1): the left
    family's particular solution and annihilator, built from one M^+ once per
    pair and tolerance and read-only."""

    def build():
        M = _family_product(pair, pair.k_bw)
        Mp = mp_inverse(M, tol)
        particular = pair.bw_power(pair.k_bw) @ Mp
        return _read_only(particular), _read_only(np.eye(pair.n, dtype=complex) - M @ Mp)

    return pair._cached(("family parts", tol), build)


def mrwwd_family(pair: WeightedPair, tol: ToleranceConfig = DEFAULT_TOL) -> SolutionFamily:
    """All m x n solutions X of X W (BW)^(k+1) = (BW)^k with rank((BW)^k).

    particular = K M^+ with K = (BW)^k and M = W (BW)^(k+1); the family is
    K M^+ + K Z (I - M M^+) over free Z. Consistency of the particular
    solution (K M^+ M = K) is certified on every call; the rank and range
    constraints then hold automatically for every member. The family's
    arrays are the pair's, read-only (see `_family_parts`).
    """
    K, M = pair.bw_power(pair.k_bw), _family_product(pair, pair.k_bw)
    particular, annihilator = _family_parts(pair, tol)
    _certify("mrwwd_family", {"power equation": _eq(particular @ M, K)}, tol)
    return SolutionFamily(
        particular=particular, left_factor=K, annihilator=annihilator, side="left"
    )


def mrwwd_right_family(
    pair: WeightedPair, tol: ToleranceConfig = DEFAULT_TOL
) -> SolutionFamily:
    """All m x n solutions Z of M Z = N with M = W (BW)^(k+1), N = (WB)^k and
    rank(N): the adjoints of the dual pair's left family.

    particular = M^+ N; members M^+ N + (I - M^+ M) P N share the null space
    and rank of N automatically, and member(P) is the dual member(P^*)^*.
    """
    with _right_hand():
        dual = mrwwd_family(pair.H, tol)
    return SolutionFamily(
        particular=dual.particular.conj().T,
        left_factor=dual.annihilator.conj().T,
        annihilator=dual.left_factor.conj().T,
        side="right",
    )


def _as_member(pair: WeightedPair, X) -> np.ndarray:
    X = as_matrix(X)
    if X.shape != (pair.m, pair.n):
        raise DimensionError(f"member shape {X.shape} != ({pair.m}, {pair.n})")
    return X


def _power_equation(pair: WeightedPair, X, tol: ToleranceConfig) -> tuple:
    """The two rows of the left family's membership test (Thm 2.1 (ii)), each
    (residual, reference): the power equation (X M - K, K) with K = (BW)^k
    and M = W (BW)^(k+1), and the range row (X - P X, X) with P the projector
    onto R(K) that the staircase form deciding k holds. The power equation
    gives R(K) = R(X M) inside R(X), so X = P X is all that is left of
    R(X) = R(K); no rank of X is decided. On a dual pair, P is the pair's
    projector onto the row space of (WB)^k (see WeightedPair._projector)."""
    X = _as_member(pair, X)
    K = pair.bw_power(pair.k_bw)
    P = pair._projector("BW", pair.k_bw, tol)
    return (X @ _family_product(pair, pair.k_bw) - K, K), (X - P @ X, X)


def _left_member_residual(pair: WeightedPair, X, tol: ToleranceConfig) -> tuple:
    """(pass, exact spectral residual of the power equation, range residual)
    of the membership test. The range row is judged as a certificate
    (`_judge`): its residual reads 0 when it passes, and is exact when it
    fails."""
    (R, K), (D, F) = _power_equation(pair, X, tol)
    residual, ok = _exact(R, K, tol)
    range_residual, in_range = _judge((D,), (F,), tol)
    return ok and in_range, residual, 0.0 if in_range else range_residual


def _right_member_residual(pair: WeightedPair, Z, tol: ToleranceConfig) -> tuple:
    return _left_member_residual(pair.H, _as_member(pair, Z).conj().T, tol)


def _require_member(pair: WeightedPair, X, tol: ToleranceConfig) -> np.ndarray:
    """X as a matrix, certified to be a member of the left solution family.

    Both rows are judged as certificates (`_judge`); a refusal names the
    exact spectral residual of each, taking it anew only for a row that a
    Frobenius bound passed."""
    X = as_matrix(X)
    rows = _power_equation(pair, X, tol)
    judged = [_judge((R,), (F,), tol) for R, F in rows]
    if not all(ok for _, ok in judged):
        power_residual, range_residual = (
            _exact(R, F, tol)[0] if ok else residual
            for (residual, ok), (R, F) in zip(judged, rows)
        )
        raise HypothesisError(
            f"X is not a member of the left solution family "
            f"(power residual {power_residual:.3e}, range residual {range_residual:.3e})"
        )
    return X


def weak_mpd(pair: WeightedPair, X, tol: ToleranceConfig = DEFAULT_TOL) -> WeightedInverseResult:
    """Weak MPD inverse B^+ B W X W for a certified left family member X.

    Certifies the outer equation, the image identity B Y = B W X W, the power
    identity Y (BW)^(k+1) = B^+ (BW)^(k+1), and absorption of B^+ into the
    weighted MPD inverse.
    """
    return _weak_mpd(pair, _require_member(pair, X, tol), tol)


def _weak_mpd(pair: WeightedPair, X: np.ndarray, tol: ToleranceConfig) -> WeightedInverseResult:
    """weak_mpd for an X already certified to be a left family member."""
    B, W = pair.B, pair.W
    k = pair.k_bw
    BWXW = pair.bw_power(1) @ X @ W
    val = pair._pinv(tol) @ BWXW
    residuals = _certify(
        "weak_mpd",
        {
            "outer": _eq(val @ B @ val, val),
            "image": _eq(B @ val, BWXW),
            "power": _eq(val @ pair.bw_power(k + 1), _pinv_power(pair, tol)),
            "absorption": _eq(_value(pair, w_mpd, tol) @ BWXW, val),
        },
        tol,
    )
    return WeightedInverseResult(value=val, kind="weak-mpd", index_used=k, residuals=residuals)


def weak_dmp(pair: WeightedPair, Z, tol: ToleranceConfig = DEFAULT_TOL) -> WeightedInverseResult:
    """Weak DMP inverse W Z W B B^+ for a certified right family member Z: the
    adjoint of the weak MPD inverse of Z^* on the dual pair."""
    Zh = _as_member(pair, Z).conj().T
    with _right_hand():
        return _adjoint(weak_mpd(pair.H, Zh, tol), "weak-dmp")


CATALOG = {
    "w-drazin": w_drazin,
    "w-core-ep": w_core_ep,
    "w-m-wgi": w_m_wgi,
    "w-m-weak-core": w_m_weak_core,
    "w-mpcep": w_mpcep,
    "w-cepmp": w_cepmp,
    "w-m-wgmp": w_m_wgmp,
    "w-dmp": w_dmp,
    "w-mpd": w_mpd,
}

PARAMETRIZED_KINDS = frozenset({"w-m-wgi", "w-m-weak-core", "w-m-wgmp"})


def compute_kind(
    pair: WeightedPair, kind: str, tol: ToleranceConfig = DEFAULT_TOL, m: int = 1
) -> WeightedInverseResult:
    """Dispatch a catalog kind by name."""
    if kind not in CATALOG:
        raise ValueError(f"unknown inverse kind {kind!r}; known: {sorted(CATALOG)}")
    if kind in PARAMETRIZED_KINDS:
        return CATALOG[kind](pair, m, tol)
    return CATALOG[kind](pair, tol)
