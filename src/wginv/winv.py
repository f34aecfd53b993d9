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
    _judge,
    _passes,
    as_matrix,
    mp_inverse,
    projector_onto,
    rank_of,
    spectral_norm,
)
from .sqinv import _certify, _core_ep, _drazin, _eq, _m_wgi

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


# Certified kernel values of a pair, shared by every constructor that needs
# them: each is built and certified once per pair and tolerance and then read
# from the pair's memo (see WeightedPair). The right-hand (DMP) half reads
# them from the dual pair's memo.


def _bw_drazin(pair: WeightedPair, tol: ToleranceConfig) -> np.ndarray:
    """(BW)^D."""
    return pair._cached(("(BW)^D", tol), lambda: _drazin(pair.bw(), pair.k_bw, tol).value)


def _wb_drazin(pair: WeightedPair, tol: ToleranceConfig) -> np.ndarray:
    """(WB)^D."""
    return pair._cached(("(WB)^D", tol), lambda: _drazin(pair.wb(), pair.k_wb, tol).value)


def _wb_core_ep(pair: WeightedPair, tol: ToleranceConfig) -> np.ndarray:
    """(WB)^core-EP, from the cached (WB)^D and projector onto R((WB)^k)."""
    k = pair.k_wb
    return pair._cached(
        ("(WB)^core-EP", tol),
        lambda: _core_ep(
            pair.wb(), k, _wb_drazin(pair, tol), pair._projector("WB", k, tol), tol
        ).value,
    )


def _wb_m_wgi(pair: WeightedPair, m: int, tol: ToleranceConfig) -> np.ndarray:
    """The m-fold weak group inverse of WB, from the cached (WB)^core-EP."""
    k = pair.k_wb
    return pair._cached(
        ("(WB)^wgi", tol, m),
        lambda: _m_wgi(
            pair.wb(), m, k, _wb_core_ep(pair, tol), pair._projector("WB", k, tol), tol
        ).value,
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
    Xd = _bw_drazin(pair, tol)
    val = Xd @ Xd @ B
    dual = B @ np.linalg.matrix_power(_wb_drazin(pair, tol), 2)
    residuals = _certify(
        "w_drazin",
        {
            "fixed point": _eq(val @ W @ B @ W @ val, val),
            "commute": _eq(B @ W @ val, val @ W @ B),
            "power": _eq(pair.bw_power(k + 1) @ val @ W, pair.bw_power(k)),
            "dual agreement": _eq(dual, val),
        },
        tol,
    )
    return WeightedInverseResult(value=val, kind="w-drazin", index_used=k, residuals=residuals)


def w_core_ep(pair: WeightedPair, tol: ToleranceConfig = DEFAULT_TOL) -> WeightedInverseResult:
    """W-weighted core-EP inverse B ((WB)^core-EP)^2."""
    B, W = pair.B, pair.W
    C = _wb_core_ep(pair, tol)
    val = B @ C @ C
    Kbw = pair.bw_power(pair.k_bw)
    residuals = _certify(
        "w_core_ep",
        {
            "projector": _eq(W @ B @ W @ val, pair._projector("WB", pair.k_wb, tol)),
            "range equality": (
                (
                    val - pair._projector("BW", pair.k_bw, tol) @ val,
                    Kbw - projector_onto(val, tol) @ Kbw,
                ),
                (val, Kbw),
            ),
        },
        tol,
    )
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
    CW = w_core_ep(pair, tol).value @ W
    val = np.linalg.matrix_power(CW, m + 1) @ pair.bw_power(m - 1) @ B
    residuals = _certify(
        "w_m_wgi",
        {
            "product": _eq(
                B @ W @ val, np.linalg.matrix_power(CW, m) @ pair.bw_power(m - 1) @ B
            ),
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
    val = w_m_wgi(pair, m, tol).value @ P
    star = _wb_m_wgi(pair, m, tol) @ P
    residuals = _certify(
        "w_m_weak_core",
        {
            "product": _eq(B @ W @ val, B @ star),
            "inner composition": _eq(B @ W @ val @ W @ val, val),
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
    B, W = pair.B, pair.W
    val = pair._pinv(tol) @ B @ W @ w_core_ep(pair, tol).value @ W
    residuals = _outer_only("w_mpcep", pair, val, tol)
    return WeightedInverseResult(
        value=val, kind="w-mpcep", index_used=pair.k_bw, residuals=residuals
    )


def w_cepmp(pair: WeightedPair, tol: ToleranceConfig = DEFAULT_TOL) -> WeightedInverseResult:
    """Core-EP-MP composition W B^core-EP,W W B B^+."""
    B, W = pair.B, pair.W
    val = W @ w_core_ep(pair, tol).value @ W @ B @ pair._pinv(tol)
    residuals = _outer_only("w_cepmp", pair, val, tol)
    return WeightedInverseResult(
        value=val, kind="w-cepmp", index_used=pair.k_wb, residuals=residuals
    )


def w_m_wgmp(
    pair: WeightedPair, m: int, tol: ToleranceConfig = DEFAULT_TOL
) -> WeightedInverseResult:
    """m-fold weak-group-MP composition W B^wgi(m),W W B B^+."""
    B, W = pair.B, pair.W
    val = W @ w_m_wgi(pair, m, tol).value @ W @ B @ pair._pinv(tol)
    residuals = _outer_only("w_m_wgmp", pair, val, tol)
    return WeightedInverseResult(
        value=val, kind="w-m-wgmp", index_used=pair.k_wb, residuals=residuals
    )


def w_mpd(pair: WeightedPair, tol: ToleranceConfig = DEFAULT_TOL) -> WeightedInverseResult:
    """Weighted MPD inverse B^+ B W B^D,W W."""
    B, W = pair.B, pair.W
    k = pair.k_bw
    Bp = pair._pinv(tol)
    WdW = W @ w_drazin(pair, tol).value @ W
    val = Bp @ B @ WdW
    residuals = _certify(
        "w_mpd",
        {
            "outer": _eq(val @ B @ val, val),
            "product": _eq(B @ val, B @ WdW),
            "power": _eq(val @ pair.bw_power(k + 1), Bp @ pair.bw_power(k + 1)),
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
    rank_target: int
    side: str

    def member(self, P) -> np.ndarray:
        P = as_matrix(P)
        if P.shape != self.particular.shape:
            raise DimensionError(
                f"free parameter shape {P.shape} != {self.particular.shape}"
            )
        return self.particular + self.left_factor @ P @ self.annihilator


def mrwwd_family(pair: WeightedPair, tol: ToleranceConfig = DEFAULT_TOL) -> SolutionFamily:
    """All m x n solutions X of X W (BW)^(k+1) = (BW)^k with rank((BW)^k).

    particular = K M^+ with K = (BW)^k and M = W (BW)^(k+1); the family is
    K M^+ + K Z (I - M M^+) over free Z. Consistency of the particular
    solution (K M^+ M = K) is certified; the rank and range constraints then
    hold automatically for every member.
    """
    K = pair.bw_power(pair.k_bw)
    M = pair.W @ pair.bw_power(pair.k_bw + 1)
    Mp = pair._cached(("M^+", tol), lambda: mp_inverse(M, tol))
    particular = K @ Mp
    residual, ok = _judge((particular @ M - K,), (K,), tol)
    if not ok:
        raise CertificationError(
            f"mrwwd_family: the power equation is inconsistent (residual {residual:.3e})"
        )
    return SolutionFamily(
        particular=particular,
        left_factor=K,
        annihilator=np.eye(pair.n, dtype=complex) - M @ Mp,
        rank_target=pair._rank("BW", pair.k_bw, tol),
        side="left",
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
        rank_target=dual.rank_target,
        side="right",
    )


def _as_member(pair: WeightedPair, X) -> np.ndarray:
    X = as_matrix(X)
    if X.shape != (pair.m, pair.n):
        raise DimensionError(f"member shape {X.shape} != ({pair.m}, {pair.n})")
    return X


def _left_member_residual(pair: WeightedPair, X, tol: ToleranceConfig) -> tuple:
    X = _as_member(pair, X)
    K = pair.bw_power(pair.k_bw)
    M = pair.W @ pair.bw_power(pair.k_bw + 1)
    residual = spectral_norm(X @ M - K)
    rank_gap = abs(rank_of(X, tol) - rank_of(K, tol))
    ok = _passes(residual, spectral_norm(K), tol) and rank_gap == 0
    return ok, residual, rank_gap


def _right_member_residual(pair: WeightedPair, Z, tol: ToleranceConfig) -> tuple:
    return _left_member_residual(pair.H, _as_member(pair, Z).conj().T, tol)


def _require_member(pair: WeightedPair, X, tol: ToleranceConfig) -> np.ndarray:
    """X as a matrix, certified to be a member of the left solution family."""
    X = as_matrix(X)
    ok, residual, rank_gap = _left_member_residual(pair, X, tol)
    if not ok:
        raise HypothesisError(
            f"X is not a member of the left solution family "
            f"(power residual {residual:.3e}, rank gap {rank_gap})"
        )
    return X


def weak_mpd(pair: WeightedPair, X, tol: ToleranceConfig = DEFAULT_TOL) -> WeightedInverseResult:
    """Weak MPD inverse B^+ B W X W for a certified left family member X.

    Certifies the outer equation, the image identity B Y = B W X W, the power
    identity Y (BW)^(k+1) = B^+ (BW)^(k+1), and absorption of B^+ into the
    weighted MPD inverse.
    """
    X = _require_member(pair, X, tol)
    B, W = pair.B, pair.W
    k = pair.k_bw
    Bp = pair._pinv(tol)
    BWXW = B @ W @ X @ W
    val = Bp @ BWXW
    residuals = _certify(
        "weak_mpd",
        {
            "outer": _eq(val @ B @ val, val),
            "image": _eq(B @ val, BWXW),
            "power": _eq(val @ pair.bw_power(k + 1), Bp @ pair.bw_power(k + 1)),
            "absorption": _eq(w_mpd(pair, tol).value @ BWXW, val),
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
