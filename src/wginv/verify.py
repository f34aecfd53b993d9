"""Residual checkers for the characterization, projector, and solution-family
statements. Each checker returns a VerificationReport whose conditions carry
the worst raw residual of the item they certify."""

from __future__ import annotations

import numpy as np

from .matcore import (
    DimensionError,
    VerificationReport,
    WeightedPair,
    _exact,
    _null_eqc,
    _range_eqc,
    _rank_gap,
    as_matrix,
    oblique_projector_check,
    rank_of,
    spectral_norm,
)
from .winv import (
    _as_member,
    _drazin_kernel,
    _family_product,
    _left_member_residual,
    _pinv_b,
    _pinv_power,
    _require_member,
    _right_hand,
    _value,
    w_dmp,
    w_drazin,
    w_mpd,
    weak_mpd,
)

__all__ = [
    "check_mrwwd",
    "check_mrwwd_right",
    "check_weak_mpd_system",
    "check_weak_dmp_system",
    "check_mpd_characterizations",
    "check_dmp_characterizations",
    "check_wdrazin_specialization",
    "check_projectors",
    "check_projectors_right",
    "check_unique_projector_solution",
    "check_mp_drazin_absorption",
    "one_inverse_family",
    "one_inverse_family_right",
    "mpd_general_solution",
]


def _item(report: VerificationReport, label: str, comps: list) -> None:
    report.add(
        label,
        max((r for r, _ in comps), default=0.0),
        all(ok for _, ok in comps),
    )


# Right-hand checkers run their left-hand counterpart on the dual pair
# (B^*, W^*) with the adjoints of their arguments, then rename its rows.
def _star(A):
    return None if A is None else as_matrix(A).conj().T


def _as_inverse(pair: WeightedPair, Y):
    """An inverse Y (or Y1) checked against the pair's shape, n x m, before any
    adjoint is taken of it; None stays None."""
    Y = None if Y is None else as_matrix(Y)
    if Y is not None and Y.shape != (pair.n, pair.m):
        raise DimensionError(f"inverse shape {Y.shape} != ({pair.n}, {pair.m})")
    return Y


def _power_at(pair: WeightedPair, side: str, power: int | None) -> int:
    """The power k a characterization is checked at: the index of BW (side
    "BW") or WB by default. Below the index no member exists, since
    W (BW)^(k+1) then has a smaller rank than (BW)^k and (WB)^k, so such a
    power is refused."""
    index = pair._k(side)
    k = index if power is None else int(power)
    if k < index:
        raise ValueError(f"power {k} is below the index {index} of {side}: the family is empty")
    return k


def check_mrwwd(pair: WeightedPair, X, power: int | None = None) -> VerificationReport:
    """Seven equivalent characterizations of membership in the left family of
    X W (BW)^(k+1) = (BW)^k at rank((BW)^k), for k at or above the index.
    rank((BW)^k), the projector P onto R((BW)^k), W (BW)^(k+1) and (BW)^D are
    read from the pair (see WeightedPair). R(X) = R((BW)^k) is judged as
    P X = X (R(X) inside R((BW)^k)) and rank X = rank (BW)^k."""
    X = _as_member(pair, X)
    B, W, tol = pair.B, pair.W, pair.tol
    k = _power_at(pair, "BW", power)
    K = pair.bw_power(k)
    M = _family_product(pair, k)

    report = VerificationReport("thm2.1", tol)
    eq = _exact(X @ M - K, K, tol)
    rank = _rank_gap(rank_of(X, tol), pair._rank("BW", k))
    fix = _exact(pair._projector("BW", k) @ X - X, X, tol)

    _item(report, "(i) power equation, rank", [eq, rank])
    _item(report, "(ii) power equation, range", [eq, fix, rank])
    outer = _exact(X @ W @ B @ W @ X - X, X, tol)
    _item(report, "(iii) outer inverse, range", [outer, fix, rank])
    _item(report, "(iv) core projector fixes X", [fix, eq])
    _item(report, "(v) power equation, rank, range", [eq, rank, fix])
    _item(report, "(vi) left absorption", [_exact(B @ W @ X @ W @ X - X, X, tol), eq])
    _item(
        report,
        "(vii) Drazin projector fixes X",
        [_exact(_drazin_kernel(pair, "BW") @ pair.bw_power(1) @ X - X, X, tol), eq],
    )
    return report


# thm2.1's rows under the names thm2.8 (and thm3.18's updated member) gives them
_MRWWD_RIGHT_LABELS = {
    "(i) power equation, rank": "(i) power equation, rank",
    "(ii) power equation, range": "(ii) power equation, null space",
    "(iii) outer inverse, range": "(iii) outer inverse, null space",
    "(iv) core projector fixes X": "(iv) row projector fixes Z",
    "(v) power equation, rank, range": "(v) power equation, rank, null space",
    "(vi) left absorption": "(vi) right absorption",
    "(vii) Drazin projector fixes X": "(vii) Drazin projector fixes Z",
}


def check_mrwwd_right(pair: WeightedPair, Z, power: int | None = None) -> VerificationReport:
    """Seven equivalent characterizations of membership in the right family of
    (WB)^(k+1) W Z = (WB)^k at rank((WB)^k), for k at or above the index of
    WB: thm2.1 on the dual pair for Z^*, where a range becomes a null space.
    A power below the index is refused as one of WB."""
    _power_at(pair, "WB", power)
    Zh = _star(_as_member(pair, Z))
    return check_mrwwd(pair.H, Zh, power).mirrored("thm2.8", _MRWWD_RIGHT_LABELS)


def check_weak_mpd_system(pair: WeightedPair, X, Y) -> VerificationReport:
    """The three-equation system whose unique solution is the weak MPD inverse
    B^+ B W X W of the member X."""
    X = as_matrix(X)
    Y = _as_inverse(pair, Y)
    B, W = pair.B, pair.W
    P1 = pair.bw_power(pair.k_bw + 1)

    report = VerificationReport("thm3.1", pair.tol)
    ok, m_res, m_gap = _left_member_residual(pair, X)
    report.add("X in left family", max(m_res, float(m_gap)), ok)
    report.add_equation("outer: Y B Y = Y", Y @ B @ Y, Y)
    report.add_equation("image: B Y = B W X W", B @ Y, B @ W @ X @ W)
    report.add_equation("power: Y (BW)^(k+1) = B^+ (BW)^(k+1)", Y @ P1, _pinv_power(pair))
    report.add_equation("uniqueness: Y = B^+ B W X W", Y, _pinv_b(pair) @ W @ X @ W)
    return report


def check_weak_dmp_system(pair: WeightedPair, Z, Y1) -> VerificationReport:
    """Mirrored system for the weak DMP inverse W Z W B B^+: thm3.1 on the
    dual pair."""
    report = check_weak_mpd_system(pair.H, _star(_as_member(pair, Z)), _star(_as_inverse(pair, Y1)))
    return report.mirrored(
        "lem3.2",
        {
            "X in left family": "Z in right family",
            "outer: Y B Y = Y": "outer: Y1 B Y1 = Y1",
            "image: B Y = B W X W": "image: Y1 B = W Z W B",
            "power: Y (BW)^(k+1) = B^+ (BW)^(k+1)": "power: (WB)^(k+1) Y1 = (WB)^(k+1) B^+",
            "uniqueness: Y = B^+ B W X W": "uniqueness: Y1 = W Z W B B^+",
        },
    )


def check_mpd_characterizations(pair: WeightedPair, X, Y) -> VerificationReport:
    """Seven equivalent descriptions of the weak MPD inverse of member X."""
    X = _as_member(pair, X)
    Y = _as_inverse(pair, Y)
    B, W, tol = pair.B, pair.W, pair.tol
    Bp, BpP1 = pair._pinv(), _pinv_power(pair)
    BWXW = B @ W @ X @ W
    P1 = pair.bw_power(pair.k_bw + 1)
    BpBY, BpX, BpBWXW, BWXWB = _pinv_b(pair) @ Y, Bp @ X, Bp @ BWXW, BWXW @ B
    BpBYB, BpXBp, BpXWB = BpBY @ B, BpX @ Bp, BpX @ W @ B

    report = VerificationReport("thm3.3", tol)
    outer = _exact(Y @ B @ Y - Y, Y, tol)
    image = _exact(B @ Y - BWXW, BWXW, tol)
    power = _exact(Y @ P1 - BpP1, BpP1, tol)
    left_abs = _exact(Y @ B - BpBYB, BpBYB, tol)
    mp_fix = _exact(Y - BpBY, BpBY, tol)

    _item(report, "(i) direct formula", [_exact(Y - BpBWXW, BpBWXW, tol)])
    _item(
        report,
        "(ii) outer, sandwich, image, power",
        [outer, _exact(B @ Y @ B - BWXWB, BWXWB, tol), image, power],
    )
    _item(report, "(iii) outer, image, left absorption", [outer, image, left_abs])
    _item(report, "(iv) image, left absorption, MP fix", [image, left_abs, mp_fix])
    _item(
        report,
        "(v) outer, image, power, member absorption",
        [outer, image, power, _exact(Y @ X - BpX, BpX, tol)],
    )
    _item(
        report,
        "(vi) MP fix, image, member sandwich",
        [mp_fix, image, _exact(Y @ X @ Bp - BpXBp, BpXBp, tol)],
    )
    _item(
        report,
        "(vii) MP fix, image, weighted member absorption",
        [mp_fix, image, _exact(Y @ X @ W @ B - BpXWB, BpXWB, tol)],
    )
    return report


def check_dmp_characterizations(pair: WeightedPair, Z, Y1) -> VerificationReport:
    """Mirrored descriptions of the weak DMP inverse of member Z: thm3.3 on
    the dual pair, where left absorption becomes right absorption."""
    report = check_mpd_characterizations(
        pair.H, _star(_as_member(pair, Z)), _star(_as_inverse(pair, Y1))
    )
    return report.mirrored(
        "thm3.4",
        {
            "(i) direct formula": "(i) direct formula",
            "(ii) outer, sandwich, image, power": "(ii) outer, sandwich, image, power",
            "(iii) outer, image, left absorption": "(iii) outer, image, right absorption",
            "(iv) image, left absorption, MP fix": "(iv) image, right absorption, MP fix",
            "(v) outer, image, power, member absorption": (
                "(v) outer, image, power, member absorption"
            ),
            "(vi) MP fix, image, member sandwich": "(vi) MP fix, image, member sandwich",
            "(vii) MP fix, image, weighted member absorption": (
                "(vii) MP fix, image, weighted member absorption"
            ),
        },
    )


def check_wdrazin_specialization(pair: WeightedPair) -> VerificationReport:
    """The characterizations specialized to the weighted Drazin member, where
    the weak MPD inverse collapses to the weighted MPD inverse."""
    X = _value(pair, w_drazin)
    Y = weak_mpd(pair, X).value
    inner = check_mpd_characterizations(pair, X, Y)
    report = VerificationReport("thm3.5", pair.tol)
    report.merge(inner)
    report.add_equation("weak MPD equals weighted MPD", Y, _value(pair, w_mpd))
    return report


def check_projectors(pair: WeightedPair, X, Y=None) -> VerificationReport:
    """B Y and Y B as oblique projectors determined by the member X, plus the
    range and null space of Y itself."""
    B, W, tol = pair.B, pair.W, pair.tol
    if Y is None:
        # weak_mpd certifies the membership of X itself
        X = as_matrix(X)
        Y = weak_mpd(pair, X).value
    else:
        X = _require_member(pair, X)
    Y = _as_inverse(pair, Y)
    K, col_gen = pair.bw_power(pair.k_bw), _pinv_power(pair)

    report = VerificationReport("lem3.6", tol)
    report.merge(oblique_projector_check(B @ Y, K, X @ W, tol), prefix="(i) B Y: ")
    report.merge(
        oblique_projector_check(Y @ B, col_gen, X @ W @ B, tol), prefix="(ii) Y B: "
    )
    outer = _exact(Y @ B @ Y - Y, Y, tol)
    rng = _range_eqc(Y, col_gen, tol)
    nul = _null_eqc(Y, X @ W, tol)
    _item(report, "(iii) outer, range, null space", [outer, rng, nul])
    return report


def check_projectors_right(pair: WeightedPair, Z, Y1=None) -> VerificationReport:
    """Mirrored projector geometry for the weak DMP inverse of member Z:
    lem3.6 on the dual pair. B Y1 is the adjoint of the dual's Y B and Y1 B of
    its B Y, and an adjoint turns a column space into a null space."""
    Zh = _star(_as_member(pair, Z))
    with _right_hand():
        report = check_projectors(pair.H, Zh, _star(_as_inverse(pair, Y1)))
    return report.mirrored(
        "lem3.7",
        {
            "(ii) Y B: idempotent": "(i) B Y1: idempotent",
            "(ii) Y B: null-space equality": "(i) B Y1: column-space equality",
            "(ii) Y B: column-space equality": "(i) B Y1: null-space equality",
            "(i) B Y: idempotent": "(ii) Y1 B: idempotent",
            "(i) B Y: null-space equality": "(ii) Y1 B: column-space equality",
            "(i) B Y: column-space equality": "(ii) Y1 B: null-space equality",
            "(iii) outer, range, null space": "(iii) outer, range, null space",
        },
    )


def check_unique_projector_solution(
    pair: WeightedPair,
    member,
    Y,
    side: str = "left",
) -> VerificationReport:
    """Uniqueness of the weak MPD / DMP inverse among row-space (resp.
    column-space) constrained solutions of the projector equation.

    The uniqueness condition compares Y against an independently computed
    least-squares path through the same projector. The right side is the left
    side for member^* and Y^* on the dual pair.
    """
    Y = _as_inverse(pair, Y)
    if side == "right":
        Zh = _star(_as_member(pair, member))
        with _right_hand():
            report = check_unique_projector_solution(pair.H, Zh, Y.conj().T)
        return report.mirrored(
            "thm3.8",
            {
                "projector: idempotent": "projector: idempotent",
                "projector: null-space equality": "projector: column-space equality",
                "projector: column-space equality": "projector: null-space equality",
                "column space inside row space of B": "column space inside range of B",
                "uniqueness via least squares": "uniqueness via least squares",
            },
        )
    if side != "left":
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    X = _require_member(pair, member)
    B, W, tol = pair.B, pair.W, pair.tol
    report = VerificationReport("thm3.8", tol)
    K = pair.bw_power(pair.k_bw)
    report.merge(oblique_projector_check(B @ Y, K, X @ W, tol), prefix="projector: ")
    report.add(
        "column space inside row space of B",
        *_exact(Y - _pinv_b(pair) @ Y, Y, tol),
    )
    rcond = tol.rank_rtol * max(B.shape)
    alt = np.linalg.lstsq(B, B @ Y, rcond=rcond)[0]
    report.add_equation("uniqueness via least squares", Y, alt)
    return report


def check_mp_drazin_absorption(pair: WeightedPair, X, Z) -> VerificationReport:
    """The Moore-Penrose factor in both weak inverses can be replaced by the
    corresponding weighted MPD / DMP inverse."""
    X = _require_member(pair, X)
    Z = _as_member(pair, Z)
    with _right_hand():
        _require_member(pair.H, Z.conj().T, checked=True)
    B, W = pair.B, pair.W
    Bp = pair._pinv()
    report = VerificationReport("lem3.10", pair.tol)
    BWXW = B @ W @ X @ W
    report.add_equation(
        "weighted MPD absorbs the MP factor", Bp @ BWXW, _value(pair, w_mpd) @ BWXW
    )
    WZWB = W @ Z @ W @ B
    report.add_equation(
        "weighted DMP absorbs the MP factor", WZWB @ Bp, WZWB @ _value(pair, w_dmp)
    )
    return report


def one_inverse_family(pair: WeightedPair, U, X=None) -> tuple:
    """Q = B^+ + U (I - K K^+) absorbs like B^+ against the stabilized powers
    and the member-weighted product. Returns (Q, report); the {1}-inverse
    residual of Q itself is reported as a note, not asserted."""
    U = as_matrix(U)
    B, W = pair.B, pair.W
    if U.shape != (pair.n, pair.m):
        raise DimensionError(f"U must be {pair.n} x {pair.m}, got {U.shape}")
    if X is None:
        X = _value(pair, w_drazin)
    X = _require_member(pair, X)
    P, P1 = pair._projector("BW", pair.k_bw), pair.bw_power(pair.k_bw + 1)
    Q = pair._pinv() + U @ (np.eye(pair.m) - P)

    report = VerificationReport("thm3.12", pair.tol)
    report.add_equation("power absorption", Q @ P1, _pinv_power(pair))
    report.add_equation(
        "member product absorption", Q @ B @ W @ X @ W, _pinv_b(pair) @ W @ X @ W
    )
    report.note("inner defect of Q", spectral_norm(B @ Q @ B - B))
    return Q, report


def one_inverse_family_right(pair: WeightedPair, U, Z=None) -> tuple:
    """Mirror of the one-sided family: Q = B^+ + (I - N^+ N) U with
    N = (WB)^k, the adjoint of thm3.12's Q on the dual pair."""
    U = as_matrix(U)
    if U.shape != (pair.n, pair.m):
        raise DimensionError(f"U must be {pair.n} x {pair.m}, got {U.shape}")
    Zh = None if Z is None else _star(_as_member(pair, Z))
    with _right_hand():
        Q, report = one_inverse_family(pair.H, U.conj().T, Zh)
    same = {label: label for label in ("power absorption", "member product absorption")}
    return Q.conj().T, report.mirrored("lem3.13", same)


def mpd_general_solution(pair: WeightedPair, X, Zfree) -> tuple:
    """General solution Y = B^+ + Zfree (I - B W X W) of the power identity
    Y (BW)^(k+1) = B^+ (BW)^(k+1). Returns (Y, report)."""
    X = _require_member(pair, X)
    P1 = pair.bw_power(pair.k_bw + 1)
    Zfree = as_matrix(Zfree)
    B, W = pair.B, pair.W
    if Zfree.shape != (pair.n, pair.m):
        raise DimensionError(f"Zfree must be {pair.n} x {pair.m}, got {Zfree.shape}")
    Bp = pair._pinv()
    Y = Bp + Zfree @ (np.eye(pair.m) - B @ W @ X @ W)

    report = VerificationReport("lem3.14", pair.tol)
    report.add_equation("power identity", Y @ P1, _pinv_power(pair))
    return Y, report
