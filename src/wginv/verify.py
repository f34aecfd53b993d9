"""Residual checkers for the characterization, projector, and solution-family
statements. Each checker returns a VerificationReport whose conditions carry
the worst raw residual of the item they certify."""

from __future__ import annotations

import numpy as np

from .matcore import (
    DEFAULT_TOL,
    ToleranceConfig,
    VerificationReport,
    WeightedPair,
    _null_eqc,
    _passes,
    _range_eqc,
    as_matrix,
    mp_inverse,
    oblique_projector_check,
    projector_onto,
    rank_of,
    spectral_norm,
)
from .sqinv import drazin
from .winv import (
    _as_member,
    _left_member_residual,
    _require_member,
    _right_hand,
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


def _eqc(lhs, rhs, tol: ToleranceConfig) -> tuple:
    r = spectral_norm(np.asarray(lhs) - np.asarray(rhs))
    return r, _passes(r, spectral_norm(rhs), tol)


def _rank_eqc(r1: int, r2: int) -> tuple:
    gap = float(abs(int(r1) - int(r2)))
    return gap, gap == 0.0


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


def check_mrwwd(
    pair: WeightedPair, X, tol: ToleranceConfig = DEFAULT_TOL, power: int | None = None
) -> VerificationReport:
    """Seven equivalent characterizations of membership in the left family of
    X W (BW)^(k+1) = (BW)^k at rank((BW)^k)."""
    X = as_matrix(X)
    B, W = pair.B, pair.W
    k = pair.k_bw if power is None else int(power)
    K = pair.bw_power(k)
    M = W @ pair.bw_power(k + 1)
    BW = pair.bw()

    report = VerificationReport("thm2.1", tol)
    eq = _eqc(X @ M, K, tol)
    rank = _rank_eqc(rank_of(X, tol), rank_of(K, tol))
    rng = _range_eqc(X, K, tol)

    _item(report, "(i) power equation, rank", [eq, rank])
    _item(report, "(ii) power equation, range", [eq, rng])
    _item(report, "(iii) outer inverse, range", [_eqc(X @ W @ B @ W @ X, X, tol), rng])
    _item(report, "(iv) core projector fixes X", [_eqc(projector_onto(K, tol) @ X, X, tol), eq])
    _item(report, "(v) power equation, rank, range", [eq, rank, rng])
    _item(report, "(vi) left absorption", [_eqc(B @ W @ X @ W @ X, X, tol), eq])
    _item(
        report,
        "(vii) Drazin projector fixes X",
        [_eqc(drazin(BW, tol).value @ BW @ X, X, tol), eq],
    )
    return report


def check_mrwwd_right(
    pair: WeightedPair, Z, tol: ToleranceConfig = DEFAULT_TOL, power: int | None = None
) -> VerificationReport:
    """Mirrored characterizations for the right family (WB)^(k+1) W Z-side
    equation M Z = N with N = (WB)^k.

    Kept by hand rather than derived from check_mrwwd on the dual pair: its
    null-space test is a stacked rank (3 SVDs), where the dual's range test is
    a projector residual (6 SVDs), and it runs on every perturbed right member.
    """
    Z = as_matrix(Z)
    B, W = pair.B, pair.W
    k = pair.k_wb if power is None else int(power)
    N = pair.wb_power(k)
    M = W @ pair.bw_power(k + 1)
    WB = pair.wb()

    report = VerificationReport("thm2.8", tol)
    eq = _eqc(M @ Z, N, tol)
    rank = _rank_eqc(rank_of(Z, tol), rank_of(N, tol))
    nul = _null_eqc(Z, N, tol)

    _item(report, "(i) power equation, rank", [eq, rank])
    _item(report, "(ii) power equation, null space", [eq, nul])
    _item(report, "(iii) outer inverse, null space", [_eqc(Z @ W @ B @ W @ Z, Z, tol), nul])
    _item(
        report,
        "(iv) row projector fixes Z",
        [_eqc(Z @ mp_inverse(N, tol) @ N, Z, tol), eq],
    )
    _item(report, "(v) power equation, rank, null space", [eq, rank, nul])
    _item(report, "(vi) right absorption", [_eqc(Z @ W @ Z @ W @ B, Z, tol), eq])
    _item(
        report,
        "(vii) Drazin projector fixes Z",
        [_eqc(Z @ drazin(WB, tol).value @ WB, Z, tol), eq],
    )
    return report


def check_weak_mpd_system(
    pair: WeightedPair, X, Y, tol: ToleranceConfig = DEFAULT_TOL
) -> VerificationReport:
    """The three-equation system whose unique solution is the weak MPD inverse
    B^+ B W X W of the member X."""
    X = as_matrix(X)
    Y = as_matrix(Y)
    B, W = pair.B, pair.W
    k = pair.k_bw
    Bp = mp_inverse(B, tol)
    P1 = pair.bw_power(k + 1)

    report = VerificationReport("thm3.1", tol)
    _, m_res, m_gap = _left_member_residual(pair, X, tol)
    _item(report, "X in left family", [( m_res, _passes(m_res, spectral_norm(pair.bw_power(k)), tol)), (float(m_gap), m_gap == 0)])
    report.add_equation("outer: Y B Y = Y", Y @ B @ Y, Y)
    report.add_equation("image: B Y = B W X W", B @ Y, B @ W @ X @ W)
    report.add_equation("power: Y (BW)^(k+1) = B^+ (BW)^(k+1)", Y @ P1, Bp @ P1)
    report.add_equation("uniqueness: Y = B^+ B W X W", Y, Bp @ B @ W @ X @ W)
    return report


def check_weak_dmp_system(
    pair: WeightedPair, Z, Y1, tol: ToleranceConfig = DEFAULT_TOL
) -> VerificationReport:
    """Mirrored system for the weak DMP inverse W Z W B B^+: thm3.1 on the
    dual pair."""
    report = check_weak_mpd_system(pair.H, _star(_as_member(pair, Z)), _star(Y1), tol)
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


def check_mpd_characterizations(
    pair: WeightedPair, X, Y, tol: ToleranceConfig = DEFAULT_TOL
) -> VerificationReport:
    """Seven equivalent descriptions of the weak MPD inverse of member X."""
    X = as_matrix(X)
    Y = as_matrix(Y)
    B, W = pair.B, pair.W
    k = pair.k_bw
    Bp = mp_inverse(B, tol)
    BWXW = B @ W @ X @ W
    P1 = pair.bw_power(k + 1)

    report = VerificationReport("thm3.3", tol)
    outer = _eqc(Y @ B @ Y, Y, tol)
    image = _eqc(B @ Y, BWXW, tol)
    power = _eqc(Y @ P1, Bp @ P1, tol)
    left_abs = _eqc(Y @ B, Bp @ B @ Y @ B, tol)
    mp_fix = _eqc(Y, Bp @ B @ Y, tol)

    _item(report, "(i) direct formula", [_eqc(Y, Bp @ BWXW, tol)])
    _item(
        report,
        "(ii) outer, sandwich, image, power",
        [outer, _eqc(B @ Y @ B, BWXW @ B, tol), image, power],
    )
    _item(report, "(iii) outer, image, left absorption", [outer, image, left_abs])
    _item(report, "(iv) image, left absorption, MP fix", [image, left_abs, mp_fix])
    _item(
        report,
        "(v) outer, image, power, member absorption",
        [outer, image, power, _eqc(Y @ X, Bp @ X, tol)],
    )
    _item(
        report,
        "(vi) MP fix, image, member sandwich",
        [mp_fix, image, _eqc(Y @ X @ Bp, Bp @ X @ Bp, tol)],
    )
    _item(
        report,
        "(vii) MP fix, image, weighted member absorption",
        [mp_fix, image, _eqc(Y @ X @ W @ B, Bp @ X @ W @ B, tol)],
    )
    return report


def check_dmp_characterizations(
    pair: WeightedPair, Z, Y1, tol: ToleranceConfig = DEFAULT_TOL
) -> VerificationReport:
    """Mirrored descriptions of the weak DMP inverse of member Z: thm3.3 on
    the dual pair, where left absorption becomes right absorption."""
    report = check_mpd_characterizations(pair.H, _star(Z), _star(Y1), tol)
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


def check_wdrazin_specialization(
    pair: WeightedPair, tol: ToleranceConfig = DEFAULT_TOL
) -> VerificationReport:
    """The characterizations specialized to the weighted Drazin member, where
    the weak MPD inverse collapses to the weighted MPD inverse."""
    X = w_drazin(pair, tol).value
    Y = weak_mpd(pair, X, tol).value
    inner = check_mpd_characterizations(pair, X, Y, tol)
    report = VerificationReport("thm3.5", tol)
    report.merge(inner)
    report.add_equation("weak MPD equals weighted MPD", Y, w_mpd(pair, tol).value)
    return report


def check_projectors(
    pair: WeightedPair, X, Y=None, tol: ToleranceConfig = DEFAULT_TOL
) -> VerificationReport:
    """B Y and Y B as oblique projectors determined by the member X, plus the
    range and null space of Y itself."""
    X = _require_member(pair, X, tol)
    B, W = pair.B, pair.W
    if Y is None:
        Y = weak_mpd(pair, X, tol).value
    Y = as_matrix(Y)
    k = pair.k_bw
    K = pair.bw_power(k)
    col_gen = mp_inverse(B, tol) @ pair.bw_power(k + 1)

    report = VerificationReport("lem3.6", tol)
    report.merge(oblique_projector_check(B @ Y, K, X @ W, tol), prefix="(i) B Y: ")
    report.merge(
        oblique_projector_check(Y @ B, col_gen, X @ W @ B, tol), prefix="(ii) Y B: "
    )
    outer = _eqc(Y @ B @ Y, Y, tol)
    rng = _range_eqc(Y, col_gen, tol)
    nul = _null_eqc(Y, X @ W, tol)
    _item(report, "(iii) outer, range, null space", [outer, rng, nul])
    return report


def check_projectors_right(
    pair: WeightedPair, Z, Y1=None, tol: ToleranceConfig = DEFAULT_TOL
) -> VerificationReport:
    """Mirrored projector geometry for the weak DMP inverse of member Z:
    lem3.6 on the dual pair. B Y1 is the adjoint of the dual's Y B and Y1 B of
    its B Y, and an adjoint turns a column space into a null space."""
    Zh = _star(_as_member(pair, Z))
    with _right_hand():
        report = check_projectors(pair.H, Zh, _star(Y1), tol)
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
    tol: ToleranceConfig = DEFAULT_TOL,
    side: str = "left",
) -> VerificationReport:
    """Uniqueness of the weak MPD / DMP inverse among row-space (resp.
    column-space) constrained solutions of the projector equation.

    The uniqueness condition compares Y against an independently computed
    least-squares path through the same projector. The right side is the left
    side for member^* and Y^* on the dual pair.
    """
    Y = as_matrix(Y)
    if side == "right":
        Zh = _star(_as_member(pair, member))
        with _right_hand():
            report = check_unique_projector_solution(pair.H, Zh, Y.conj().T, tol)
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
    X = _require_member(pair, member, tol)
    B, W = pair.B, pair.W
    K = pair.bw_power(pair.k_bw)
    report = VerificationReport("thm3.8", tol)
    report.merge(oblique_projector_check(B @ Y, K, X @ W, tol), prefix="projector: ")
    r_row = spectral_norm(Y - projector_onto(B.conj().T, tol) @ Y)
    report.add(
        "column space inside row space of B", r_row, _passes(r_row, spectral_norm(Y), tol)
    )
    rcond = tol.rank_rtol * max(B.shape)
    alt = np.linalg.lstsq(B, B @ Y, rcond=rcond)[0]
    report.add_equation("uniqueness via least squares", Y, alt)
    return report


def check_mp_drazin_absorption(
    pair: WeightedPair, X, Z, tol: ToleranceConfig = DEFAULT_TOL
) -> VerificationReport:
    """The Moore-Penrose factor in both weak inverses can be replaced by the
    corresponding weighted MPD / DMP inverse."""
    X = _require_member(pair, X, tol)
    Z = _as_member(pair, Z)
    with _right_hand():
        _require_member(pair.H, Z.conj().T, tol)
    B, W = pair.B, pair.W
    Bp = mp_inverse(B, tol)
    report = VerificationReport("lem3.10", tol)
    BWXW = B @ W @ X @ W
    report.add_equation(
        "weighted MPD absorbs the MP factor", Bp @ BWXW, w_mpd(pair, tol).value @ BWXW
    )
    WZWB = W @ Z @ W @ B
    report.add_equation(
        "weighted DMP absorbs the MP factor", WZWB @ Bp, WZWB @ w_dmp(pair, tol).value
    )
    return report


def one_inverse_family(
    pair: WeightedPair, U, tol: ToleranceConfig = DEFAULT_TOL, X=None
) -> tuple:
    """Q = B^+ + U (I - K K^+) absorbs like B^+ against the stabilized powers
    and the member-weighted product. Returns (Q, report); the {1}-inverse
    residual of Q itself is reported as a note, not asserted."""
    U = as_matrix(U)
    B, W = pair.B, pair.W
    if U.shape != (pair.n, pair.m):
        raise ValueError(f"U must be {pair.n} x {pair.m}, got {U.shape}")
    if X is None:
        X = w_drazin(pair, tol).value
    X = _require_member(pair, X, tol)
    k = pair.k_bw
    Bp = mp_inverse(B, tol)
    K = pair.bw_power(k)
    Q = Bp + U @ (np.eye(pair.m, dtype=complex) - projector_onto(K, tol))
    P1 = pair.bw_power(k + 1)

    report = VerificationReport("thm3.12", tol)
    report.add_equation("power absorption", Q @ P1, Bp @ P1)
    report.add_equation("member product absorption", Q @ B @ W @ X @ W, Bp @ B @ W @ X @ W)
    report.note("inner defect of Q", spectral_norm(B @ Q @ B - B))
    return Q, report


def one_inverse_family_right(
    pair: WeightedPair, U, tol: ToleranceConfig = DEFAULT_TOL, Z=None
) -> tuple:
    """Mirror of the one-sided family: Q = B^+ + (I - N^+ N) U with
    N = (WB)^k, the adjoint of thm3.12's Q on the dual pair."""
    U = as_matrix(U)
    if U.shape != (pair.n, pair.m):
        raise ValueError(f"U must be {pair.n} x {pair.m}, got {U.shape}")
    Zh = None if Z is None else _star(_as_member(pair, Z))
    with _right_hand():
        Q, report = one_inverse_family(pair.H, U.conj().T, tol, Zh)
    same = {label: label for label in ("power absorption", "member product absorption")}
    return Q.conj().T, report.mirrored("lem3.13", same)


def mpd_general_solution(
    pair: WeightedPair, X, Zfree, tol: ToleranceConfig = DEFAULT_TOL
) -> tuple:
    """General solution Y = B^+ + Zfree (I - B W X W) of the power identity
    Y (BW)^(k+1) = B^+ (BW)^(k+1). Returns (Y, report)."""
    X = _require_member(pair, X, tol)
    Zfree = as_matrix(Zfree)
    B, W = pair.B, pair.W
    if Zfree.shape != (pair.n, pair.m):
        raise ValueError(f"Zfree must be {pair.n} x {pair.m}, got {Zfree.shape}")
    k = pair.k_bw
    Bp = mp_inverse(B, tol)
    Y = Bp + Zfree @ (np.eye(pair.m, dtype=complex) - B @ W @ X @ W)
    P1 = pair.bw_power(k + 1)

    report = VerificationReport("lem3.14", tol)
    report.add_equation("power identity", Y @ P1, Bp @ P1)
    return Y, report
