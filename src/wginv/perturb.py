"""Perturbation analysis: admissible perturbations D = B + E of a weighted
pair and the induced updates of the solution families and of the weak MPD and
DMP inverses."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import (
    DEFAULT_TOL,
    GenerationError,
    HypothesisError,
    ToleranceConfig,
    VerificationReport,
    WeightedPair,
    _passes,
    as_matrix,
    mp_inverse,
    projector_onto,
    spectral_norm,
    weighted_pair,
)
from .verify import check_mrwwd, check_mrwwd_right
from .winv import (
    _left_member_residual,
    _right_member_residual,
    w_dmp,
    w_drazin,
    w_mpd,
    weak_dmp,
    weak_mpd,
)

__all__ = [
    "PerturbationScenario",
    "scenario_from_parts",
    "admissible_perturbation",
    "perturbed_mrwwd",
    "perturbed_mrwwd_right",
    "mpd_perturbation",
    "dmp_perturbation",
    "drazin_case_perturbation",
]

LEFT_FLAGS = (
    "range EW in K",
    "range E in EW",
    "rows EW in member product",
    "range E in B",
    "rows E in B",
    "norm WEWX",
    "norm BpE",
)

# The right-hand (DMP) side is written out, not derived from the left-hand one
# on the dual pair (B^*, W^*) as in winv and verify: the duals of these six
# flags are not the seven left-hand ones ("range E in EW" has no right-hand
# counterpart), so a derived chain would require another hypothesis and note
# other flags.
RIGHT_FLAGS = (
    "range WE in member product",
    "rows WE in WB power",
    "range E in B",
    "rows E in B",
    "norm ZWEW",
    "norm EBp",
)


@dataclass(frozen=True)
class PerturbationScenario:
    """A pair, a family member, and a perturbation E with its admissibility
    flags. `flags` records pass/fail, `flag_values` the underlying residual
    or norm; D = B + E."""

    pair: WeightedPair
    member: np.ndarray
    side: str
    E: np.ndarray
    D: np.ndarray
    flags: dict
    flag_values: dict
    alpha: float
    seed: object = None


def _row_residual(A, T, Tp) -> float:
    # distance of the rows of A from the row space of T, with Tp = T^+
    return spectral_norm(A - A @ Tp @ T)


def _col_residual(A, P) -> float:
    # distance of the columns of A from the range of the orthogonal projector P
    return spectral_norm(A - P @ A)


def _left_flags(pair: WeightedPair, X, E, tol: ToleranceConfig) -> tuple:
    B, W = pair.B, pair.W
    Bp = pair._pinv(tol)
    EW = E @ W
    XWBW = X @ W @ B @ W
    values = {
        "range EW in K": _col_residual(EW, pair._projector("BW", pair.k_bw, tol)),
        "range E in EW": _col_residual(E, projector_onto(EW, tol)),
        "rows EW in member product": _row_residual(EW, XWBW, mp_inverse(XWBW, tol)),
        "range E in B": _col_residual(E, B @ Bp),
        "rows E in B": _row_residual(E, B, Bp),
        "norm WEWX": spectral_norm(W @ E @ W @ X),
        "norm BpE": spectral_norm(Bp @ E),
    }
    return _flags(values, E, tol), values


def _right_flags(pair: WeightedPair, Z, E, tol: ToleranceConfig) -> tuple:
    B, W = pair.B, pair.W
    Bp = pair._pinv(tol)
    WE = W @ E
    WBWZ = W @ B @ W @ Z
    N1 = pair.wb_power(pair.k_wb + 1)
    values = {
        "range WE in member product": _col_residual(WE, projector_onto(WBWZ, tol)),
        "rows WE in WB power": _row_residual(WE, N1, mp_inverse(N1, tol)),
        "range E in B": _col_residual(E, B @ Bp),
        "rows E in B": _row_residual(E, B, Bp),
        "norm ZWEW": spectral_norm(Z @ W @ E @ W),
        "norm EBp": spectral_norm(E @ Bp),
    }
    return _flags(values, E, tol), values


def _flags(values: dict, E, tol: ToleranceConfig) -> dict:
    # a norm hypothesis holds below 1, a subspace one at roundoff relative to E
    return {
        name: value < 1.0 if name.startswith("norm") else _passes(value, spectral_norm(E), tol)
        for name, value in values.items()
    }


def scenario_from_parts(
    pair: WeightedPair,
    member,
    E,
    side: str = "left",
    tol: ToleranceConfig = DEFAULT_TOL,
    alpha: float = float("nan"),
    seed=None,
) -> PerturbationScenario:
    """Wrap explicit parts into a scenario, computing flags without rejecting
    anything. Used for negative cases as well as hand-built ones."""
    member = as_matrix(member)
    E = as_matrix(E)
    if E.shape != (pair.m, pair.n):
        raise ValueError(f"E must be {pair.m} x {pair.n}, got {E.shape}")
    if side == "left":
        flags, values = _left_flags(pair, member, E, tol)
    elif side == "right":
        flags, values = _right_flags(pair, member, E, tol)
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return PerturbationScenario(
        pair=pair,
        member=member,
        side=side,
        E=E,
        D=pair.B + E,
        flags=flags,
        flag_values=values,
        alpha=float(alpha),
        seed=seed,
    )


def admissible_perturbation(
    pair: WeightedPair,
    member,
    alpha: float,
    seed=None,
    side: str = "left",
    family: str = "closed",
    tol: ToleranceConfig = DEFAULT_TOL,
) -> PerturbationScenario:
    """Construct an admissible E of size roughly alpha.

    The closed family is (BW)^k B scaled; the random family inserts a seeded
    Gaussian factor while keeping both subspace constraints by construction.
    The norm conditions are retried by halving alpha (at most 20 times); the
    subspace flags do not depend on the scale, so a failure there is final.
    """
    member = as_matrix(member)
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    B, W = pair.B, pair.W
    if side == "left":
        ok, residual, rank_gap = _left_member_residual(pair, member, tol)
        k = pair.k_bw
    elif side == "right":
        ok, residual, rank_gap = _right_member_residual(pair, member, tol)
        k = pair.k_wb
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if not ok:
        raise HypothesisError(
            f"member fails its family equation (residual {residual:.3e}, rank gap {rank_gap})"
        )

    rng = np.random.default_rng(seed)
    if family == "closed":
        E0 = pair.bw_power(k) @ B
    elif family == "random":
        if side == "left":
            G = rng.standard_normal((pair.m, pair.m)) / np.sqrt(pair.m)
            E0 = pair.bw_power(k) @ G @ member @ W @ B
        else:
            G = rng.standard_normal((pair.n, pair.n)) / np.sqrt(pair.n)
            E0 = B @ W @ member @ G @ pair.wb_power(k)
    else:
        raise ValueError(f"family must be 'closed' or 'random', got {family!r}")

    scale = spectral_norm(E0)
    if scale > 0.0:
        E0 = E0 / scale

    a = float(alpha)
    scenario = scenario_from_parts(pair, member, a * E0, side, tol, alpha=a, seed=seed)
    bad_subspace = [
        name
        for name, good in scenario.flags.items()
        if not good and not name.startswith("norm")
    ]
    if bad_subspace:
        raise GenerationError(
            f"subspace conditions cannot be met for this member: {bad_subspace}"
        )
    for _ in range(20):
        norms = {
            name: value
            for name, value in scenario.flag_values.items()
            if name.startswith("norm")
        }
        if all(value <= 0.5 for value in norms.values()):
            return scenario
        a /= 2.0
        scenario = scenario_from_parts(pair, member, a * E0, side, tol, alpha=a, seed=seed)
    raise GenerationError("norm conditions still above 1/2 after 20 halvings")


def _require_flags(scenario: PerturbationScenario, names) -> None:
    bad = [name for name in names if not scenario.flags[name]]
    if bad:
        raise HypothesisError(f"scenario violates hypotheses: {bad}")


def _inv(Mat, what: str) -> np.ndarray:
    try:
        return np.linalg.inv(Mat)
    except np.linalg.LinAlgError as exc:
        raise HypothesisError(f"{what} is singular, the update series diverges") from exc


def _note_flags(report: VerificationReport, scenario: PerturbationScenario) -> None:
    for name, value in scenario.flag_values.items():
        report.note(f"flag {name}", value)
    if not np.isnan(scenario.alpha):
        report.note("alpha", scenario.alpha)


def perturbed_mrwwd(
    scenario: PerturbationScenario,
    tol: ToleranceConfig = DEFAULT_TOL,
    require_hypotheses: bool = True,
) -> VerificationReport:
    """Stability of the left family: the updated member X (I + WEWX)^-1
    belongs to the perturbed pair's family and satisfies both inverse-free
    product identities."""
    if scenario.side != "left":
        raise ValueError("left-family perturbation needs a left scenario")
    if require_hypotheses:
        _require_flags(scenario, ["range EW in K", "rows EW in member product", "norm WEWX"])
    pair = scenario.pair
    B, W, E, D = pair.B, pair.W, scenario.E, scenario.D
    X = scenario.member
    n_id = np.eye(pair.n, dtype=complex)
    m_id = np.eye(pair.m, dtype=complex)

    Xp = X @ _inv(n_id + W @ E @ W @ X, "I + WEWX")
    dpair = weighted_pair(D, W, tol)

    report = VerificationReport("thm3.17", tol)
    report.merge(check_mrwwd(dpair, Xp, tol), prefix="updated member: ")
    report.add_equation("product identity", Xp @ W @ D @ W, X @ W @ B @ W)
    report.add_equation(
        "mirrored product identity",
        W @ D @ W @ _inv(m_id + X @ W @ E @ W, "I + XWEW") @ X,
        W @ B @ W @ X,
    )
    _note_flags(report, scenario)
    return report


def perturbed_mrwwd_right(
    scenario: PerturbationScenario,
    tol: ToleranceConfig = DEFAULT_TOL,
    require_hypotheses: bool = True,
) -> VerificationReport:
    """Mirrored stability statement for the right family."""
    if scenario.side != "right":
        raise ValueError("right-family perturbation needs a right scenario")
    if require_hypotheses:
        _require_flags(
            scenario, ["range WE in member product", "rows WE in WB power", "norm ZWEW"]
        )
    pair = scenario.pair
    B, W, E, D = pair.B, pair.W, scenario.E, scenario.D
    Z = scenario.member
    m_id = np.eye(pair.m, dtype=complex)

    lead = _inv(m_id + Z @ W @ E @ W, "I + ZWEW")
    Zp = lead @ Z
    dpair = weighted_pair(D, W, tol)

    report = VerificationReport("thm3.18", tol)
    report.merge(check_mrwwd_right(dpair, Zp, tol), prefix="updated member: ")
    report.add_equation("product identity", lead @ Z @ W @ D @ W, Z @ W @ B @ W)
    report.add_equation("mirrored product identity", W @ D @ W @ lead @ Z, W @ B @ W @ Z)
    _note_flags(report, scenario)
    return report


def _sandwich(report: VerificationReport, label: str, center: float, base: float, shift: float, tol: ToleranceConfig) -> None:
    # base/(1+shift) <= center <= base/(1-shift), the upper bound only when
    # the series converges
    lower = base / (1.0 + shift)
    slack = tol.residual_atol * (1.0 + base)
    report.add(f"{label} lower bound", max(0.0, lower - center), lower - center <= slack)
    if shift < 1.0:
        upper = base / (1.0 - shift)
        report.add(f"{label} upper bound", max(0.0, center - upper), center - upper <= slack)
    else:
        report.add(f"{label} upper bound", float("inf"), False)


def mpd_perturbation(
    scenario: PerturbationScenario,
    tol: ToleranceConfig = DEFAULT_TOL,
    require_hypotheses: bool = True,
) -> VerificationReport:
    """Three representations of the perturbed product D^+ (weak MPD chain)
    agree, the recovery identity holds, and the norm sandwich brackets it."""
    if scenario.side != "left":
        raise ValueError("the MPD chain needs a left scenario")
    if require_hypotheses:
        _require_flags(scenario, LEFT_FLAGS)
    pair = scenario.pair
    B, W, E, D = pair.B, pair.W, scenario.E, scenario.D
    X = scenario.member
    n_id = np.eye(pair.n, dtype=complex)
    m_id = np.eye(pair.m, dtype=complex)

    Bp = pair._pinv(tol)
    Dp = mp_inverse(D, tol)
    Y = weak_mpd(pair, X, tol).value
    T1 = Dp @ X @ _inv(n_id + W @ E @ W @ X, "I + WEWX") @ W @ D @ W @ X
    T2 = Dp @ X @ W @ D @ W @ _inv(m_id + X @ W @ E @ W, "I + XWEW") @ X
    T3 = _inv(n_id + Y @ E, "I + YE") @ Y @ X

    report = VerificationReport("thm3.19", tol)
    report.add_equation("representation T1 = T2", T1, T2)
    report.add_equation("representation T1 = T3", T1, T3)
    report.add_equation("recovery D T1 = B Y X", D @ T1, B @ Y @ X)
    report.add_equation("MP update identity", Dp, _inv(n_id + Bp @ E, "I + BpE") @ Bp)
    dpair = weighted_pair(D, W, tol)
    report.add_rank_gap(
        "stabilized rank preserved",
        dpair._rank("BW", pair.k_bw, tol),
        pair._rank("BW", pair.k_bw, tol),
    )
    shift = spectral_norm(Y @ E)
    base = spectral_norm(Y @ X)
    _sandwich(report, "sandwich", spectral_norm(T1), base, shift, tol)
    report.note("norm YE", shift)
    report.note("norm YX", base)
    _note_flags(report, scenario)
    return report


def dmp_perturbation(
    scenario: PerturbationScenario,
    tol: ToleranceConfig = DEFAULT_TOL,
    require_hypotheses: bool = True,
) -> VerificationReport:
    """Mirrored perturbation chain for the weak DMP inverse."""
    if scenario.side != "right":
        raise ValueError("the DMP chain needs a right scenario")
    if require_hypotheses:
        _require_flags(scenario, RIGHT_FLAGS)
    pair = scenario.pair
    B, W, E, D = pair.B, pair.W, scenario.E, scenario.D
    Z = scenario.member
    n_id = np.eye(pair.n, dtype=complex)
    m_id = np.eye(pair.m, dtype=complex)

    Bp = pair._pinv(tol)
    Dp = mp_inverse(D, tol)
    Y1 = weak_dmp(pair, Z, tol).value
    inner = _inv(m_id + Z @ W @ E @ W, "I + ZWEW")
    G1 = Z @ W @ D @ W @ inner @ Z @ Dp
    G2 = Z @ W @ D @ W @ Z @ _inv(n_id + W @ E @ W @ Z, "I + WEWZ") @ Dp
    G3 = Z @ Y1 @ _inv(m_id + E @ Y1, "I + EY1")

    report = VerificationReport("thm3.20", tol)
    report.add_equation("representation G1 = G2", G1, G2)
    report.add_equation("representation G1 = G3", G1, G3)
    report.add_equation("recovery G1-core D^+ D = Z Y1 B", Z @ W @ D @ W @ inner @ Z @ Dp @ D, Z @ Y1 @ B)
    report.add_equation("MP update identity", Dp, Bp @ _inv(m_id + E @ Bp, "I + EBp"))
    dpair = weighted_pair(D, W, tol)
    report.add_rank_gap(
        "stabilized rank preserved",
        dpair._rank("WB", pair.k_wb, tol),
        pair._rank("WB", pair.k_wb, tol),
    )
    shift = spectral_norm(E @ Y1)
    base = spectral_norm(Z @ Y1)
    _sandwich(report, "sandwich", spectral_norm(G1), base, shift, tol)
    report.note("norm EY1", shift)
    report.note("norm ZY1", base)
    _note_flags(report, scenario)
    return report


def drazin_case_perturbation(
    scenario: PerturbationScenario,
    tol: ToleranceConfig = DEFAULT_TOL,
    theorem_id: str = "cor-mpd",
) -> VerificationReport:
    """Specialization to the weighted Drazin member: the weighted MPD and DMP
    inverses update by the same resolvent formulas as the Moore-Penrose
    inverse, and their projectors transport unchanged."""
    pair = scenario.pair
    B, W, E, D = pair.B, pair.W, scenario.E, scenario.D
    Xd = w_drazin(pair, tol).value
    gap = spectral_norm(scenario.member - Xd)
    if not _passes(gap, spectral_norm(Xd), tol):
        raise HypothesisError(
            f"scenario member is not the weighted Drazin inverse (gap {gap:.3e})"
        )
    n_id = np.eye(pair.n, dtype=complex)
    m_id = np.eye(pair.m, dtype=complex)
    dpair = weighted_pair(D, W, tol)

    report = VerificationReport(theorem_id, tol)

    Ympd = w_mpd(pair, tol).value
    Dmpd = w_mpd(dpair, tol).value
    v_mpd = spectral_norm(Ympd @ E)
    report.add("mpd: norm hypothesis", v_mpd, v_mpd < 1.0)
    report.add_equation("mpd: resolvent update", Dmpd, _inv(n_id + Ympd @ E, "I + Ympd E") @ Ympd)
    report.add_equation("mpd: dual resolvent update", Dmpd, Ympd @ _inv(m_id + E @ Ympd, "I + E Ympd"))
    report.add_equation("mpd: image projector transport", D @ Dmpd, B @ Ympd)
    report.add_equation("mpd: coimage projector transport", Dmpd @ D, Ympd @ B)
    _sandwich(report, "mpd: sandwich", spectral_norm(Dmpd), spectral_norm(Ympd), v_mpd, tol)

    Ydmp = w_dmp(pair, tol).value
    Ddmp = w_dmp(dpair, tol).value
    v_dmp = spectral_norm(E @ Ydmp)
    report.add("dmp: norm hypothesis", v_dmp, v_dmp < 1.0)
    report.add_equation("dmp: resolvent update", Ddmp, Ydmp @ _inv(m_id + E @ Ydmp, "I + E Ydmp"))
    report.add_equation("dmp: dual resolvent update", Ddmp, _inv(n_id + Ydmp @ E, "I + Ydmp E") @ Ydmp)
    report.add_equation("dmp: image projector transport", Ddmp @ D, Ydmp @ B)
    report.add_equation("dmp: coimage projector transport", D @ Ddmp, B @ Ydmp)
    _sandwich(report, "dmp: sandwich", spectral_norm(Ddmp), spectral_norm(Ydmp), v_dmp, tol)

    report.note("stated norm form", spectral_norm(w_drazin(pair, tol).value @ W @ B @ W))
    _note_flags(report, scenario)
    return report
