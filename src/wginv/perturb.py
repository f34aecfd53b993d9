"""Perturbation analysis: admissible perturbations D = B + E of a weighted
pair and the induced updates of the solution families and of the weak MPD and
DMP inverses."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .matcore import (
    DEFAULT_TOL,
    GenerationError,
    HypothesisError,
    ToleranceConfig,
    VerificationReport,
    WeightedPair,
    _exact,
    _passes,
    _read_only,
    as_matrix,
    mp_inverse,
    projector_onto,
    spectral_norm,
    weighted_pair,
)
from .verify import _MRWWD_RIGHT_LABELS, check_mrwwd
from .winv import (
    _as_member,
    _require_member,
    _right_hand,
    _value,
    w_drazin,
    w_mpd,
    weak_mpd,
)

__all__ = [
    "PerturbationScenario",
    "admissible_perturbation",
    "perturbed_mrwwd",
    "perturbed_mrwwd_right",
    "mpd_perturbation",
    "dmp_perturbation",
    "drazin_case_perturbation",
]

# The right-hand (DMP) side is the left-hand one on the dual scenario
# (B^*, W^*, Z^*, E^*, D^*), as in winv and verify: each right-hand flag is
# the left-hand flag of the dual named here. "range E in EW" has no
# right-hand counterpart, so it is taken for left scenarios only.
RIGHT_OF = {
    "range WE in member product": "rows EW in member product",
    "rows WE in WB power": "range EW in K",
    "range E in B": "rows E in B",
    "rows E in B": "range E in B",
    "norm ZWEW": "norm WEWX",
    "norm EBp": "norm BpE",
}


@dataclass(frozen=True)
class PerturbationScenario:
    """A pair, a member of its left or right family, a perturbation E of B
    and the alpha E was drawn at (NaN if none). However it is built, the
    scenario refuses a bad side or shape and keeps read-only copies of member
    and E, which no write of the caller reaches. It holds only these parts:
    D = B + E, the pair (D, W) and the admissibility flags are read from them
    when a chain asks, once per tolerance, and every chain on the scenario
    shares them. A scenario with a part replaced is decided anew."""

    pair: WeightedPair
    member: np.ndarray
    side: str
    E: np.ndarray
    alpha: float = float("nan")

    def __post_init__(self):
        pair = self.pair
        member = _as_member(pair, self.member)
        E = as_matrix(self.E)
        if E.shape != (pair.m, pair.n):
            raise ValueError(f"E must be {pair.m} x {pair.n}, got {E.shape}")
        if self.side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {self.side!r}")
        object.__setattr__(self, "member", _read_only(member.copy(order="K")))
        object.__setattr__(self, "E", _read_only(E.copy(order="K")))

    @property
    def D(self) -> np.ndarray:
        return self.pair.B + self.E

    @cached_property
    def _memo(self) -> dict:
        return {}

    def _dpair(self, tol: ToleranceConfig) -> WeightedPair:
        """The pair (D, W) of the perturbed matrix."""
        if ("D", tol) not in self._memo:
            self._memo["D", tol] = weighted_pair(self.D, self.pair.W, tol)
        return self._memo["D", tol]

    def _flags(self, tol: ToleranceConfig) -> dict:
        """{flag: (value, pass)}, the value the residual or norm it judges. A
        right scenario's flags are the left-hand flags of its dual, under
        their names in RIGHT_OF."""
        if ("flags", tol) not in self._memo:
            left = _as_left(self.pair, self.member, self.E, self.side)
            rows = _left_flags(*left, tol, own_range=self.side == "left")
            if self.side == "right":
                rows = {name: rows[of] for name, of in RIGHT_OF.items()}
            self._memo["flags", tol] = rows
        return self._memo["flags", tol]


def _norm_flag(A) -> tuple:
    # a norm hypothesis holds below 1
    value = spectral_norm(A)
    return value, value < 1.0


# A subspace hypothesis holds at roundoff relative to E: each flag is the
# exact residual of the columns (rows) of A against the range (row space) it
# must lie in, A - P A with P the orthogonal projector (A - A T^+ T), read
# from the pair when T is a power of BW or WB.


def _left_norm_flags(pair: WeightedPair, X, E, tol: ToleranceConfig) -> dict:
    W, Bp = pair.W, pair._pinv(tol)
    return {"norm WEWX": _norm_flag(W @ E @ W @ X), "norm BpE": _norm_flag(Bp @ E)}


def _as_left(pair: WeightedPair, member, E, side: str) -> tuple:
    """(pair, member, E) of a left scenario, or of the dual of a right one."""
    if side == "left":
        return pair, member, E
    return pair.H, member.conj().T, E.conj().T


def _left_flags(pair: WeightedPair, X, E, tol: ToleranceConfig, own_range: bool = True) -> dict:
    """The left-hand flags, "range E in EW" only if `own_range`."""
    B, W = pair.B, pair.W
    Bp = pair._pinv(tol)
    EW = E @ W
    XWBW = X @ W @ B @ W
    P = pair._projector("BW", pair.k_bw, tol)
    flags = {"range EW in K": _exact(EW - P @ EW, E, tol)}
    if own_range:
        flags["range E in EW"] = _exact(E - projector_onto(EW, tol) @ E, E, tol)
    return flags | {
        "rows EW in member product": _exact(EW - EW @ mp_inverse(XWBW, tol) @ XWBW, E, tol),
        "range E in B": _exact(E - B @ Bp @ E, E, tol),
        "rows E in B": _exact(E - E @ Bp @ B, E, tol),
        **_left_norm_flags(pair, X, E, tol),
    }


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

    The closed family is (BW)^k B scaled; the random family inserts a
    Gaussian factor drawn from `seed` while keeping both subspace constraints
    by construction. The norm conditions are retried by halving alpha (at
    most 20 times); the subspace flags do not depend on the scale, so a
    failure there is final, and only the norm flags are judged again while
    halving. At the alpha that passes, the scenario is made anew of its parts
    alone; it keeps alpha, not the seed.
    """
    if not 0.0 <= alpha < np.inf:
        raise ValueError("alpha must be finite and nonnegative")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    member = _as_member(pair, member)
    if side == "left":
        _require_member(pair, member, tol)
    else:
        with _right_hand():
            _require_member(pair.H, member.conj().T, tol)
    B, W = pair.B, pair.W
    k = pair.k_bw if side == "left" else pair.k_wb

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
    scenario = PerturbationScenario(pair, member, side, a * E0, alpha=a)
    flags = scenario._flags(tol)
    bad_subspace = [
        name
        for name, (_, good) in flags.items()
        if not good and not name.startswith("norm")
    ]
    if bad_subspace:
        raise GenerationError(
            f"subspace conditions cannot be met for this member: {bad_subspace}"
        )
    norms = [value for name, (value, _) in flags.items() if name.startswith("norm")]
    for halvings in range(20):
        if all(value <= 0.5 for value in norms):
            if halvings == 0:
                return scenario
            return PerturbationScenario(pair, member, side, a * E0, alpha=a)
        a /= 2.0
        left = _as_left(pair, member, a * E0, side)
        norms = [value for value, _ in _left_norm_flags(*left, tol).values()]
    raise GenerationError("norm conditions still above 1/2 after 20 halvings")


def _require_flags(scenario: PerturbationScenario, tol: ToleranceConfig, *names) -> None:
    """Refuse a scenario that fails any of the named flags (every flag when
    none is named), decided at `tol`."""
    flags = scenario._flags(tol)
    bad = [name for name in names or flags if not flags[name][1]]
    if bad:
        raise HypothesisError(f"scenario violates hypotheses: {bad}")


def _inv(Mat, what: str) -> np.ndarray:
    try:
        return np.linalg.inv(Mat)
    except np.linalg.LinAlgError as exc:
        raise HypothesisError(f"{what} is singular, the update series diverges") from exc


def _note_flags(
    report: VerificationReport, scenario: PerturbationScenario, tol: ToleranceConfig
) -> None:
    for name, (value, _) in scenario._flags(tol).items():
        report.note(f"flag {name}", value)
    if not np.isnan(scenario.alpha):
        report.note("alpha", scenario.alpha)


def _dual(scenario: PerturbationScenario, tol: ToleranceConfig) -> PerturbationScenario:
    """The left scenario (B^*, W^*, Z^*, E^*) of a right scenario, whose
    D = B^* + E^* is bitwise (B + E)^*. Its pair of D is the dual of the
    scenario's, so nothing is factored again."""
    pair, member, E = _as_left(scenario.pair, scenario.member, scenario.E, scenario.side)
    dual = replace(scenario, pair=pair, member=member, side="left", E=E)
    dual._memo["D", tol] = scenario._dpair(tol).H
    return dual


def _stability(scenario: PerturbationScenario, tol: ToleranceConfig) -> VerificationReport:
    """thm3.17's rows on a left scenario: the updated member
    Xp = X (I + WEWX)^-1, formed once, belongs to the perturbed pair's family
    and satisfies Xp W D W = X W B W and W D W Xp = W B W X."""
    pair = scenario.pair
    B, W, E, D, X = pair.B, pair.W, scenario.E, scenario.D, scenario.member
    Xp = X @ _inv(np.eye(pair.n, dtype=complex) + W @ E @ W @ X, "I + WEWX")

    report = VerificationReport("thm3.17", tol)
    report.merge(check_mrwwd(scenario._dpair(tol), Xp, tol), prefix="updated member: ")
    report.add_equation("product identity", Xp @ W @ D @ W, X @ W @ B @ W)
    report.add_equation("mirrored product identity", W @ D @ W @ Xp, W @ B @ W @ X)
    return report


def perturbed_mrwwd(
    scenario: PerturbationScenario, tol: ToleranceConfig = DEFAULT_TOL
) -> VerificationReport:
    """Stability of the left family: the updated member X (I + WEWX)^-1
    belongs to the perturbed pair's family and satisfies both inverse-free
    product identities."""
    if scenario.side != "left":
        raise ValueError("left-family perturbation needs a left scenario")
    _require_flags(scenario, tol, "range EW in K", "rows EW in member product", "norm WEWX")
    report = _stability(scenario, tol)
    _note_flags(report, scenario, tol)
    return report


def perturbed_mrwwd_right(
    scenario: PerturbationScenario, tol: ToleranceConfig = DEFAULT_TOL
) -> VerificationReport:
    """Stability of the right family: thm3.17 on the dual scenario, for the
    updated member (I + ZWEW)^-1 Z. The adjoint of each product identity is
    the other one of the right family."""
    if scenario.side != "right":
        raise ValueError("right-family perturbation needs a right scenario")
    _require_flags(scenario, tol, "range WE in member product", "rows WE in WB power", "norm ZWEW")
    with _right_hand():
        report = _stability(_dual(scenario, tol), tol)
    prefix = "updated member: "
    labels = {prefix + row: prefix + name for row, name in _MRWWD_RIGHT_LABELS.items()}
    labels["mirrored product identity"] = "product identity"
    labels["product identity"] = "mirrored product identity"
    report = report.mirrored("thm3.18", labels)
    _note_flags(report, scenario, tol)
    return report


def _sandwich(report: VerificationReport, label: str, center: float, base: float, shift: float, tol: ToleranceConfig) -> None:
    # base/(1+shift) <= center <= base/(1-shift), the upper bound only when
    # the series converges; each bound's excess is judged like a residual
    below = base / (1.0 + shift) - center
    report.add(f"{label} lower bound", max(0.0, below), _passes(below, base, tol))
    if shift < 1.0:
        above = center - base / (1.0 - shift)
        report.add(f"{label} upper bound", max(0.0, above), _passes(above, base, tol))
    else:
        report.add(f"{label} upper bound", float("inf"), False)


def _mpd_chain(scenario: PerturbationScenario, tol: ToleranceConfig) -> tuple:
    """thm3.19's rows on a left scenario, with the norms of Y E and Y X that
    bracket the sandwich, Y the weak MPD inverse of the member."""
    pair = scenario.pair
    B, W, E, D, X = pair.B, pair.W, scenario.E, scenario.D, scenario.member
    n_id = np.eye(pair.n, dtype=complex)
    m_id = np.eye(pair.m, dtype=complex)

    dpair = scenario._dpair(tol)
    Bp, Dp = pair._pinv(tol), dpair._pinv(tol)
    Y = weak_mpd(pair, X, tol).value
    T1 = Dp @ X @ _inv(n_id + W @ E @ W @ X, "I + WEWX") @ W @ D @ W @ X
    T2 = Dp @ X @ W @ D @ W @ _inv(m_id + X @ W @ E @ W, "I + XWEW") @ X
    T3 = _inv(n_id + Y @ E, "I + YE") @ Y @ X

    report = VerificationReport("thm3.19", tol)
    report.add_equation("representation T1 = T2", T1, T2)
    report.add_equation("representation T1 = T3", T1, T3)
    report.add_equation("recovery D T1 = B Y X", D @ T1, B @ Y @ X)
    report.add_equation("MP update identity", Dp, _inv(n_id + Bp @ E, "I + BpE") @ Bp)
    report.add_rank_gap(
        "stabilized rank preserved",
        dpair._rank("BW", pair.k_bw, tol),
        pair._rank("BW", pair.k_bw, tol),
    )
    shift = spectral_norm(Y @ E)
    base = spectral_norm(Y @ X)
    _sandwich(report, "sandwich", spectral_norm(T1), base, shift, tol)
    return report, shift, base


def mpd_perturbation(
    scenario: PerturbationScenario, tol: ToleranceConfig = DEFAULT_TOL
) -> VerificationReport:
    """Three representations of the perturbed product D^+ (weak MPD chain)
    agree, the recovery identity holds, and the norm sandwich brackets it."""
    if scenario.side != "left":
        raise ValueError("the MPD chain needs a left scenario")
    _require_flags(scenario, tol)
    report, shift, base = _mpd_chain(scenario, tol)
    report.note("norm YE", shift)
    report.note("norm YX", base)
    _note_flags(report, scenario, tol)
    return report


def dmp_perturbation(
    scenario: PerturbationScenario, tol: ToleranceConfig = DEFAULT_TOL
) -> VerificationReport:
    """The weak DMP chain: thm3.19 on the dual scenario. Its representations
    are the adjoints G1 = Z W D W (I + ZWEW)^-1 Z D^+,
    G2 = Z (I + WEWZ)^-1 W D W Z D^+ and G3 = Z Y1 (I + E Y1)^-1, with Y1 the
    weak DMP inverse of the member."""
    if scenario.side != "right":
        raise ValueError("the DMP chain needs a right scenario")
    _require_flags(scenario, tol)
    with _right_hand():
        report, shift, base = _mpd_chain(_dual(scenario, tol), tol)
    labels = {label: label for label, _, _ in report.conditions}
    labels["representation T1 = T2"] = "representation G1 = G2"
    labels["representation T1 = T3"] = "representation G1 = G3"
    labels["recovery D T1 = B Y X"] = "recovery G1-core D^+ D = Z Y1 B"
    report = report.mirrored("thm3.20", labels)
    report.note("norm EY1", shift)
    report.note("norm ZY1", base)
    _note_flags(report, scenario, tol)
    return report


def _drazin_rows(report: VerificationReport, prefix: str, pair, dpair, E, tol) -> None:
    """The rows, each label opening with `prefix`, of the weighted MPD inverse
    of D as the resolvent update of B's, both projectors transported, and the
    norm sandwich."""
    B, D = pair.B, dpair.B
    n_id = np.eye(pair.n, dtype=complex)
    m_id = np.eye(pair.m, dtype=complex)
    Y, Yd = _value(pair, w_mpd, tol), _value(dpair, w_mpd, tol)
    shift, small = _norm_flag(Y @ E)
    report.add(f"{prefix}norm hypothesis", shift, small)
    report.add_equation(f"{prefix}resolvent update", Yd, _inv(n_id + Y @ E, "I + Ympd E") @ Y)
    report.add_equation(f"{prefix}dual resolvent update", Yd, Y @ _inv(m_id + E @ Y, "I + E Ympd"))
    report.add_equation(f"{prefix}image projector transport", D @ Yd, B @ Y)
    report.add_equation(f"{prefix}coimage projector transport", Yd @ D, Y @ B)
    _sandwich(report, f"{prefix}sandwich", spectral_norm(Yd), spectral_norm(Y), shift, tol)


def drazin_case_perturbation(
    scenario: PerturbationScenario, tol: ToleranceConfig = DEFAULT_TOL
) -> VerificationReport:
    """Specialization to the weighted Drazin member: the weighted MPD and DMP
    inverses update by the same resolvent formulas as the Moore-Penrose
    inverse, and their projectors transport unchanged. The DMP rows are the
    MPD rows of the dual pairs (B^*, W^*) and (D^*, W^*) with E^*. Every
    flag of the scenario is required first. The report is "cor-mpd" on a
    left scenario and "cor-dmp" on a right one."""
    _require_flags(scenario, tol)
    pair = scenario.pair
    Xd = _value(pair, w_drazin, tol)
    gap, ok = _exact(scenario.member - Xd, Xd, tol)
    if not ok:
        raise HypothesisError(
            f"scenario member is not the weighted Drazin inverse (gap {gap:.3e})"
        )
    dpair = scenario._dpair(tol)

    report = VerificationReport("cor-mpd" if scenario.side == "left" else "cor-dmp", tol)
    _drazin_rows(report, "mpd: ", pair, dpair, scenario.E, tol)
    with _right_hand():
        _drazin_rows(report, "dmp: ", pair.H, dpair.H, scenario.E.conj().T, tol)
    report.note("stated norm form", spectral_norm(Xd @ pair.W @ pair.B @ pair.W))
    _note_flags(report, scenario, tol)
    return report
