import re
from dataclasses import replace

import numpy as np
import pytest

from wginv import perturb
from wginv._gen import ex1_pair, random_pair
from wginv.matcore import (
    DEFAULT_TOL,
    DimensionError,
    GenerationError,
    HypothesisError,
    spectral_norm,
)
from wginv.perturb import (
    PerturbationScenario,
    admissible_perturbation,
    dmp_perturbation,
    drazin_case_perturbation,
    mpd_perturbation,
    perturbed_mrwwd,
    perturbed_mrwwd_right,
)
from wginv.winv import mrwwd_family, mrwwd_right_family, w_drazin, weak_mpd


def _case(i):
    rng = np.random.default_rng([113, i])
    m = int(rng.integers(3, 8))
    n = int(rng.integers(3, 8))
    t = min(int(rng.integers(1, 4)), min(m, n) - 1)
    return random_pair(m, n, t, rng), rng


def test_closed_family_admissible_for_drazin_member():
    pair = ex1_pair()
    Xd = w_drazin(pair).value
    scenario = admissible_perturbation(pair, Xd, 0.1, seed=5)
    flags = scenario._flags
    assert all(ok for _, ok in flags.values()), flags
    assert scenario.alpha == 0.1
    assert spectral_norm(scenario.D - pair.B - scenario.E) <= 1e-15
    report = perturbed_mrwwd(scenario)
    assert report.overall, report.to_dict()
    report = mpd_perturbation(scenario)
    assert report.overall, report.to_dict()


def test_right_side_perturbation_chain():
    for i in range(5):
        pair, rng = _case(i)
        Zd = w_drazin(pair).value
        scenario = admissible_perturbation(pair, Zd, 0.1, seed=i, side="right")
        report = perturbed_mrwwd_right(scenario)
        assert report.overall, (i, report.to_dict())
        report = dmp_perturbation(scenario)
        assert report.overall, (i, report.to_dict())


def test_zero_alpha_collapses_to_unperturbed():
    pair, _ = _case(0)
    Xd = w_drazin(pair).value
    scenario = admissible_perturbation(pair, Xd, 0.0, seed=1)
    assert spectral_norm(scenario.E) == 0.0
    report = mpd_perturbation(scenario)
    assert report.overall
    notes = dict(report.notes)
    assert notes["norm YE"] == 0.0


def test_overlarge_alpha_is_halved_until_norms_settle():
    pair, _ = _case(1)
    Xd = w_drazin(pair).value
    scenario = admissible_perturbation(pair, Xd, 5.0, seed=5)
    assert scenario.alpha < 5.0
    flags = scenario._flags
    norms = {k: v for k, (v, _) in flags.items() if k.startswith("norm")}
    assert all(v <= 0.5 for v in norms.values())
    with pytest.raises(GenerationError):
        admissible_perturbation(pair, Xd, 1e6, seed=5)


def test_closed_family_rejects_generic_member_subspace():
    # the closed direction only lands inside the member product for the
    # weighted Drazin member; generic members need the randomized family
    rng = np.random.default_rng([11, 0])
    pair = random_pair(5, 4, 2, rng)
    X = mrwwd_family(pair).member(0.5 * rng.standard_normal((5, 4)))
    with pytest.raises(GenerationError):
        admissible_perturbation(pair, X, 0.1, seed=5, family="closed")
    scenario = admissible_perturbation(pair, X, 0.1, seed=5, family="random")
    assert all(ok for _, ok in scenario._flags.values())
    report = perturbed_mrwwd(scenario)
    assert report.overall, report.to_dict()
    report = mpd_perturbation(scenario)
    assert report.overall, report.to_dict()


def test_randomized_family_right_generic_member():
    pair, rng = _case(2)
    Z = mrwwd_right_family(pair).member(0.5 * rng.standard_normal((pair.m, pair.n)))
    scenario = admissible_perturbation(pair, Z, 0.1, seed=7, side="right", family="random")
    report = perturbed_mrwwd_right(scenario)
    assert report.overall, report.to_dict()
    report = dmp_perturbation(scenario)
    assert report.overall, report.to_dict()


def test_scenario_from_parts_flags_inadmissible_direction():
    pair = ex1_pair()
    Xd = w_drazin(pair).value
    rng = np.random.default_rng(9)
    E = 0.05 * rng.standard_normal((pair.m, pair.n))
    scenario = PerturbationScenario(pair, Xd, "left", E)
    flags = scenario._flags
    assert not all(ok for _, ok in flags.values())
    # every subspace flag is the residual rule against ||E||_2
    bar = DEFAULT_TOL.residual_atol * (1.0 + spectral_norm(E))
    for name, (value, ok) in flags.items():
        if not name.startswith("norm"):
            assert ok == (value <= bar), name
    with pytest.raises(HypothesisError):
        mpd_perturbation(scenario)


def test_validation_errors():
    pair = ex1_pair()
    Xd = w_drazin(pair).value
    for alpha in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="alpha must be finite and nonnegative"):
            admissible_perturbation(pair, Xd, alpha)
    with pytest.raises(ValueError):
        admissible_perturbation(pair, Xd, 0.1, side="middle")
    with pytest.raises(ValueError):
        admissible_perturbation(pair, Xd, 0.1, family="exotic")
    with pytest.raises(ValueError, match=r"^E must be 5 x 4, got \(2, 2\)$"):
        PerturbationScenario(pair, Xd, "left", np.zeros((2, 2)))
    with pytest.raises(ValueError, match="^side must be 'left' or 'right', got 'middle'$"):
        PerturbationScenario(pair, Xd, "middle", np.zeros((5, 4)))
    scenario = admissible_perturbation(pair, Xd, 0.1, seed=5)
    with pytest.raises(ValueError):
        perturbed_mrwwd_right(scenario)
    with pytest.raises(ValueError):
        dmp_perturbation(scenario)


@pytest.mark.parametrize("side", ["left", "right"])
def test_scenario_from_parts_checks_the_member_shape(side):
    pair = ex1_pair()
    with pytest.raises(DimensionError, match=r"member shape \(4, 5\) != \(5, 4\)"):
        PerturbationScenario(pair, np.zeros((4, 5)), side, np.zeros((5, 4)))


@pytest.mark.parametrize("side, chain", [("left", mpd_perturbation), ("right", dmp_perturbation)])
def test_a_scenario_owns_read_only_copies_of_its_member_and_e(side, chain):
    # a write into E after a chain has run would meet the flags memoised for
    # the old E, and a write into the caller's member would reach the chain
    pair = random_pair(6, 5, 2, 0)
    member = w_drazin(pair).value.copy()
    scenario = admissible_perturbation(pair, member, 0.1, seed=3, side=side)
    assert chain(scenario).overall
    rng = np.random.default_rng(3)
    E = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    with pytest.raises(ValueError, match="read-only"):
        scenario.E[...] = 0.05 * E / spectral_norm(E)
    member[...] = 0.0
    assert chain(scenario).overall


def test_dmp_chain_refuses_a_non_member_in_the_callers_terms():
    # E = 0 passes every flag, so the chain itself meets the non-member
    pair = ex1_pair()
    scenario = PerturbationScenario(pair, np.ones((5, 4)), "right", np.zeros((5, 4)))
    assert all(ok for _, ok in scenario._flags.values())
    with pytest.raises(HypothesisError, match="^Z is not a member of the right solution family"):
        dmp_perturbation(scenario)


@pytest.mark.parametrize(
    "side, refusal",
    [
        ("left", "X is not a member of the left solution family"),
        ("right", "Z is not a member of the right solution family"),
    ],
)
def test_admissible_perturbation_refuses_a_non_member_in_the_callers_terms(side, refusal):
    # the one membership gate, on the dual pair for a right member
    pair = ex1_pair()
    with pytest.raises(HypothesisError, match=f"^{refusal} "):
        admissible_perturbation(pair, np.ones((5, 4)), 0.1, side=side)


# The right-hand statements run the left-hand ones on the dual scenario, where
# each resolvent is the adjoint of a right-hand one: a singular resolvent is
# reported under its right-hand name, in the order the chain inverts them.
RESOLVENTS = [
    (perturbed_mrwwd_right, ["I + ZWEW"]),
    (dmp_perturbation, ["I + ZWEW", "I + WEWZ", "I + EY1", "I + EBp"]),
    (drazin_case_perturbation, ["I + Ympd E", "I + E Ympd", "I + E Ydmp", "I + Ydmp E"]),
]


@pytest.mark.parametrize(
    "chain, call, name",
    [(chain, call, name) for chain, names in RESOLVENTS for call, name in enumerate(names)],
)
def test_right_hand_chains_name_their_own_resolvents(monkeypatch, chain, call, name):
    pair = ex1_pair()
    scenario = admissible_perturbation(pair, w_drazin(pair).value, 0.1, seed=5, side="right")
    assert chain(scenario).overall
    calls = []
    inverse = perturb._inv

    def singular_at_call(Mat, what):
        calls.append(what)
        return inverse(np.zeros_like(Mat) if len(calls) == call + 1 else Mat, what)

    monkeypatch.setattr(perturb, "_inv", singular_at_call)
    with pytest.raises(HypothesisError, match=f"^{re.escape(name)} is singular"):
        chain(scenario)


def test_drazin_case_updates_weighted_inverses():
    for i in range(5):
        pair, _ = _case(i)
        Xd = w_drazin(pair).value
        left = admissible_perturbation(pair, Xd, 0.1, seed=i)
        report = drazin_case_perturbation(left)
        assert report.overall, (i, report.to_dict())
        assert report.theorem_id == "cor-mpd"
        right = admissible_perturbation(pair, Xd, 0.1, seed=i, side="right")
        report = drazin_case_perturbation(right)
        assert report.overall, (i, report.to_dict())
        assert report.theorem_id == "cor-dmp"


def test_drazin_case_requires_drazin_member():
    pair, rng = _case(3)
    X = mrwwd_family(pair).member(0.5 * rng.standard_normal((pair.m, pair.n)))
    scenario = admissible_perturbation(pair, X, 0.1, seed=3, family="random")
    with pytest.raises(HypothesisError):
        drazin_case_perturbation(scenario)


def test_updated_member_tracks_weak_mpd():
    # the perturbed weak MPD value recovered through the chain matches the
    # direct computation on the perturbed pair
    pair, _ = _case(4)
    Xd = w_drazin(pair).value
    scenario = admissible_perturbation(pair, Xd, 0.05, seed=11)
    report = mpd_perturbation(scenario)
    assert report.overall
    base = weak_mpd(pair, Xd).value
    notes = dict(report.notes)
    assert notes["norm YX"] >= 0.0
    assert notes["norm YE"] <= 0.5
    assert spectral_norm(base) > 0.0


@pytest.mark.parametrize("side", ["left", "right"])
def test_halving_judges_only_the_norm_flags_again(monkeypatch, side):
    # ex1's weighted Drazin member at alpha = 10 halves four (right) or five
    # (left) times: the scenario built at the first alpha decides every flag,
    # the alphas between judge the two norm flags alone, and the scenario at
    # the last is made of its parts, its flags decided when a chain asks
    pair = ex1_pair()
    member = w_drazin(pair).value
    built = []
    whole = perturb.PerturbationScenario

    def recording(*args, **kwargs):
        built.append(kwargs["alpha"])
        return whole(*args, **kwargs)

    monkeypatch.setattr(perturb, "PerturbationScenario", recording)
    scenario = admissible_perturbation(pair, member, 10.0, seed=0, side=side)
    assert built == [10.0, scenario.alpha] and scenario.alpha <= 10.0 / 16
    again = whole(pair, member, side, scenario.E, alpha=scenario.alpha)
    assert "_flags" not in scenario.__dict__
    assert scenario._flags == again._flags
    del built[:]
    admissible_perturbation(pair, member, 0.1, seed=0, side=side)
    assert built == [0.1]


@pytest.mark.parametrize("side", ["left", "right"])
def test_chains_on_one_scenario_share_the_pair_of_d(monkeypatch, side):
    # the scenario builds the pair (D, W) once; the family
    # stability statement, the inverse chain and the Drazin case read it
    pair = ex1_pair()
    member = w_drazin(pair).value
    scenario = admissible_perturbation(pair, member, 0.1, seed=5, side=side)
    built = []
    original = perturb.weighted_pair

    def recording(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(perturb, "weighted_pair", recording)
    family, chain = (
        (perturbed_mrwwd, mpd_perturbation)
        if side == "left"
        else (perturbed_mrwwd_right, dmp_perturbation)
    )
    for run in (family, chain, drazin_case_perturbation, chain):
        assert run(scenario).overall
    assert len(built) == 1
    dpair = scenario._dpair
    assert np.array_equal(dpair.B, scenario.D) and np.array_equal(dpair.W, pair.W)
    if side == "right":  # the dual's D = B^* + E^* is the adjoint pair's B
        assert np.array_equal(perturb._dual(scenario).D, dpair.H.B)


# thm3.19's row "representation T1 = T2", and so thm3.20's "G1 = G2", holds
# for every member X and every E, admissible or not: X W B W X = X gives
# X W D W X = (I + XWEW) X, and by push-through both T1 and T2 reduce to
# D^+ X. The row certifies nothing beyond membership; T1 = T3 does.


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("seed", range(4))
def test_representation_t1_t2_holds_for_every_perturbation(seed, side):
    pair = random_pair(6, 5, 2, seed)
    rng = np.random.default_rng([29, seed])
    family = mrwwd_family if side == "left" else mrwwd_right_family
    free = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    E = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    E *= 0.05 / spectral_norm(E)
    scenario = PerturbationScenario(pair, family(pair).member(0.4 * free), side, E)
    flags = scenario._flags
    assert not all(ok for _, ok in flags.values())  # a generic E is not admissible
    left = scenario if side == "left" else perturb._dual(scenario)
    report = perturb._mpd_chain(left)[0]
    rows = {label: (residual, ok) for label, residual, ok in report.conditions}
    residual, ok = rows["representation T1 = T2"]
    assert ok and residual < 1e-13
    residual, ok = rows["representation T1 = T3"]
    assert not ok and residual > 0.5


# A scenario holds only its parts, so one with a part replaced is decided
# anew: a generic E swapped into an admissible scenario breaks the hypotheses,
# and each chain refuses it, naming the flags it requires that fail, instead
# of judging the theorem on a scenario it does not cover.
STALE_CHAINS = {
    "left": {
        perturbed_mrwwd: ("range EW in K", "rows EW in member product", "norm WEWX"),
        mpd_perturbation: None,  # every flag of the scenario
        drazin_case_perturbation: None,  # cor-mpd
    },
    "right": {
        perturbed_mrwwd_right: ("range WE in member product", "rows WE in WB power", "norm ZWEW"),
        dmp_perturbation: None,
        drazin_case_perturbation: None,  # cor-dmp
    },
}


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_replaced_perturbation_is_judged_by_its_own_flags(side):
    pair = random_pair(6, 5, 2, 0)
    scenario = admissible_perturbation(pair, w_drazin(pair).value, 0.1, seed=3, side=side)
    for chain in STALE_CHAINS[side]:
        assert chain(scenario).overall
    rng = np.random.default_rng(3)
    E = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    stale = replace(scenario, E=0.05 * E / spectral_norm(E))
    for chain, names in STALE_CHAINS[side].items():
        with pytest.raises(HypothesisError) as refusal:
            chain(stale)
        flags = stale._flags
        violated = [name for name in names or flags if not flags[name][1]]
        assert violated and str(refusal.value) == f"scenario violates hypotheses: {violated}"
    assert np.array_equal(stale.D, pair.B + stale.E)
