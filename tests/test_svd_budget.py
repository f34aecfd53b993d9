"""SVD budget of the public constructors.

Certification decides a pass from Frobenius norms and reuses the indices a
WeightedPair caches, so building and certifying a value takes a handful of
SVDs. Every numpy SVD is counted: the public `numpy.linalg.svd` and the one
in `numpy.linalg._linalg` that `norm(A, 2)` calls.
"""

import contextlib
import io

import numpy as np
import numpy.linalg._linalg as linalg_impl
import pytest

from wginv import matcore, sqinv, winv
from wginv._gen import random_pair, random_square_with_index
from wginv.cli import main
from wginv.matcore import (
    DEFAULT_TOL,
    CertificationError,
    HypothesisError,
    ToleranceConfig,
    spectral_norm,
)
from wginv.verify import (
    check_dmp_characterizations,
    check_mpd_characterizations,
    check_mrwwd,
    check_mrwwd_right,
)
from wginv.winv import (
    CATALOG,
    _drazin_kernel,
    compute_kind,
    mrwwd_family,
    mrwwd_right_family,
    w_cepmp,
    w_core_ep,
    w_dmp,
    w_drazin,
    w_m_weak_core,
    w_m_wgi,
    w_m_wgmp,
    w_mpcep,
    w_mpd,
    weak_dmp,
    weak_mpd,
)

# SVDs per constructor on random_pair(7, 6, 2, 5) when every check was decided
# on spectral norms and every constructor decided its own indices
EXACT_CERTIFICATION = {
    "w_drazin": 30,
    "w_mpd": 37,
    "w_core_ep": 36,
    "w_m_weak_core(2)": 84,
    "weak_mpd": 50,
}

BUDGET = {
    "w_drazin": 2,
    "w_mpd": 3,
    "w_core_ep": 8,
    "w_m_weak_core(2)": 16,
    "weak_mpd": 8,
}

CONSTRUCTORS = {
    "w_drazin": lambda pair, X: w_drazin(pair),
    "w_mpd": lambda pair, X: w_mpd(pair),
    "w_core_ep": lambda pair, X: w_core_ep(pair),
    "w_m_weak_core(2)": lambda pair, X: w_m_weak_core(pair, 2),
    "weak_mpd": lambda pair, X: weak_mpd(pair, X),
}


@pytest.fixture(scope="module")
def pair_and_member():
    pair = random_pair(7, 6, 2, 5)
    return pair, mrwwd_family(pair).member(np.zeros((7, 6)))


def _counting(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_constructor_svd_budget(monkeypatch, pair_and_member, name):
    assert BUDGET[name] <= EXACT_CERTIFICATION[name] // 3
    calls = _counting(monkeypatch, linalg_impl, "svd")
    monkeypatch.setattr(np.linalg, "svd", linalg_impl.svd)
    CONSTRUCTORS[name](*pair_and_member)
    assert len(calls) <= BUDGET[name], (name, len(calls))


def test_counter_sees_the_svd_inside_the_two_norm(monkeypatch):
    calls = _counting(monkeypatch, linalg_impl, "svd")
    np.linalg.norm(np.eye(3), 2)
    assert len(calls) == 1


@pytest.mark.parametrize("build", [w_drazin, w_core_ep])
def test_constructors_reuse_the_cached_indices(monkeypatch, pair_and_member, build):
    # the kernels read the staircase forms that weighted_pair decided the
    # indices from: no index is decided and nothing is factored again
    calls = _counting(monkeypatch, sqinv, "_staircase")
    calls += _counting(monkeypatch, matcore, "_staircase")
    calls += _counting(monkeypatch, matcore, "index_of")
    result = build(pair_and_member[0])
    assert calls == []
    assert result.index_used == 2


# A WeightedPair caches B^+, the Drazin and core-EP kernels of BW and WB, the
# projectors onto their powers and the certified values of the inverses that
# other constructors compose, so kinds built on the same pair share them. The
# nine catalog kinds with weak_mpd and weak_dmp took 83 SVDs on a fresh pair
# when each constructor built its own factors, and 25 when each certified its
# inner inverse anew and each membership test took exact norms.
CATALOG_AND_WEAK_BUDGET = 17


def _members():
    # drawn on a separate pair, so that the counted pair starts with no memo
    other = random_pair(7, 6, 2, 5)
    zero = np.zeros((7, 6))
    return mrwwd_family(other).member(zero), mrwwd_right_family(other).member(zero)


def test_catalog_and_weak_inverses_share_the_pair_factors(monkeypatch):
    X, Z = _members()
    pair = random_pair(7, 6, 2, 5)
    calls = _counting(monkeypatch, linalg_impl, "svd")
    monkeypatch.setattr(np.linalg, "svd", linalg_impl.svd)
    for kind in CATALOG:
        compute_kind(pair, kind, m=2)
    weak_mpd(pair, X)
    weak_dmp(pair, Z)
    assert len(calls) <= CATALOG_AND_WEAK_BUDGET


@pytest.mark.parametrize("build", [w_mpd, w_drazin, w_dmp])
def test_warm_pair_needs_no_svd(monkeypatch, build):
    pair = random_pair(7, 6, 2, 5)
    first = build(pair)
    calls = _counting(monkeypatch, linalg_impl, "svd")
    monkeypatch.setattr(np.linalg, "svd", linalg_impl.svd)
    again = build(pair)
    assert calls == []
    assert np.array_equal(again.value, first.value)
    assert again.value is not first.value  # results themselves are not memoized


def test_dual_reads_the_pair_kernels_as_adjoints(monkeypatch):
    # (B^* W^*)^D = ((WB)^D)^*, (W^* B^*)^D = ((BW)^D)^* and (B^*)^+ = (B^+)^*:
    # once the pair has them, the dual's cost no SVD, and a right-hand
    # inverse after its left-hand one takes none
    pair = random_pair(7, 6, 2, 5)
    w_mpd(pair)
    calls = _counting(monkeypatch, linalg_impl, "svd")
    monkeypatch.setattr(np.linalg, "svd", linalg_impl.svd)
    for side, other in (("BW", "WB"), ("WB", "BW")):
        dual = _drazin_kernel(pair.H, side, DEFAULT_TOL)
        assert np.array_equal(dual, _drazin_kernel(pair, other, DEFAULT_TOL).conj().T)
    assert np.array_equal(pair.H._pinv(DEFAULT_TOL), pair._pinv(DEFAULT_TOL).conj().T)
    w_dmp(pair)
    assert calls == []
    assert pair.H.H._memo is pair._memo  # the dual's dual is a twin on the pair's memo


def test_dual_certifies_the_adjoint_kernels_on_its_own_equations(monkeypatch):
    pair = random_pair(7, 6, 2, 5)
    w_drazin(pair)
    checked = []
    checks = winv._drazin_checks

    def recording(S, X, k):
        checked.append((S, X, k))
        return checks(S, X, k)

    monkeypatch.setattr(winv, "_drazin_checks", recording)
    X = _drazin_kernel(pair.H, "BW", DEFAULT_TOL)
    [(S, certified, k)] = checked
    assert np.array_equal(S, pair.H.bw()) and k == pair.k_wb
    assert np.array_equal(certified.conj().T, _drazin_kernel(pair, "WB", DEFAULT_TOL))
    assert np.array_equal(X, certified)


def test_cached_factors_are_keyed_by_tolerance():
    pair = random_pair(7, 6, 2, 5)
    w_mpd(pair)
    tight = ToleranceConfig(residual_atol=1e-300)
    with pytest.raises(CertificationError):
        w_mpd(pair, tight)
    # a kernel value certified at one tolerance is certified anew at another
    with pytest.raises(CertificationError):
        _drazin_kernel(pair, "BW", tight)
    coarse = ToleranceConfig(rank_rtol=0.5)
    assert matcore.rank_of(pair._pinv(coarse)) < matcore.rank_of(pair._pinv(matcore.DEFAULT_TOL))


def test_index_decision_factors_each_power_once(monkeypatch):
    # weighted_pair decides both indices and nothing else by SVD: one SVD per
    # power S, S^2, ..., S^(k+1) of each product, the norm of S included
    rng = np.random.default_rng(3)
    S = random_square_with_index(6, 2, rng, matcore.DEFAULT_TOL)
    calls = _counting(monkeypatch, linalg_impl, "svd")
    monkeypatch.setattr(np.linalg, "svd", linalg_impl.svd)
    assert matcore.index_of(S) == 2
    assert len(calls) == 3
    del calls[:]
    pair = matcore.weighted_pair(S, np.eye(6))
    assert len(calls) == pair.k_bw + pair.k_wb + 2


# A family operation of the `dense` benchmark: a member drawn from the family,
# then its weak inverse.
FAMILIES = [(mrwwd_family, weak_mpd), (mrwwd_right_family, weak_dmp)]


@pytest.mark.parametrize("family, weak", FAMILIES)
def test_warm_family_operation_takes_two_rank_decisions(monkeypatch, family, weak):
    # the membership test decides rank(X) and rank((BW)^k) on every call; its
    # pass, the certificates and the memoized w_mpd need no SVD
    pair = random_pair(7, 6, 2, 5)
    P = np.ones((7, 6))
    weak(pair, family(pair).member(P))
    calls = _counting(monkeypatch, linalg_impl, "svd")
    monkeypatch.setattr(np.linalg, "svd", linalg_impl.svd)
    for _ in range(2):
        del calls[:]
        weak(pair, family(pair).member(P))
        assert len(calls) == 2


def _direct(pair):
    """A pair built directly from B, W and the indices: its memo starts empty."""
    return matcore.WeightedPair(pair.B, pair.W, pair.k_bw, pair.k_wb)


def _memo_keys(pair) -> tuple:
    return set(pair._memo), set(pair.H._memo)


def _refuse_a_perturbed_member(monkeypatch, pair, family, weak):
    # both ranks and the two exact norms that name the residual, on every call
    member = family(matcore.weighted_pair(pair.B, pair.W)).member(np.zeros((7, 6)))
    noise = np.random.default_rng(1).standard_normal(member.shape)
    perturbed = member + 1e-2 * spectral_norm(member) * noise
    calls = _counting(monkeypatch, linalg_impl, "svd")
    monkeypatch.setattr(np.linalg, "svd", linalg_impl.svd)
    for _ in range(2):
        del calls[:]
        with pytest.raises(HypothesisError):
            weak(pair, perturbed)
        assert len(calls) == 4


@pytest.mark.parametrize("family, weak", FAMILIES)
def test_refusing_a_perturbed_member_takes_four_svds(monkeypatch, family, weak):
    pair = random_pair(7, 6, 2, 5)
    before = _memo_keys(pair)
    _refuse_a_perturbed_member(monkeypatch, pair, family, weak)
    # weighted_pair seeds the two staircase forms; nothing joins them
    assert _memo_keys(pair) == before


@pytest.mark.parametrize("family, weak", FAMILIES)
def test_refusing_a_perturbed_member_of_a_direct_pair_takes_four_svds(monkeypatch, family, weak):
    pair = _direct(random_pair(7, 6, 2, 5))
    _refuse_a_perturbed_member(monkeypatch, pair, family, weak)
    assert not pair._memo
    assert not pair.H._memo


def test_nested_core_ep_is_certified_once_per_pair(monkeypatch):
    pair = random_pair(7, 6, 2, 5)
    kinds = []
    certify = winv._certify

    def recording(kind, checks, tol):
        kinds.append(kind)
        return certify(kind, checks, tol)

    monkeypatch.setattr(winv, "_certify", recording)
    w_mpcep(pair)
    w_cepmp(pair)
    for build in (w_m_wgi, w_m_weak_core, w_m_wgmp):
        build(pair, 2)
    assert kinds.count("w_core_ep") == 1
    # once for its own public call, once as the value the other two compose
    assert kinds.count("w_m_wgi") == 2


def test_memoized_inner_values_are_keyed_by_tolerance():
    pair = random_pair(7, 6, 2, 5)
    X = mrwwd_family(pair).member(np.zeros((7, 6)))
    w_mpcep(pair)
    w_m_wgmp(pair, 2)
    weak_mpd(pair, X)
    tight = ToleranceConfig(residual_atol=1e-300)
    # the inner core-EP value is built anew at the tight tolerance, so the
    # first refusal is that of its core-EP kernel, not of the outer equation
    with pytest.raises(CertificationError, match="^core_ep:"):
        w_mpcep(pair, tight)
    with pytest.raises(CertificationError, match="^core_ep:"):
        w_m_wgmp(pair, 2, tight)
    with pytest.raises(HypothesisError):
        weak_mpd(pair, X, tight)


def test_m_fold_weak_group_values_are_memoized_per_m():
    pair = random_pair(7, 6, 2, 5)
    for m in (1, 2):
        w_m_wgmp(pair, m)
    values = {m: pair._memo["w_m_wgi", DEFAULT_TOL, m] for m in (1, 2)}
    assert not np.array_equal(values[1], values[2])
    for m, value in values.items():
        assert np.array_equal(value, w_m_wgi(pair, m).value)


# The checkers and the membership test judge a caller's candidate: they
# rebuild every factor from B and W and read nothing from the pair's memo, so
# a check costs the same on every call and cannot inherit a cached factor.


def _candidates(direct=False):
    """A fresh pair, members X and Z of its two families and their weak
    inverses Y and Y1, drawn on a twin pair so that the pair's memo holds only
    what weighted_pair seeded (nothing, for a pair built directly)."""
    pair = random_pair(7, 6, 2, 5)
    if direct:
        pair = _direct(pair)
    twin = matcore.weighted_pair(pair.B, pair.W)
    zero = np.zeros((7, 6))
    X = mrwwd_family(twin).member(zero)
    Z = mrwwd_right_family(twin).member(zero)
    return pair, X, Z, weak_mpd(twin, X).value, weak_dmp(twin, Z).value


def _refused(build, pair, A):
    with pytest.raises(HypothesisError):
        build(pair, A)


CHECKS = {
    "check_mrwwd": lambda pair, X, Z, Y, Y1: check_mrwwd(pair, X),
    "check_mrwwd_right": lambda pair, X, Z, Y, Y1: check_mrwwd_right(pair, Z),
    "check_mpd_characterizations": lambda pair, X, Z, Y, Y1: check_mpd_characterizations(
        pair, X, Y
    ),
    "check_dmp_characterizations": lambda pair, X, Z, Y, Y1: check_dmp_characterizations(
        pair, Z, Y1
    ),
    "weak_mpd(non-member)": lambda pair, X, Z, Y, Y1: _refused(weak_mpd, pair, 2.0 * X),
    "weak_dmp(non-member)": lambda pair, X, Z, Y, Y1: _refused(weak_dmp, pair, 2.0 * Z),
}


def _check_twice(monkeypatch, name, pair, candidates):
    calls = _counting(monkeypatch, linalg_impl, "svd")
    monkeypatch.setattr(np.linalg, "svd", linalg_impl.svd)
    counts = []
    for _ in range(2):
        del calls[:]
        CHECKS[name](pair, *candidates)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_checks_rebuild_their_factors_on_every_call(monkeypatch, name):
    pair, *candidates = _candidates()
    before = _memo_keys(pair)
    _check_twice(monkeypatch, name, pair, candidates)
    assert _memo_keys(pair) == before


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_checks_on_a_direct_pair_rebuild_their_factors_on_every_call(monkeypatch, name):
    pair, *candidates = _candidates(direct=True)
    _check_twice(monkeypatch, name, pair, candidates)
    assert not pair._memo
    assert not pair.H._memo


# An order-law case builds each factor and product pair once and shares it
# between its flags, its members and the law. `verify thm3.31` on its fixture
# made 113 SVDs when each of them built its own pairs.
TRIPLE_LAW_FIXTURE_SVDS = 89


def test_triple_law_fixture_svd_count(monkeypatch):
    calls = _counting(monkeypatch, linalg_impl, "svd")
    monkeypatch.setattr(np.linalg, "svd", linalg_impl.svd)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "thm3.31"]) == 0
    assert len(calls) <= TRIPLE_LAW_FIXTURE_SVDS


# A report row takes ||F|| only when its residual exceeds residual_atol, and
# thm2.8's null-space test reuses the two ranks its row (i) decides: the
# characterizations took 23 and 20 SVDs when every row took both norms and
# the null-space test decided both ranks again.
CHARACTERIZATION_BUDGET = {"check_mrwwd": 17, "check_mrwwd_right": 13}


@pytest.mark.parametrize("name", sorted(CHARACTERIZATION_BUDGET))
def test_characterization_svd_count(monkeypatch, name):
    pair, *candidates = _candidates()
    calls = _counting(monkeypatch, linalg_impl, "svd")
    monkeypatch.setattr(np.linalg, "svd", linalg_impl.svd)
    assert CHECKS[name](pair, *candidates) is not None
    assert len(calls) <= CHARACTERIZATION_BUDGET[name]


def test_fresh_family_takes_one_svd(monkeypatch):
    # the M^+ of the particular solution; no rank is decided for the family
    pair = random_pair(7, 6, 2, 5)
    calls = _counting(monkeypatch, linalg_impl, "svd")
    monkeypatch.setattr(np.linalg, "svd", linalg_impl.svd)
    mrwwd_family(pair)
    assert len(calls) == 1


def test_warm_weak_mpd_forms_the_stabilized_power_once(monkeypatch):
    # a warm family operation on either side: the family keeps K and M beside
    # its M^+, and the membership test hands its (BW)^k and (BW)^(k+1) on to
    # the power row
    pair = random_pair(7, 6, 2, 5)
    P = np.ones((7, 6))
    powers = []
    original = np.linalg.matrix_power

    def recording(A, j):
        powers.append(j)
        return original(A, j)

    for (family, weak), k in zip(FAMILIES, (pair.k_bw, pair.k_wb)):
        X = family(pair).member(P)
        first = weak(pair, X).value
        monkeypatch.setattr(np.linalg, "matrix_power", recording)
        del powers[:]
        again = family(pair).member(P)
        value = weak(pair, again).value
        monkeypatch.setattr(np.linalg, "matrix_power", original)
        assert sorted(powers) == [k, k + 1]
        assert np.array_equal(again, X) and np.array_equal(value, first)
