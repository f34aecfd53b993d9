"""SVD budget of the public constructors.

Certification decides a pass from Frobenius norms and reuses the indices a
WeightedPair caches, so building and certifying a value takes a handful of
SVDs. Every numpy SVD is counted: the public `numpy.linalg.svd` and the one
in `numpy.linalg._linalg` that `norm(A, 2)` calls.
"""

import numpy as np
import numpy.linalg._linalg as linalg_impl
import pytest

from wginv import matcore, sqinv
from wginv._gen import random_pair, random_square_with_index
from wginv.matcore import CertificationError, HypothesisError, ToleranceConfig
from wginv.verify import (
    check_dmp_characterizations,
    check_mpd_characterizations,
    check_mrwwd,
    check_mrwwd_right,
)
from wginv.winv import (
    CATALOG,
    _bw_drazin,
    compute_kind,
    mrwwd_family,
    mrwwd_right_family,
    w_core_ep,
    w_dmp,
    w_drazin,
    w_m_weak_core,
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
    calls = _counting(monkeypatch, sqinv, "index_of")
    calls += _counting(monkeypatch, matcore, "index_of")
    result = build(pair_and_member[0])
    assert calls == []
    assert result.index_used == 2


# A WeightedPair caches B^+, the Drazin and core-EP kernels of BW and WB and
# the projectors onto their powers, so kinds built on the same pair share
# them. The nine catalog kinds with weak_mpd and weak_dmp took 83 SVDs on a
# fresh pair when each constructor built its own factors.
CATALOG_AND_WEAK_BUDGET = 25


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


def test_cached_factors_are_keyed_by_tolerance():
    pair = random_pair(7, 6, 2, 5)
    w_mpd(pair)
    tight = ToleranceConfig(residual_atol=1e-300)
    with pytest.raises(CertificationError):
        w_mpd(pair, tight)
    # a kernel value certified at one tolerance is certified anew at another
    with pytest.raises(CertificationError):
        _bw_drazin(pair, tight)
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


# The checkers and the membership test judge a caller's candidate: they
# rebuild every factor from B and W and read nothing from the pair's memo, so
# a check costs the same on every call and cannot inherit a cached factor.


def _candidates():
    """A fresh pair, members X and Z of its two families and their weak
    inverses Y and Y1, drawn on a twin pair so that the pair's memo is empty."""
    pair = random_pair(7, 6, 2, 5)
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


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_checks_rebuild_their_factors_on_every_call(monkeypatch, name):
    pair, *candidates = _candidates()
    calls = _counting(monkeypatch, linalg_impl, "svd")
    monkeypatch.setattr(np.linalg, "svd", linalg_impl.svd)
    counts = []
    for _ in range(2):
        del calls[:]
        CHECKS[name](pair, *candidates)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
    assert not pair._memo
    assert not pair.H._memo
