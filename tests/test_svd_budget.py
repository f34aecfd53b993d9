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
from wginv._gen import random_pair
from wginv.winv import mrwwd_family, w_core_ep, w_drazin, w_m_weak_core, w_mpd, weak_mpd

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
