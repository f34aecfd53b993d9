import numpy as np
import pytest

from wginv import winv
from wginv._gen import ex1_member, ex1_pair, random_pair
from wginv.decomp import (
    canonical_report,
    decomposition_report,
    mp_via_blocks,
    weak_mpd_canonical,
    weighted_core_ep_decompose,
)
from wginv.matcore import (
    HypothesisError,
    index_of,
    mp_inverse,
    spectral_norm,
)
from wginv.winv import mrwwd_family, weak_mpd


def _random_case(i):
    rng = np.random.default_rng([73, i])
    m = int(rng.integers(3, 8))
    n = int(rng.integers(3, 8))
    t = min(int(rng.integers(1, 4)), min(m, n) - 1)
    return random_pair(m, n, t, rng), rng


def test_decomposition_reassembles_fixture():
    pair = ex1_pair()
    dec = weighted_core_ep_decompose(pair)
    assert spectral_norm(dec.assemble_b() - pair.B) <= 1e-10
    assert spectral_norm(dec.assemble_w() - pair.W) <= 1e-10
    # tails must be nilpotent and the leading blocks invertible
    k = max(pair.k_bw, pair.k_wb)
    assert spectral_norm(np.linalg.matrix_power(dec.B3 @ dec.W3, k)) <= 1e-10
    assert np.linalg.matrix_rank(dec.B1) == dec.q
    assert np.linalg.matrix_rank(dec.W1) == dec.q


def test_decomposition_report_green_on_random_pairs():
    for i in range(12):
        pair, _ = _random_case(i)
        dec = weighted_core_ep_decompose(pair)
        report = decomposition_report(dec)
        assert report.overall, report.to_dict()
        assert spectral_norm(dec.assemble_b() - pair.B) <= 1e-10
        assert spectral_norm(dec.assemble_w() - pair.W) <= 1e-10


def test_block_moore_penrose_matches_svd():
    for i in range(12):
        pair, _ = _random_case(i)
        dec = weighted_core_ep_decompose(pair)
        got = mp_via_blocks(dec)
        want = mp_inverse(pair.B)
        assert spectral_norm(got - want) <= 1e-8 * (1.0 + spectral_norm(want)), i


def test_block_moore_penrose_handles_roundoff_tail():
    # rank decisions inside B3 must use the scale of B: a tail that is pure
    # roundoff has to invert to zero instead of minting a spurious direction
    rng = np.random.default_rng([7, 7])
    pair = random_pair(3, 4, 1, rng)
    dec = weighted_core_ep_decompose(pair)
    got = mp_via_blocks(dec)
    assert spectral_norm(got - mp_inverse(pair.B)) <= 1e-8


def test_canonical_form_on_fixture_members():
    pair = ex1_pair()
    for x1, x2 in ((0, 0), (1, 2), (-2, 3)):
        res = weak_mpd_canonical(pair, ex1_member(x1, x2))
        direct = weak_mpd(pair, ex1_member(x1, x2)).value
        assert spectral_norm(res.value - direct) <= 1e-10
        assert res.kind == "weak-mpd"
        assert res.index_used == pair.k_bw


def test_canonical_form_random_members():
    for i in range(12):
        pair, rng = _random_case(i)
        X = mrwwd_family(pair).member(0.5 * rng.standard_normal((pair.m, pair.n)))
        res = weak_mpd_canonical(pair, X)
        assert max(res.residuals.values()) <= 1e-8, (i, res.residuals)


def test_canonical_form_small_rank_deficient_tail():
    # regression: with a relative rank cutoff a pure-roundoff tail gained a
    # spurious direction and the block pinv drifted by ~0.6
    rng = np.random.default_rng([7, 7])
    pair = random_pair(3, 4, 1, rng)
    X = mrwwd_family(pair).member(0.5 * rng.standard_normal((3, 4)))
    res = weak_mpd_canonical(pair, X)
    assert max(res.residuals.values()) <= 1e-8, res.residuals


def test_canonical_rejects_non_member():
    # a non-member is a failed hypothesis, as in weak_mpd (CLI exit 3)
    pair = ex1_pair()
    with pytest.raises(HypothesisError, match="^X is not a member of the left solution family"):
        weak_mpd_canonical(pair, np.ones((5, 4)))


def test_canonical_report_shape():
    pair = ex1_pair()
    report = canonical_report(pair, ex1_member(2, -1))
    assert report.overall
    labels = [c["label"] for c in report.to_dict()["conditions"]]
    assert "canonical member form" in labels
    assert "agreement with direct value" in labels
    assert "block Moore-Penrose" in labels


def test_index_consistency_with_tail():
    pair = ex1_pair()
    dec = weighted_core_ep_decompose(pair)
    tail = dec.B3 @ dec.W3
    if tail.shape[0]:
        assert index_of(tail) <= max(pair.k_bw, pair.k_wb)


def test_canonical_runs_the_membership_test_once(monkeypatch):
    # the value it is checked against is built on the member it certified
    calls = []
    power_equation = winv._power_equation

    def recording(*args):
        calls.append(args)
        return power_equation(*args)

    monkeypatch.setattr(winv, "_power_equation", recording)
    weak_mpd_canonical(ex1_pair(), ex1_member(2, -1))
    assert len(calls) == 1
