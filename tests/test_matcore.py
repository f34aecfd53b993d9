import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wginv._gen import random_pair
from wginv.matcore import (
    DEFAULT_TOL,
    DimensionError,
    ToleranceConfig,
    VerificationReport,
    WeightedPair,
    as_matrix,
    index_of,
    mp_inverse,
    oblique_projector_check,
    projector_onto,
    range_inclusion,
    rank_of,
    spectral_norm,
    weighted_pair,
)
from wginv.winv import _bw_drazin, _wb_core_ep, w_core_ep, w_dmp, w_m_weak_core, w_mpd

RNG = np.random.default_rng(20240817)


def shift(t):
    return np.eye(t, k=1)


def test_as_matrix_rejects_non_2d_and_nonfinite():
    with pytest.raises(DimensionError):
        as_matrix(np.ones(3))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_tolerance_config_validation():
    with pytest.raises(ValueError):
        ToleranceConfig(rank_rtol=-1.0)
    with pytest.raises(ValueError):
        ToleranceConfig(residual_atol=0.0)
    cfg = ToleranceConfig(rank_rtol=1e-9, residual_atol=1e-7)
    assert cfg.rank_rtol == 1e-9


def test_spectral_norm_matches_largest_singular_value():
    A = RNG.standard_normal((4, 6))
    assert spectral_norm(A) == pytest.approx(np.linalg.svd(A, compute_uv=False)[0])
    assert spectral_norm(np.zeros((0, 3))) == 0.0


def test_mp_inverse_rectangular_oracle():
    # pinv of [[1, 1], [0, 0]] is [[0.5, 0], [0.5, 0]]
    S = np.array([[1.0, 1.0], [0.0, 0.0]])
    assert np.allclose(mp_inverse(S), [[0.5, 0.0], [0.5, 0.0]], atol=1e-14)


def test_mp_inverse_floor_zeroes_noise_blocks():
    noise = 1e-15 * RNG.standard_normal((2, 3))
    assert spectral_norm(mp_inverse(noise, floor=1.0)) == 0.0
    # without the floor the same block inverts to something huge
    assert spectral_norm(mp_inverse(noise)) > 1e10


def test_rank_and_index_on_shift_blocks():
    t = 3
    S = shift(t)
    assert rank_of(S) == t - 1
    assert index_of(S) == t
    assert index_of(np.eye(4)) == 0
    assert index_of(np.zeros((3, 3))) == 1
    assert index_of(np.zeros((0, 0))) == 0
    with pytest.raises(DimensionError):
        index_of(np.ones((2, 3)))


def test_projector_and_range_inclusion():
    A = RNG.standard_normal((5, 2))
    P = projector_onto(A)
    assert np.allclose(P @ P, P, atol=1e-12)
    assert np.allclose(P @ A, A, atol=1e-12)
    assert range_inclusion(A[:, :1], A)
    assert not range_inclusion(RNG.standard_normal((5, 1)), A)


def test_report_conditions_notes_and_dict():
    report = VerificationReport("demo", DEFAULT_TOL)
    report.add("ok row", 1e-12, True)
    r = report.add_equation("eq row", np.eye(2), np.eye(2))
    assert r == 0.0
    report.add_rank_gap("rank row", 2, 2)
    report.note("extra", 0.25)
    assert report.overall
    assert report.worst_residual() == pytest.approx(1e-12)
    doc = report.to_dict()
    assert doc["theorem_id"] == "demo"
    assert doc["overall"] is True
    assert doc["conditions"][0]["residual"] == "%.16e" % 1e-12
    assert doc["notes"][0]["label"] == "extra"

    other = VerificationReport("demo", DEFAULT_TOL)
    other.add("bad row", 1.0, False)
    report.merge(other, prefix="sub: ")
    assert not report.overall
    assert any(label == "sub: bad row" for label, _, _ in report.conditions)


def test_oblique_projector_check_detects_wrong_null_space():
    # null spaces are compared through row spaces, so P itself is a valid
    # null generator while a projector with a different kernel is not
    P = np.diag([1.0, 1.0, 0.0])
    ok = oblique_projector_check(P, P, P)
    assert ok.overall
    bad = oblique_projector_check(P, P, np.diag([0.0, 1.0, 1.0]))
    assert not bad.overall


def test_weighted_pair_shape_and_zero_weight():
    B = RNG.standard_normal((3, 4))
    with pytest.raises(DimensionError):
        weighted_pair(B, np.zeros((3, 4)))
    with pytest.raises(ValueError):
        weighted_pair(B, np.zeros((4, 3)))
    pair = weighted_pair(B, RNG.standard_normal((4, 3)))
    assert pair.m == 3 and pair.n == 4
    assert pair.bw().shape == (3, 3) and pair.wb().shape == (4, 4)


MAT_DIM = 4
ENTRIES = st.floats(min_value=-2.0, max_value=2.0)


@seed(1)
@settings(deadline=None, max_examples=40)
@given(A=arrays(np.float64, (MAT_DIM, MAT_DIM + 1), elements=ENTRIES))
def test_mp_inverse_penrose_equations(A):
    Ap = mp_inverse(A)
    scale = 1.0 + spectral_norm(A) ** 2
    assert spectral_norm(A @ Ap @ A - A) <= 1e-9 * scale
    assert spectral_norm(Ap @ A @ Ap - Ap) <= 1e-9 * (1.0 + spectral_norm(Ap) ** 2)
    assert spectral_norm(A @ Ap - (A @ Ap).conj().T) <= 1e-9 * scale
    assert spectral_norm(Ap @ A - (Ap @ A).conj().T) <= 1e-9 * scale


# A WeightedPair owns read-only copies of B and W and a memo of shared
# factors (B^+, kernel values, power projectors) keyed by tolerance.


def _used_pair():
    pair = random_pair(7, 6, 2, 5)
    w_m_weak_core(pair, 2)
    w_dmp(pair)  # builds the dual pair and fills its memo
    return pair


def test_weighted_pair_copies_the_callers_matrices():
    B = RNG.standard_normal((5, 4)) + 1j * RNG.standard_normal((5, 4))
    W = RNG.standard_normal((4, 5))
    pair = weighted_pair(B, W)
    before = pair.B.copy(), w_mpd(pair).value, w_core_ep(pair).value
    B[:] = 0.0
    W *= 3.0
    assert np.array_equal(pair.B, before[0])
    assert np.array_equal(w_mpd(pair).value, before[1])
    assert np.array_equal(w_core_ep(pair).value, before[2])


def test_directly_built_pair_copies_its_matrices():
    B = RNG.standard_normal((5, 4)) + 1j * RNG.standard_normal((5, 4))
    W = RNG.standard_normal((4, 5))
    built = weighted_pair(B, W)
    pair = WeightedPair(B, W, built.k_bw, built.k_wb)
    value = w_mpd(pair).value
    B[:] = 0.0
    W *= 3.0
    assert not pair.B.flags.writeable and not pair.W.flags.writeable
    assert np.array_equal(pair.B, built.B) and np.array_equal(pair.W, built.W)
    assert np.array_equal(w_mpd(pair).value, value)


def test_pair_matrices_and_cached_factors_are_read_only():
    pair = _used_pair()
    factors = [
        pair.B,
        pair.W,
        pair.H.B,
        pair._pinv(DEFAULT_TOL),
        pair._projector("WB", pair.k_wb, DEFAULT_TOL),
        _bw_drazin(pair, DEFAULT_TOL),
        _wb_core_ep(pair, DEFAULT_TOL),
    ]
    for A in factors:
        with pytest.raises(ValueError):
            A[0, 0] = 1.0


def test_dual_pair_is_built_once():
    pair = _used_pair()
    assert pair.H is pair.H
    assert np.array_equal(pair.H.B, pair.B.conj().T)
    assert (pair.H.k_bw, pair.H.k_wb) == (pair.k_wb, pair.k_bw)


def test_pair_with_dual_and_memo_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        pair = _used_pair()
        assert pair._memo and pair.H._memo
        ref, dual_ref = weakref.ref(pair), weakref.ref(pair.H)
        del pair
        assert ref() is None
        assert dual_ref() is None
    finally:
        gc.enable()
