import gc
import re
import weakref
from dataclasses import replace

import numpy as np
import numpy.linalg._linalg as linalg_impl
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wginv import matcore
from wginv._gen import ex1_member, ex1_pair, random_pair, random_square_with_index
from wginv.decomp import mp_via_blocks, weak_mpd_canonical, weighted_core_ep_decompose
from wginv.matcore import (
    DEFAULT_TOL,
    CertificationError,
    DimensionError,
    ToleranceConfig,
    VerificationReport,
    WeightedPair,
    _exact,
    _judge,
    _passes,
    _range_eqc,
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
from wginv.sqinv import drazin
from wginv.winv import (
    _drazin_kernel,
    _wb_core_ep,
    mrwwd_family,
    mrwwd_right_family,
    w_core_ep,
    w_dmp,
    w_m_weak_core,
    w_mpd,
)

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
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            ToleranceConfig(rank_rtol=bad)
        with pytest.raises(ValueError):
            ToleranceConfig(residual_atol=bad)
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
    assert pair.bw_power(1).shape == (3, 3) and pair.wb_power(1).shape == (4, 4)


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
# factors (B^+, kernel values, power projectors), all at its one tolerance.


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
        pair._pinv(),
        pair._projector("WB", pair.k_wb),
        _drazin_kernel(pair, "BW"),
        _wb_core_ep(pair),
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


# The rule has two evaluators. `_exact` judges every printed row: the exact
# ||R||_2 against residual_atol * (1 + ||F||_2), where ||F|| is taken only
# for a residual above residual_atol. `_judge` judges certificates: a
# Frobenius bound that proves the pass, else `_exact`'s rule. Every refusal
# is raised by one path, `_certify` / `_refuse`.
F_THREE = np.array([[3.0]])
THRESHOLD = DEFAULT_TOL.residual_atol * (1.0 + 3.0)


def test_exact_passes_a_residual_at_the_threshold():
    R = np.array([[THRESHOLD]])
    assert spectral_norm(R) == THRESHOLD  # a 1 x 1 norm is exact
    assert _exact(R, F_THREE, DEFAULT_TOL) == (THRESHOLD, True)


def test_exact_fails_the_next_float_above_with_the_exact_residual():
    above = float(np.nextafter(THRESHOLD, np.inf))
    assert _exact(np.array([[above]]), F_THREE, DEFAULT_TOL) == (above, False)


def test_exact_fails_a_nan_residual():
    R = np.array([[np.inf, 1.0]])  # its 2-norm comes back NaN
    residual, ok = _exact(R, F_THREE, DEFAULT_TOL)
    assert np.isnan(residual)
    assert ok is False


def _svd_calls(monkeypatch) -> list:
    calls = []
    original = linalg_impl.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg_impl, "svd", counted)
    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.mark.parametrize(
    "residual, svds",
    [
        (DEFAULT_TOL.residual_atol, 1),
        (float(np.nextafter(DEFAULT_TOL.residual_atol, np.inf)), 2),
        (2.0 * DEFAULT_TOL.residual_atol, 2),
    ],
)
def test_exact_takes_the_reference_norm_only_above_the_floor(monkeypatch, residual, svds):
    calls = _svd_calls(monkeypatch)
    assert _exact(np.array([[residual]]), F_THREE, DEFAULT_TOL) == (residual, True)
    assert len(calls) == svds


@pytest.mark.parametrize("evaluate", [_exact, _judge], ids=["_exact", "_judge"])
@pytest.mark.parametrize("scale", [0.0, 1e-12, 1e-9, 1e-8, 3e-8, 1e-6])
def test_exact_gives_the_verdict_of_the_full_rule(evaluate, scale):
    # both evaluators give the verdict of the spectral rule; `_exact` always
    # reports the exact residual, `_judge` may report the Frobenius bound of
    # a pass, and a failure's exact residual
    rng = np.random.default_rng(7)
    for _ in range(20):
        F = rng.standard_normal((4, 3)) * rng.choice([0.0, 1e-3, 1.0, 1e3])
        R = scale * rng.standard_normal((4, 3))
        residual = spectral_norm(R)
        verdict = _passes(residual, spectral_norm(F), DEFAULT_TOL)
        reported, ok = evaluate(R, F, DEFAULT_TOL)
        assert ok == verdict
        if evaluate is _exact or not ok:
            assert reported == residual
        else:
            assert residual <= reported <= np.linalg.norm(R)


def _spectral_arguments(monkeypatch) -> list:
    seen = []
    original = matcore.spectral_norm

    def recording(A):
        seen.append(A)
        return original(A)

    monkeypatch.setattr(matcore, "spectral_norm", recording)
    return seen


def test_range_equality_takes_no_reference_norm_after_a_clear_failure(monkeypatch):
    A = RNG.standard_normal((5, 1))
    B = RNG.standard_normal((5, 2))
    seen = _spectral_arguments(monkeypatch)
    residual, ok = _range_eqc(A, B, DEFAULT_TOL)
    assert not ok and residual > DEFAULT_TOL.residual_atol
    # the residual exceeds residual_atol * (1 + ||A||_F), which proves the
    # failure; the second inclusion takes its residual only, not ||B||
    assert not any(arg is A for arg in seen)
    assert not any(arg is B for arg in seen)
    assert len(seen) == 2


def test_range_equality_judges_the_second_inclusion_when_the_first_holds(monkeypatch):
    B = RNG.standard_normal((5, 2))
    A = B[:, :1].copy()
    seen = _spectral_arguments(monkeypatch)
    _, ok = _range_eqc(A, B, DEFAULT_TOL)
    assert not ok
    # R(A) lies in R(B) to roundoff, so ||A|| is not needed; the second
    # residual is taken, and ||B||_F proves it fails, so ||B||_2 is not needed
    assert not any(arg is A for arg in seen)
    assert not any(arg is B for arg in seen)
    assert len(seen) == 2


def test_range_equality_takes_the_exact_reference_in_the_band(monkeypatch):
    # residuals between residual_atol and residual_atol * (1 + ||F||_F) are
    # judged on the exact ||F||_2 in both inclusions
    B = 10.0 * RNG.standard_normal((5, 2))
    Q = np.linalg.qr(np.hstack([B, RNG.standard_normal((5, 1))]))[0]
    A = B + 3e-8 * np.outer(Q[:, 2], [1.0, 1.0]) / np.sqrt(2.0)
    seen = _spectral_arguments(monkeypatch)
    residual, ok = _range_eqc(A, B, DEFAULT_TOL)
    assert ok and DEFAULT_TOL.residual_atol < residual < 1e-7
    assert any(arg is A for arg in seen)
    assert any(arg is B for arg in seen)


@pytest.mark.parametrize("ratio", [5.0, 4.0 * (1.0 + 2e-12)])
def test_exact_proves_a_failure_from_the_frobenius_reference(monkeypatch, ratio):
    # ||F||_2 <= ||F||_F: above residual_atol * (1 + ||F||_F) * (1 + 1e-12)
    # the residual fails whatever ||F||_2 is, and it is still the exact one
    calls = _svd_calls(monkeypatch)
    residual = ratio * DEFAULT_TOL.residual_atol
    assert _exact(np.array([[residual]]), F_THREE, DEFAULT_TOL) == (residual, False)
    assert len(calls) == 1


def test_exact_judges_an_infinite_frobenius_reference_on_its_spectral_norm(monkeypatch):
    F = np.array([[1e200, 1e200]])  # ||F||_F overflows, ||F||_2 does not
    assert matcore._frobenius(F) == np.inf
    calls = _svd_calls(monkeypatch)
    assert _exact(np.array([[1.0]]), F, DEFAULT_TOL) == (1.0, True)
    assert len(calls) == 2


def test_exact_proves_no_failure_from_a_wrapped_integer_reference():
    # the squares of an int64 reference overflow its dot product; the
    # Frobenius bound is taken in floating point, so the row passes
    F = np.full((1, 2), 3_037_000_500, dtype=np.int64)
    assert _exact(np.array([[1.0]]), F, DEFAULT_TOL) == (1.0, True)


def _refuse_canonical(tol):
    # the membership test refuses the fixture member below its range residual
    # (about 1e-15, see tests/test_svd_budget.py), so the canonical form is
    # refused at the default tolerance, on bases taken in reverse order
    pair = ex1_pair()
    dec = weighted_core_ep_decompose(pair)
    reversed_bases = replace(dec, M=dec.M[:, ::-1])
    weak_mpd_canonical(pair, ex1_member(2, -1), dec=reversed_bases)


REFUSALS = {
    "drazin": lambda tol: drazin(random_square_with_index(6, 2, np.random.default_rng(7)), tol),
    "mrwwd_family": lambda tol: mrwwd_family(random_pair(7, 6, 2, 5, tol=tol)),
    "mrwwd_right_family": lambda tol: mrwwd_right_family(random_pair(7, 6, 2, 5, tol=tol)),
    # the default pair's decomposition, read on the pair built at `tol`
    "mp_via_blocks": lambda tol: mp_via_blocks(
        replace(weighted_core_ep_decompose(ex1_pair()), pair=ex1_pair(tol))
    ),
    "weak_mpd_canonical": _refuse_canonical,
}


@pytest.mark.parametrize("kind", REFUSALS)
def test_every_refusal_names_the_callers_kind_and_the_exact_residual(monkeypatch, kind):
    # one raising path, matcore._refuse: the message opens with the caller's
    # kind and names an exact spectral residual, never a Frobenius bound
    spectral, frobenius = set(), set()
    original_norm, original_frobenius = matcore.spectral_norm, matcore._frobenius

    def recording_norm(A):
        value = original_norm(A)
        spectral.add(f"{value:.3e}")
        return value

    def recording_frobenius(A):
        value = original_frobenius(A)
        frobenius.add(f"{value:.3e}")
        return value

    monkeypatch.setattr(matcore, "spectral_norm", recording_norm)
    monkeypatch.setattr(matcore, "_frobenius", recording_frobenius)
    with pytest.raises(CertificationError, match=f"^{kind}: check '") as info:
        REFUSALS[kind](ToleranceConfig(residual_atol=1e-30))
    named = re.search(r"has residual (\S+) beyond tolerance$", str(info.value)).group(1)
    assert named in spectral
    assert named not in frobenius - spectral
