"""The right-hand (DMP) functions are the left-hand (MPD) ones on the dual pair
(B^*, W^*), read through the adjoint. These tests run them on complex pairs,
where a conjugate transpose and a plain transpose differ, and compare them
with the right-hand definitions computed directly."""

import numpy as np
import pytest

from wginv import winv
from wginv._gen import random_pair
from wginv.perturb import (
    PerturbationScenario,
    admissible_perturbation,
    dmp_perturbation,
    perturbed_mrwwd_right,
)
from wginv.matcore import (
    CertificationError,
    DimensionError,
    HypothesisError,
    ToleranceConfig,
    VerificationReport,
    weighted_pair,
)
from wginv.verify import (
    check_dmp_characterizations,
    check_mp_drazin_absorption,
    check_mrwwd_right,
    check_projectors_right,
    check_unique_projector_solution,
    check_weak_dmp_system,
    one_inverse_family_right,
)
from wginv.winv import mrwwd_family, mrwwd_right_family, w_dmp, w_drazin, weak_dmp

# (m, n, index, seed) for random_pair
CASES = [(5, 4, 2, 3), (6, 6, 1, 11), (4, 6, 2, 5), (7, 5, 3, 8)]


def _h(A):
    return A.conj().T


def _noise(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unitary(rng, n):
    Q, R = np.linalg.qr(_noise(rng, (n, n)))
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def complex_pair(m, n, index, seed):
    """random_pair conjugated by complex diagonal unitaries: B -> D1 B D2 and
    W -> D2^* W D1^*, so BW and WB are unitarily similar to the real ones."""
    base = random_pair(m, n, index, seed)
    rng = np.random.default_rng([seed, 1])
    d1 = np.exp(2j * np.pi * rng.random(m))
    d2 = np.exp(2j * np.pi * rng.random(n))
    return weighted_pair(d1[:, None] * base.B * d2, d2.conj()[:, None] * base.W * d1.conj())


def _close(A, B, rtol=1e-8):
    return np.linalg.norm(A - B, 2) <= rtol * max(1.0, np.linalg.norm(B, 2))


def _drazin(S, k):
    Sk = np.linalg.matrix_power(S, k)
    return Sk @ np.linalg.pinv(np.linalg.matrix_power(S, 2 * k + 1), rcond=1e-10) @ Sk


def _right_member(pair, seed):
    P = 0.4 * _noise(np.random.default_rng([seed, 2]), (pair.m, pair.n))
    return mrwwd_right_family(pair).member(P)


@pytest.fixture(scope="module", params=CASES, ids=lambda c: "{}x{} index {} seed {}".format(*c))
def case(request):
    m, n, index, seed = request.param
    pair = complex_pair(m, n, index, seed)
    assert np.abs(pair.B.imag).max() > 0.1
    Z = _right_member(pair, seed)
    return pair, Z, weak_dmp(pair, Z).value, np.random.default_rng([seed, 3])


def test_dual_pair_is_the_adjoint_pair_with_swapped_indices():
    # ind(BW) = 1 and ind(WB) = 2 on well separated singular values, hidden
    # by complex unitary changes of basis
    rng = np.random.default_rng(31)
    U, V = _unitary(rng, 2), _unitary(rng, 3)
    B = U @ np.array([[2.0, 0, 0], [0, 1, 0]]) @ _h(V)
    W = V @ np.array([[1.0, 0], [0, 0], [0, 1]]) @ _h(U)
    pairs = [weighted_pair(B, W)] + [complex_pair(*c) for c in CASES]
    assert (pairs[0].k_bw, pairs[0].k_wb) == (1, 2)
    for pair in pairs:
        dual = pair.H
        assert np.array_equal(dual.B, _h(pair.B)) and np.array_equal(dual.W, _h(pair.W))
        fresh = weighted_pair(_h(pair.B), _h(pair.W))
        assert (dual.k_bw, dual.k_wb) == (fresh.k_bw, fresh.k_wb) == (pair.k_wb, pair.k_bw)
        assert np.array_equal(dual.H.B, pair.B) and np.array_equal(dual.H.W, pair.W)


def test_w_dmp_matches_its_definition(case):
    pair, _, _, _ = case
    B, W, k = pair.B, pair.W, pair.k_wb
    wd = np.linalg.matrix_power(_drazin(B @ W, pair.k_bw), 2) @ B
    result = w_dmp(pair)
    assert result.kind == "w-dmp" and result.index_used == k
    assert _close(result.value, W @ wd @ W @ B @ np.linalg.pinv(B, rcond=1e-10))


def test_right_family_members_solve_the_right_power_equation(case):
    pair, Z, _, _ = case
    k = pair.k_wb
    BW, WB = pair.B @ pair.W, pair.W @ pair.B
    N = np.linalg.matrix_power(WB, k)
    assert _close(pair.W @ np.linalg.matrix_power(BW, k + 1) @ Z, N)
    assert np.linalg.matrix_rank(Z, tol=1e-8) == np.linalg.matrix_rank(N, tol=1e-8)
    family = mrwwd_right_family(pair)
    assert family.side == "right" and family.particular.shape == (pair.m, pair.n)


def test_right_family_is_the_adjoint_of_the_dual_left_family(case):
    pair, _, _, rng = case
    P = _noise(rng, (pair.m, pair.n))
    dual = mrwwd_family(pair.H)
    assert _close(mrwwd_right_family(pair).member(P), _h(dual.member(_h(P))), 1e-12)


def test_weak_dmp_matches_its_definition(case):
    pair, Z, Y1, _ = case
    B, W = pair.B, pair.W
    assert _close(Y1, W @ Z @ W @ B @ np.linalg.pinv(B, rcond=1e-10))


def _unique_right(pair, Z, Y1):
    return check_unique_projector_solution(pair, Z, Y1, side="right")


@pytest.mark.parametrize(
    "check",
    [check_weak_dmp_system, check_dmp_characterizations, check_projectors_right, _unique_right],
)
def test_right_checkers_accept_genuine_and_refuse_bumped_inverses(case, check):
    pair, Z, Y1, rng = case
    report = check(pair, Z, Y1)
    assert report.overall, report.conditions
    bumped = Y1 + 1e-3 * np.linalg.norm(Y1, 2) * _noise(rng, Y1.shape)
    assert not check(pair, Z, bumped).overall


def test_right_membership_accepts_genuine_and_refuses_bumped_members(case):
    pair, Z, _, rng = case
    report = check_mrwwd_right(pair, Z)
    assert report.overall, report.conditions
    bumped = Z + 1e-3 * np.linalg.norm(Z, 2) * _noise(rng, Z.shape)
    assert not any(ok for _, _, ok in check_mrwwd_right(pair, bumped).conditions)


def test_right_statements_hold_on_genuine_right_inputs(case):
    pair, Z, _, rng = case
    B, W, Xd = pair.B, pair.W, w_drazin(pair).value
    assert check_mp_drazin_absorption(pair, Xd, Z).overall
    U = _noise(rng, (pair.n, pair.m))
    Q, report = one_inverse_family_right(pair, U, Z=Z)
    N = np.linalg.matrix_power(W @ B, pair.k_wb)
    row_projector = np.linalg.pinv(N, rcond=1e-10) @ N
    assert report.overall
    assert _close(Q, np.linalg.pinv(B, rcond=1e-10) + (np.eye(pair.n) - row_projector) @ U)
    # the weighted Drazin inverse lies in both families
    assert admissible_perturbation(pair, Xd, 0.1, 0, side="right").side == "right"


def test_right_perturbation_statements_hold_on_complex_pairs(case):
    # thm3.18 and thm3.20 are thm3.17 and thm3.19 on the dual scenario, so
    # a plain transpose in place of an adjoint would fail them here
    pair, Z, _, _ = case
    scenario = admissible_perturbation(pair, Z, 0.1, 4, side="right", family="random")
    assert np.abs(scenario.E.imag).max() > 0.0
    for chain in (perturbed_mrwwd_right, dmp_perturbation):
        report = chain(scenario)
        assert report.overall, report.conditions


def test_right_flags_are_the_right_hand_subspace_and_norm_tests(case):
    # a generic E fails every subspace flag, so each value is a residual of
    # its own size, computed here from the right-hand definitions
    pair, Z, _, _ = case
    E = 0.05 * _noise(np.random.default_rng(17), (pair.m, pair.n))
    flags = PerturbationScenario(pair, Z, "right", E)._flags
    B, W = pair.B, pair.W
    Bp = np.linalg.pinv(B, rcond=1e-10)
    WE, WBWZ = W @ E, W @ B @ W @ Z
    N = np.linalg.matrix_power(W @ B, pair.k_wb)
    direct = {
        "range WE in member product": WE - WBWZ @ np.linalg.pinv(WBWZ, rcond=1e-10) @ WE,
        "rows WE in WB power": WE - WE @ np.linalg.pinv(N, rcond=1e-10) @ N,
        "range E in B": E - B @ Bp @ E,
        "rows E in B": E - E @ Bp @ B,
        "norm ZWEW": Z @ W @ E @ W,
        "norm EBp": E @ Bp,
    }
    assert list(flags) == list(direct)
    for name, A in direct.items():
        assert np.isclose(flags[name][0], np.linalg.norm(A, 2), rtol=1e-8, atol=1e-14), name


def test_mirrored_renames_reorders_and_keeps_notes():
    report = VerificationReport("left")
    report.add("a", 1.0, True)
    report.add("b", 2.0, False)
    report.note("n", 3.0)
    right = report.mirrored("right", {"b": "B", "a": "A"})
    assert right.theorem_id == "right"
    assert right.conditions == [("B", 2.0, False), ("A", 1.0, True)]
    assert right.notes == [("n", 3.0)]
    with pytest.raises(ValueError):
        report.mirrored("right", {"a": "A"})
    with pytest.raises(ValueError):
        report.mirrored("right", {"a": "A", "b": "B", "c": "C"})


def _not_right_member(pair, Z):
    return Z + 0.1 * np.linalg.norm(Z, 2) * _noise(np.random.default_rng(5), Z.shape)


@pytest.mark.parametrize(
    "call",
    [
        lambda pair, Z, Y1: weak_dmp(pair, Z),
        lambda pair, Z, Y1: check_projectors_right(pair, Z),
        lambda pair, Z, Y1: check_unique_projector_solution(pair, Z, Y1, side="right"),
        lambda pair, Z, Y1: one_inverse_family_right(pair, np.zeros((pair.n, pair.m)), Z=Z),
        lambda pair, Z, Y1: check_mp_drazin_absorption(pair, w_drazin(pair).value, Z),
    ],
    ids=["weak_dmp", "projectors", "unique", "one_inverse", "absorption"],
)
def test_right_hand_errors_use_the_callers_names_and_shapes(case, call):
    pair, Z, Y1, _ = case
    with pytest.raises(HypothesisError, match="^Z is not a member of the right solution family"):
        call(pair, _not_right_member(pair, Z), Y1)
    if pair.m != pair.n:
        wrong = np.zeros((pair.n, pair.m))
        shapes = rf"member shape \({pair.n}, {pair.m}\) != \({pair.m}, {pair.n}\)"
        with pytest.raises(DimensionError, match=shapes):
            call(pair, wrong, Y1)


def test_weak_dmp_scans_its_member_once_and_keeps_its_errors(case, monkeypatch):
    pair, Z, Y1, _ = case
    scanned = []
    as_matrix = winv.as_matrix
    monkeypatch.setattr(winv, "as_matrix", lambda A: scanned.append(np.shape(A)) or as_matrix(A))
    assert np.array_equal(weak_dmp(pair, Z).value, Y1)
    assert scanned == [Z.shape]  # Z alone, not its adjoint on the dual too
    bad = Z.copy()
    bad[0, 0] = np.nan
    for wrong in (bad, bad.T):  # the scan comes before the shape check
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            weak_dmp(pair, wrong)
    with pytest.raises(DimensionError, match=r"^expected a 2-d array, got shape \(3,\)$"):
        weak_dmp(pair, np.zeros(3))
    if pair.m != pair.n:
        shapes = rf"^member shape \({pair.n}, {pair.m}\) != \({pair.m}, {pair.n}\)$"
        with pytest.raises(DimensionError, match=shapes):
            weak_dmp(pair, Z.T)


def test_one_inverse_family_right_reports_the_callers_u_shape(case):
    pair, Z, _, _ = case
    with pytest.raises(ValueError, match=rf"U must be {pair.n} x {pair.m}, got \(2, 3\)"):
        one_inverse_family_right(pair, np.zeros((2, 3)), Z)


def test_right_hand_certification_errors_use_the_callers_names(case):
    pair = case[0]
    with pytest.raises(CertificationError, match="^mrwwd_right_family: check 'power equation'"):
        mrwwd_right_family(weighted_pair(pair.B, pair.W, ToleranceConfig(residual_atol=1e-30)))


def _unequal_index_pair(rng):
    """A complex pair with ind(BW) = 1 and ind(WB) = 2: B = P (B0 + C) Q^*,
    W = Q (W0 + D) P^* with B0 W0 = 0, W0 B0 the 2 x 2 shift and C, D
    invertible blocks."""
    B0, W0 = np.zeros((4, 4), dtype=complex), np.zeros((4, 4), dtype=complex)
    B0[0, 1] = W0[0, 0] = 1.0
    B0[2:, 2:] = np.eye(2) + 0.3 * _noise(rng, (2, 2))
    W0[2:, 2:] = np.eye(2) + 0.3 * _noise(rng, (2, 2))
    P, Q = (np.linalg.qr(_noise(rng, (4, 4)))[0] for _ in range(2))
    return weighted_pair(P @ B0 @ _h(Q), Q @ W0 @ _h(P))


def _row_space_reference(A, q):
    """The orthogonal projector onto the row space of A from the leading q
    right singular vectors of its SVD."""
    V = _h(np.linalg.svd(A)[2][:q])
    return V @ _h(V)


def test_row_projector_matches_an_svd_reference():
    # the dual's projector onto a stabilized power is the pair's projector
    # onto the row space of the other product's power, built from the
    # staircase by one QR; it agrees with an SVD of the power, also where
    # the two indices differ
    rng = np.random.default_rng(13)
    pairs = [random_pair(*case) for case in CASES]
    pairs += [weighted_pair(_noise(rng, (3, 5)), _noise(rng, (5, 3))) for _ in range(3)]
    pairs += [_unequal_index_pair(rng) for _ in range(3)]
    assert any(pair.k_bw != pair.k_wb for pair in pairs)
    for pair in pairs:
        for side, power, dual_side in (("BW", pair.bw_power, "WB"), ("WB", pair.wb_power, "BW")):
            k = pair._k(side)
            q = pair._rank(side, k)
            P = pair._row_projector(side)
            assert np.linalg.norm(P - _row_space_reference(power(k), q), 2) <= 1e-12
            # read, not rebuilt, by the dual at and above its index
            dual = pair.H
            for j in (k, k + 1):
                assert dual._projector(dual_side, j) is P
