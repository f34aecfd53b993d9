import numpy as np
import pytest

from wginv._gen import ex1_member, ex1_pair, random_pair
from wginv.matcore import DimensionError, HypothesisError, mp_inverse, spectral_norm
from wginv.verify import (
    check_dmp_characterizations,
    check_mp_drazin_absorption,
    check_mpd_characterizations,
    check_mrwwd,
    check_mrwwd_right,
    check_projectors,
    check_projectors_right,
    check_unique_projector_solution,
    check_wdrazin_specialization,
    check_weak_dmp_system,
    check_weak_mpd_system,
    mpd_general_solution,
    one_inverse_family,
    one_inverse_family_right,
)
from wginv.winv import (
    mrwwd_family,
    mrwwd_right_family,
    w_drazin,
    weak_dmp,
    weak_mpd,
)


def _bump(A, rng):
    G = rng.standard_normal(A.shape)
    return A + 0.05 * max(1.0, spectral_norm(A)) * G / spectral_norm(G)


def _case(i):
    rng = np.random.default_rng([97, i])
    m = int(rng.integers(3, 8))
    n = int(rng.integers(3, 8))
    t = min(int(rng.integers(1, 4)), min(m, n) - 1)
    pair = random_pair(m, n, t, rng)
    X = mrwwd_family(pair).member(0.5 * rng.standard_normal((m, n)))
    Z = mrwwd_right_family(pair).member(0.5 * rng.standard_normal((m, n)))
    return pair, X, Z, rng


def test_left_membership_accepts_and_rejects_uniformly():
    pair = ex1_pair()
    good = check_mrwwd(pair, ex1_member(2, -1))
    assert good.overall
    assert len(good.conditions) == 7
    rng = np.random.default_rng(3)
    bad = check_mrwwd(pair, _bump(ex1_member(2, -1), rng))
    # every characterization is equivalent: a non-member must fail all seven
    assert all(not ok for _, _, ok in bad.conditions)


def test_right_membership_accepts_and_rejects_uniformly():
    for i in range(4):
        pair, _, Z, rng = _case(i)
        good = check_mrwwd_right(pair, Z)
        assert good.overall, good.to_dict()
        bad = check_mrwwd_right(pair, _bump(Z, rng))
        assert all(not ok for _, _, ok in bad.conditions), i


def test_membership_at_higher_power_still_holds():
    # the power equation transports upward: a member at the pair's own index
    # stays a member when checked at any larger power
    pair, X, Z, _ = _case(1)
    up = check_mrwwd(pair, X, power=pair.k_bw + 2)
    assert up.overall
    up_r = check_mrwwd_right(pair, Z, power=pair.k_wb + 2)
    assert up_r.overall


def test_characterizations_read_the_family_product_at_their_power():
    # W (BW)^(j+1) is read from the pair's memo, keyed by the power j, and is
    # bitwise the product a check formed for itself; the right-hand check
    # reads it from the dual pair's memo
    pair, X, Z, _ = _case(1)
    sides = (
        (pair, lambda j: check_mrwwd(pair, X, power=j), pair.k_bw),
        (pair.H, lambda j: check_mrwwd_right(pair, Z, power=j), pair.k_wb),
    )
    for reader, check, k in sides:
        for j in (k, k + 2):
            check(j)
            M = reader._memo["W BW^", j + 1]
            assert M.tobytes() == (reader.W @ reader.bw_power(j + 1)).tobytes()


@pytest.mark.parametrize("side", ["left", "right"])
def test_range_rows_refuse_a_rank_drop_and_a_component_outside_the_range(side):
    # rows (ii), (iii) and (v) judge R(X) = R((BW)^k) (thm2.8: the row space
    # of Z against that of (WB)^k) as an inclusion plus equal ranks, so each
    # half alone must fail them. Both candidates keep the outer equation
    # X A X = X, A = W B W, so row (iii) fails on the range alone: a member
    # with its top singular direction removed stays inside the range at rank
    # q - 1, and a member plus a small component along N(X A) leaves the
    # range at rank q.
    pair, X, Z, _ = _case(1)
    dual = side == "right"
    p, member = (pair.H, Z.conj().T) if dual else (pair, X)
    check = check_mrwwd_right if dual else check_mrwwd
    U, s, Vh = np.linalg.svd(member)
    q = int(np.sum(s > 1e-8 * s[0]))
    A = p.W @ p.B @ p.W
    u = np.linalg.svd(member @ A)[2][-1].conj()  # (X A) u = 0
    dropped = member - s[0] * np.outer(U[:, 0], Vh[0])
    outside = member + 1e-3 * s[0] * np.outer(u, Vh[0])
    assert np.linalg.matrix_rank(dropped) == q - 1 and np.linalg.matrix_rank(outside) == q
    for candidate in (dropped, outside):
        assert spectral_norm(candidate @ A @ candidate - candidate) <= 1e-10 * s[0]
        report = check(pair, candidate.conj().T if dual else candidate)
        rows = {label.split()[0]: ok for label, _, ok in report.conditions}
        assert not any(rows[row] for row in ("(ii)", "(iii)", "(v)")), rows


def test_characterizations_refuse_a_power_below_the_index():
    # below the index W (BW)^(j+1) has a smaller rank than (BW)^j and (WB)^j,
    # so neither family has a member; the right-hand check refuses the power
    # without building a staircase of the dual pair
    pair, X, Z, _ = _case(1)
    assert pair.k_bw >= 1 and pair.k_wb >= 1
    with pytest.raises(ValueError, match="below the index"):
        check_mrwwd(pair, X, power=pair.k_bw - 1)
    with pytest.raises(ValueError, match="below the index"):
        check_mrwwd_right(pair, Z, power=pair.k_wb - 1)
    assert "staircase" not in {key[0] for key in pair.H._memo}


def test_weak_mpd_system_closed_form():
    pair = ex1_pair()
    X = ex1_member(-1, 4)
    Y = weak_mpd(pair, X).value
    report = check_weak_mpd_system(pair, X, Y)
    assert report.overall, report.to_dict()
    # the system pins Y down: any other candidate breaks uniqueness
    Bp = mp_inverse(pair.B)
    report_bad = check_weak_mpd_system(pair, X, Bp)
    assert not report_bad.overall


def test_weak_dmp_system_closed_form():
    pair, _, Z, _ = _case(2)
    Y1 = weak_dmp(pair, Z).value
    report = check_weak_dmp_system(pair, Z, Y1)
    assert report.overall, report.to_dict()


def test_mpd_characterizations_random():
    for i in range(6):
        pair, X, _, rng = _case(i)
        Y = weak_mpd(pair, X).value
        report = check_mpd_characterizations(pair, X, Y)
        assert report.overall, (i, report.to_dict())
        bad = check_mpd_characterizations(pair, X, _bump(Y, rng))
        assert all(not ok for _, _, ok in bad.conditions), i


def test_dmp_characterizations_random():
    for i in range(6):
        pair, _, Z, rng = _case(i)
        Y1 = weak_dmp(pair, Z).value
        report = check_dmp_characterizations(pair, Z, Y1)
        assert report.overall, (i, report.to_dict())
        bad = check_dmp_characterizations(pair, Z, _bump(Y1, rng))
        assert all(not ok for _, _, ok in bad.conditions), i


def test_wdrazin_specialization_collapses_to_weighted_mpd():
    for i in range(4):
        pair, _, _, _ = _case(i)
        report = check_wdrazin_specialization(pair)
        assert report.overall, (i, report.to_dict())


def test_projector_geometry_both_sides():
    for i in range(4):
        pair, X, Z, _ = _case(i)
        left = check_projectors(pair, X)
        assert left.overall, (i, left.to_dict())
        right = check_projectors_right(pair, Z)
        assert right.overall, (i, right.to_dict())


def test_projector_geometry_requires_membership():
    pair = ex1_pair()
    with pytest.raises(HypothesisError):
        check_projectors(pair, np.ones((5, 4)))
    with pytest.raises(HypothesisError):
        check_projectors_right(pair, np.ones((5, 4)))


@pytest.mark.parametrize("given_y", [False, True], ids=["Y=None", "Y given"])
def test_projector_geometry_names_the_failed_membership(given_y):
    # without Y the membership check is the one weak_mpd makes; its error
    # reads the same as the checker's own check with Y given
    pair = ex1_pair()
    Y = weak_mpd(pair, ex1_member(1, 2)).value if given_y else None
    with pytest.raises(HypothesisError, match="^X is not a member of the left solution family"):
        check_projectors(pair, np.ones((5, 4)), Y)


def test_unique_projector_solution_left_and_right():
    for i in range(4):
        pair, X, Z, _ = _case(i)
        Y = weak_mpd(pair, X).value
        rep = check_unique_projector_solution(pair, X, Y, side="left")
        assert rep.overall, (i, rep.to_dict())
        Y1 = weak_dmp(pair, Z).value
        rep = check_unique_projector_solution(pair, Z, Y1, side="right")
        assert rep.overall, (i, rep.to_dict())
    with pytest.raises(ValueError):
        check_unique_projector_solution(pair, X, Y, side="middle")


def test_mp_drazin_absorption():
    for i in range(4):
        pair, X, Z, _ = _case(i)
        report = check_mp_drazin_absorption(pair, X, Z)
        assert report.overall, (i, report.to_dict())


def test_one_inverse_families_absorb_like_mp():
    for i in range(4):
        pair, X, Z, rng = _case(i)
        U = rng.standard_normal((pair.n, pair.m))
        Q, rep = one_inverse_family(pair, U, X=X)
        assert rep.overall, (i, rep.to_dict())
        assert Q.shape == (pair.n, pair.m)
        # generic U leaves an inner defect; it is noted, never asserted
        labels = [label for label, _ in rep.notes]
        assert "inner defect of Q" in labels
        Qr, rep_r = one_inverse_family_right(pair, U, Z=Z)
        assert rep_r.overall, (i, rep_r.to_dict())
    with pytest.raises(ValueError):
        one_inverse_family(pair, np.zeros((2, 2)))


def test_mpd_general_solution_power_identity():
    for i in range(4):
        pair, X, _, rng = _case(i)
        Zfree = rng.standard_normal((pair.n, pair.m))
        Y, rep = mpd_general_solution(pair, X, Zfree)
        assert rep.overall, (i, rep.to_dict())
    with pytest.raises(ValueError):
        mpd_general_solution(pair, X, np.zeros((2, 2)))


def test_drazin_member_reproduces_weighted_inverses():
    pair = ex1_pair()
    Xd = w_drazin(pair).value
    Y = weak_mpd(pair, Xd).value
    Y1 = weak_dmp(pair, Xd).value
    rep = check_mpd_characterizations(pair, Xd, Y)
    assert rep.overall
    rep = check_dmp_characterizations(pair, Xd, Y1)
    assert rep.overall


# A member of the wrong shape is refused by `_as_member` before any product
# meets it, by the checkers as by the weak inverses, in the caller's shape:
# the right-hand ones check it before they take its adjoint.
MEMBER_CALLS = {
    "weak_mpd": lambda pair, member, Y: weak_mpd(pair, member),
    "weak_dmp": lambda pair, member, Y: weak_dmp(pair, member),
    "check_weak_mpd_system": lambda pair, member, Y: check_weak_mpd_system(pair, member, Y),
    "check_mrwwd": lambda pair, member, Y: check_mrwwd(pair, member),
    "check_mrwwd_right": lambda pair, member, Y: check_mrwwd_right(pair, member),
    "check_mpd_characterizations": check_mpd_characterizations,
    "check_dmp_characterizations": check_dmp_characterizations,
}


@pytest.mark.parametrize("name", MEMBER_CALLS)
def test_a_wrong_shape_member_is_refused_by_its_shape(name):
    pair = ex1_pair()
    Y = weak_mpd(pair, ex1_member(2, -1)).value
    with pytest.raises(DimensionError, match=r"^member shape \(4, 5\) != \(5, 4\)$"):
        MEMBER_CALLS[name](pair, np.zeros((4, 5)), Y)
