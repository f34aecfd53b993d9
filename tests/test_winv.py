import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from test_truth import cx, square_truth
from wginv._gen import (
    ex1_member,
    ex1_pair,
    ex1_weak_mpd,
    random_pair,
)
from wginv.matcore import (
    DEFAULT_TOL,
    CertificationError,
    DimensionError,
    HypothesisError,
    ToleranceConfig,
    _frobenius,
    _passes,
    spectral_norm,
    weighted_pair,
)
from wginv.sqinv import core_ep, drazin
from wginv.winv import (
    CATALOG,
    _left_member_residual,
    PARAMETRIZED_KINDS,
    compute_kind,
    mrwwd_family,
    mrwwd_right_family,
    w_core_ep,
    w_dmp,
    w_drazin,
    w_mpd,
    weak_dmp,
    weak_mpd,
)

TOL = DEFAULT_TOL


def _pair_and_rng(i):
    rng = np.random.default_rng([59, i])
    m = int(rng.integers(3, 8))
    n = int(rng.integers(3, 8))
    t = int(rng.integers(1, 4))
    t = min(t, min(m, n) - 1)
    return random_pair(m, n, t, rng), rng


def test_w_drazin_fixture_closed_form():
    pair = ex1_pair()
    res = w_drazin(pair)
    assert res.index_used == 3
    assert np.max(np.abs(res.value - ex1_member(1, 2))) <= 1e-12
    assert max(res.residuals.values()) <= 1e-10


def test_weak_mpd_fixture_family_depends_only_on_first_parameter():
    pair = ex1_pair()
    for x1 in (-2, -1, 0, 1, 3):
        values = [weak_mpd(pair, ex1_member(x1, x2)).value for x2 in (-3, 0, 2)]
        for v in values[1:]:
            assert spectral_norm(v - values[0]) <= 1e-12
        assert spectral_norm(values[0] - ex1_weak_mpd(x1)) <= 1e-12


def test_weak_mpd_collapses_to_w_mpd_at_unit_parameter():
    pair = ex1_pair()
    direct = weak_mpd(pair, ex1_member(1, 2)).value
    assert spectral_norm(direct - w_mpd(pair).value) <= 1e-10


def test_identity_weight_reductions():
    S = np.array([[1.0, 1.0], [0.0, 0.0]])
    pair = weighted_pair(S, np.eye(2))
    assert np.allclose(w_dmp(pair).value, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)
    assert np.allclose(w_mpd(pair).value, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)
    assert np.allclose(w_core_ep(pair).value, core_ep(S).value, atol=1e-12)
    assert np.allclose(w_drazin(pair).value, drazin(S).value, atol=1e-12)


def test_catalog_certifies_on_random_pairs():
    for i in range(10):
        pair, _ = _pair_and_rng(i)
        for kind in CATALOG:
            m = 2 if kind in PARAMETRIZED_KINDS else 1
            res = compute_kind(pair, kind, m=m)
            assert res.kind == kind
            assert max(res.residuals.values()) <= 1e-8, (kind, res.residuals)
    with pytest.raises(ValueError):
        compute_kind(ex1_pair(), "no-such-kind")


def test_family_members_satisfy_membership():
    for i in range(10):
        pair, rng = _pair_and_rng(i)
        X = mrwwd_family(pair).member(0.5 * rng.standard_normal((pair.m, pair.n)))
        ok, r, gap = _left_member_residual(pair, X)
        assert ok and gap == 0, (i, r, gap)
        Z = mrwwd_right_family(pair).member(0.5 * rng.standard_normal((pair.m, pair.n)))
        ok, r, gap = _left_member_residual(pair.H, Z.conj().T)
        assert ok and gap == 0, (i, r, gap)


def test_family_member_shape_validation():
    pair = ex1_pair()
    fam = mrwwd_family(pair)
    with pytest.raises(DimensionError):
        fam.member(np.zeros((3, 3)))


def test_weak_inverses_reject_non_members():
    pair = ex1_pair()
    with pytest.raises(HypothesisError):
        weak_mpd(pair, np.zeros((5, 4)))
    with pytest.raises(HypothesisError):
        weak_dmp(pair, np.ones((5, 4)))


def _outside(P, rng, n):
    """A unit vector with no component in the range of the projector P."""
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = g - P @ g
    return v / np.linalg.norm(v)


def test_planted_left_member_is_refused_with_both_exact_residuals():
    # X + u v^* with v^* M = 0 solves the power equation X M = K as X does,
    # but u lies outside R(K): the power row passes, the range row refuses,
    # and the refusal names the exact spectral norm of each residual
    pair = random_pair(7, 6, 2, 5)
    rng = np.random.default_rng(2)
    X = mrwwd_family(pair).member(np.zeros((7, 6)))
    M = pair.W @ pair.bw_power(pair.k_bw + 1)
    P = pair._projector("BW", pair.k_bw)
    v = np.linalg.svd(M)[0][:, -1].conj()
    non_member = X + np.outer(_outside(P, rng, 7), v)
    K = pair.bw_power(pair.k_bw)
    R = non_member @ M - K
    power, range_residual = spectral_norm(R), spectral_norm(non_member - P @ non_member)
    assert _passes(power, spectral_norm(K), TOL)
    assert f"{power:.3e}" != f"{_frobenius(R):.3e}"
    assert range_residual > 0.5
    with pytest.raises(HypothesisError) as refused:
        weak_mpd(pair, non_member)
    assert str(refused.value) == (
        f"X is not a member of the left solution family "
        f"(power residual {power:.3e}, range residual {range_residual:.3e})"
    )


def test_planted_right_member_is_refused_by_its_range_row():
    # Z + u v^* with M u = 0 solves M Z = N as Z does, but v^* lies outside
    # the row space of N = (WB)^k, so N(Z + u v^*) misses part of N(N)
    pair = random_pair(7, 6, 2, 5)
    rng = np.random.default_rng(3)
    Z = mrwwd_right_family(pair).member(np.zeros((7, 6)))
    M = pair.W @ pair.bw_power(pair.k_wb + 1)
    u = np.linalg.svd(M)[2][-1].conj()
    v = _outside(pair._row_projector("WB"), rng, 6)
    non_member = Z + np.outer(u, v.conj())
    N = pair.wb_power(pair.k_wb)
    assert _passes(spectral_norm(M @ non_member - N), spectral_norm(N), TOL)
    with pytest.raises(HypothesisError, match=r"^Z is not a member of the right") as refused:
        weak_dmp(pair, non_member)
    named = float(str(refused.value).rsplit("range residual ", 1)[1].rstrip(")"))
    assert named > 0.5


@pytest.mark.parametrize("n", [3, 5])
def test_nilpotent_pairs_refuse_every_nonzero_member(n):
    # BW and WB nilpotent of index n: (BW)^n is roundoff and q = 0, so the
    # power equation holds for any moderate X while R(X) = R((BW)^n) = 0
    # admits X = 0 alone. The range row refuses the rest
    rng = np.random.default_rng(4)
    truth = square_truth(n, n, 1.0, 0.0, 0.0, True, rng)
    V = cx.unitary(rng, n, True)
    pair = weighted_pair(truth.S @ V.conj().T, V)
    assert pair.k_bw == pair.k_wb == n
    zero = np.zeros((n, n))
    for family_pair in (pair, pair.H):  # the right family is the dual's left one
        ok, _, range_residual = _left_member_residual(family_pair, zero)
        assert ok and range_residual == 0.0
    for X in (np.ones((n, n)), 1e-6 * rng.standard_normal((n, n))):
        with pytest.raises(HypothesisError, match="left solution family"):
            weak_mpd(pair, X)
        with pytest.raises(HypothesisError, match="right solution family"):
            weak_dmp(pair, X)
    # the family's particular solution K M^+ is a pseudoinverse of roundoff
    # while M^+ is truncated on M's own scale; whenever it is not 0, the
    # membership test refuses it
    particular = mrwwd_family(pair).particular
    if np.linalg.norm(particular) > TOL.residual_atol:
        with pytest.raises(HypothesisError):
            weak_mpd(pair, particular)


def test_weak_dmp_on_right_family_draw():
    for i in range(6):
        pair, rng = _pair_and_rng(i)
        Z = mrwwd_right_family(pair).member(0.5 * rng.standard_normal((pair.m, pair.n)))
        res = weak_dmp(pair, Z)
        assert max(res.residuals.values()) <= 1e-8
        assert res.value.shape == (pair.n, pair.m)


def test_w_drazin_dual_formula_agreement():
    for i in range(6):
        pair, _ = _pair_and_rng(i)
        res = w_drazin(pair)
        dual = (
            pair.B
            @ np.linalg.matrix_power(drazin(pair.wb_power(1)).value, 2)
        )
        assert spectral_norm(res.value - dual) <= 1e-8 * (1.0 + spectral_norm(dual))


PARAM = st.integers(min_value=-3, max_value=3)


@seed(1)
@settings(deadline=None, max_examples=25)
@given(x1=PARAM, x2=PARAM)
def test_fixture_members_always_in_family(x1, x2):
    pair = ex1_pair()
    ok, r, gap = _left_member_residual(pair, ex1_member(x1, x2))
    assert ok and gap == 0, (x1, x2, r)


def test_a_pair_built_at_a_coarse_rank_tolerance_computes_at_its_own_index():
    # S = U [[diag(1e-3, .8, 1.1, 1.4), C], [0, J2]] U^T with C[0, 0] = 1:
    # at rank_rtol = 1e-3 the eigenvalue 1e-3 falls below the cutoff and
    # joins the nilpotent part through C, so BW = S has index 3, not 2.
    # Every kind the pair certifies is built on that one staircase form and
    # reports its index; none is the default tolerance's index-2 value
    U = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))[0]
    core = np.zeros((6, 6))
    core[:4, :4] = np.diag([1e-3, 0.8, 1.1, 1.4])
    core[0, 4] = core[4, 5] = 1.0
    S = U @ core @ U.T
    tol = ToleranceConfig(rank_rtol=1e-3)
    pair = weighted_pair(S, np.eye(6), tol)
    assert (pair.k_bw, pair.k_wb, weighted_pair(S, np.eye(6)).k_bw) == (3, 3, 2)
    certified = {}
    for kind in CATALOG:
        try:
            certified[kind] = compute_kind(pair, kind, m=2)
        except CertificationError:
            continue
    assert "w-core-ep" in certified and len(certified) >= 5
    for kind, result in certified.items():
        side = "WB" if kind in ("w-core-ep", "w-cepmp", "w-m-wgmp") else "BW"
        assert result.index_used == pair._staircase_of(side).k == 3, kind
    staircases = [key for key in pair._memo if key[0] == "staircase"]
    assert sorted(staircases) == [("staircase", "BW"), ("staircase", "WB")]
    value = certified["w-core-ep"].value
    assert np.allclose(value, core_ep(S, tol).value, atol=1e-8)
    assert not np.allclose(value, w_core_ep(weighted_pair(S, np.eye(6))).value, atol=1e-3)
