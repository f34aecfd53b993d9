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

from test_truth import KAPPA_MAX, cx, kappa_on_scale, rank_margin, square_truth
from wginv import matcore, sqinv, verify, winv
from wginv._gen import ex1_member, ex1_pair, ex2_matrices, random_pair, random_square_with_index
from wginv.cli import main
from wginv.decomp import weak_mpd_canonical
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
# when each constructor built its own factors, 25 when each certified its
# inner inverse anew and each membership test took exact norms, and 6 when
# the core-EP certificates took SVDs of their values and each membership test
# decided the rank of its member. What is left is the one SVD of B^+.
CATALOG_AND_WEAK_BUDGET = 1


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
    assert len(calls) == CATALOG_AND_WEAK_BUDGET


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
    # power S, S^2, ..., S^(k+1) of each product, the norm of S included.
    # With W = I, B W and W B are one matrix, factored once
    rng = np.random.default_rng(3)
    S = random_square_with_index(6, 2, rng, matcore.DEFAULT_TOL)
    calls = _counting(monkeypatch, linalg_impl, "svd")
    monkeypatch.setattr(np.linalg, "svd", linalg_impl.svd)
    assert matcore.index_of(S) == 2
    assert len(calls) == 3
    del calls[:]
    pair = matcore.weighted_pair(S, np.eye(6))
    assert pair.k_bw == pair.k_wb == 2
    assert len(calls) == pair.k_bw + 1
    del calls[:]
    pair = matcore.weighted_pair(S, np.diag(np.arange(1.0, 7.0)))
    assert len(calls) == pair.k_bw + pair.k_wb + 2


def test_identity_weight_shares_one_form_and_one_kernel():
    # the form, the first power and the Drazin kernel of W B are those of B W
    S = random_square_with_index(6, 2, 3, matcore.DEFAULT_TOL)
    pair = matcore.weighted_pair(S, np.eye(6))
    assert pair._staircase_of("WB", DEFAULT_TOL) is pair._staircase_of("BW", DEFAULT_TOL)
    assert pair.wb_power(1) is pair.bw_power(1)
    assert _drazin_kernel(pair, "WB", DEFAULT_TOL) is _drazin_kernel(pair, "BW", DEFAULT_TOL)
    # a weight that does not commute with B keeps two forms and two kernels
    other = matcore.weighted_pair(S, np.diag(np.arange(1.0, 7.0)))
    assert not other._one_product(DEFAULT_TOL)
    assert not np.array_equal(
        _drazin_kernel(other, "WB", DEFAULT_TOL), _drazin_kernel(other, "BW", DEFAULT_TOL)
    )
    # nor does a pair built directly, whose forms are built side by side
    direct = _direct(pair)
    assert direct._staircase_of("WB", DEFAULT_TOL) is not direct._staircase_of("BW", DEFAULT_TOL)
    assert not direct._one_product(DEFAULT_TOL)


# A family operation of the `dense` benchmark: a member drawn from the family,
# then its weak inverse.
FAMILIES = [(mrwwd_family, weak_mpd), (mrwwd_right_family, weak_dmp)]


@pytest.mark.parametrize("family, weak", FAMILIES)
def test_warm_family_operation_takes_no_svd(monkeypatch, family, weak):
    # the family reads its particular solution and annihilator from the pair
    # and certifies them anew; the membership test judges X = P X against the
    # staircase's projector (on the right, the pair's row projector) instead
    # of deciding rank(X). Every pass is proved from Frobenius norms, and the
    # memoized w_mpd needs no factorization either
    pair = random_pair(7, 6, 2, 5)
    P = np.ones((7, 6))
    weak(pair, family(pair).member(P))
    calls = []
    for name in ("svd", "qr", "inv", "lstsq"):
        calls += _counting(monkeypatch, linalg_impl, name)
        monkeypatch.setattr(np.linalg, name, getattr(linalg_impl, name))
    keys = _memo_keys(pair)
    for _ in range(2):
        weak(pair, family(pair).member(P))
        assert calls == []
    assert _memo_keys(pair) == keys
    primal_memo = pair._memo if weak is weak_mpd else pair.H._memo
    assert ("family parts", DEFAULT_TOL) in primal_memo


def _direct(pair):
    """A pair built directly from B, W and the indices: its memo starts empty."""
    return matcore.WeightedPair(pair.B, pair.W, pair.k_bw, pair.k_wb)


def _memo_keys(pair) -> tuple:
    return set(pair._memo), set(pair.H._memo)


# What a check may keep on a pair: the powers of BW and WB, the left family's
# W (BW)^(k+1), the staircase forms whose q is the rank of the stabilized
# power, and the projector onto the row space of a stabilized power, which
# the right-hand membership test reads on the dual. Nothing in it depends on
# the candidate.
POWERS = {"BW^", "WB^", "W BW^"}
PAIR_READS = POWERS | {"row projector"}


def _quantities(keys) -> set:
    return {key[0] for key in keys}


def _refuse_a_perturbed_member(monkeypatch, pair, family, weak) -> list:
    # the exact norms of the power and range residuals that the refusal
    # names, on every call; the reference norms are not needed, since their
    # Frobenius bounds prove the failures
    member = family(matcore.weighted_pair(pair.B, pair.W)).member(np.zeros((7, 6)))
    noise = np.random.default_rng(1).standard_normal(member.shape)
    perturbed = member + 1e-2 * spectral_norm(member) * noise
    calls = _counting(monkeypatch, linalg_impl, "svd")
    monkeypatch.setattr(np.linalg, "svd", linalg_impl.svd)
    counts = []
    for _ in range(3):
        del calls[:]
        with pytest.raises(HypothesisError):
            weak(pair, perturbed)
        counts.append(len(calls))
    return counts


@pytest.mark.parametrize("family, weak", FAMILIES)
def test_refusing_a_perturbed_member_takes_two_svds(monkeypatch, family, weak):
    pair = random_pair(7, 6, 2, 5)
    before = _memo_keys(pair)
    assert _refuse_a_perturbed_member(monkeypatch, pair, family, weak) == [2, 2, 2]
    # weighted_pair seeds the two staircase forms; only powers and the row
    # projector join them
    after = _memo_keys(pair)
    for old, new in zip(before, after):
        assert old <= new and _quantities(new - old) <= PAIR_READS


@pytest.mark.parametrize("family, weak", FAMILIES)
def test_refusing_a_perturbed_member_of_a_direct_pair_takes_two_svds_once_factored(
    monkeypatch, family, weak
):
    # the first refusal factors the product whose stabilized range it reads
    # (one SVD per power up to k + 1), on the pair itself for either side
    pair = _direct(random_pair(7, 6, 2, 5))
    k = pair.k_bw if weak is weak_mpd else pair.k_wb
    assert _refuse_a_perturbed_member(monkeypatch, pair, family, weak) == [k + 3, 2, 2]
    memo, dual_memo = _memo_keys(pair)
    assert _quantities(memo) <= PAIR_READS | {"staircase"}
    assert _quantities(dual_memo) <= POWERS


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


# The checkers and the membership test judge a caller's candidate. They read
# the pair as a constructor does and store nothing about the candidate, so on
# a pair made by weighted_pair a check costs the same on every call, and on a
# direct pair it does once the pair is factored. The checks below read only
# the powers and the ranks of the stabilized powers; check_mrwwd and
# check_mrwwd_right also read a Drazin kernel (see the test after them).


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


KERNEL_CHECKS = {
    "check_mrwwd": lambda pair, X, Z, Y, Y1: check_mrwwd(pair, X),
    "check_mrwwd_right": lambda pair, X, Z, Y, Y1: check_mrwwd_right(pair, Z),
}

POWER_CHECKS = {
    "check_mpd_characterizations": lambda pair, X, Z, Y, Y1: check_mpd_characterizations(
        pair, X, Y
    ),
    "check_dmp_characterizations": lambda pair, X, Z, Y, Y1: check_dmp_characterizations(
        pair, Z, Y1
    ),
    "weak_mpd(non-member)": lambda pair, X, Z, Y, Y1: _refused(weak_mpd, pair, 2.0 * X),
    "weak_dmp(non-member)": lambda pair, X, Z, Y, Y1: _refused(weak_dmp, pair, 2.0 * Z),
}

CHECKS = {**KERNEL_CHECKS, **POWER_CHECKS}


def _check_three_times(monkeypatch, name, pair, candidates) -> list:
    calls = _counting(monkeypatch, linalg_impl, "svd")
    monkeypatch.setattr(np.linalg, "svd", linalg_impl.svd)
    counts = []
    for _ in range(3):
        del calls[:]
        CHECKS[name](pair, *candidates)
        counts.append(len(calls))
    return counts


@pytest.mark.parametrize("name", sorted(POWER_CHECKS))
def test_checks_read_only_powers_and_staircase_ranks_from_the_pair(monkeypatch, name):
    pair, *candidates = _candidates()
    before = _memo_keys(pair)
    counts = _check_three_times(monkeypatch, name, pair, candidates)
    assert counts[0] == counts[1] == counts[2] > 0
    # the powers a check forms are kept; no staircase or rank is added
    after = _memo_keys(pair)
    assert all(old <= new for old, new in zip(before, after))
    added = set().union(*(new - old for old, new in zip(before, after)))
    assert added and _quantities(added) <= PAIR_READS


@pytest.mark.parametrize("name", sorted(POWER_CHECKS))
def test_checks_on_a_direct_pair_factor_it_once(monkeypatch, name):
    pair, *candidates = _candidates(direct=True)
    counts = _check_three_times(monkeypatch, name, pair, candidates)
    assert counts[0] >= counts[1] == counts[2] > 0
    memo, dual_memo = _memo_keys(pair)
    assert memo | dual_memo
    assert _quantities(memo) <= PAIR_READS | {"staircase"}
    assert _quantities(dual_memo) <= POWERS


# Row (vii) of thm2.1 (thm2.8) reads (BW)^D ((WB)^D) from the pair, the kernel
# that w_drazin is built on: bitwise what `drazin` computes from the product.
KERNEL_SIDES = {"check_mrwwd": ("BW", "bw"), "check_mrwwd_right": ("WB", "wb")}


@pytest.mark.parametrize("direct", [False, True], ids=["weighted_pair", "direct"])
@pytest.mark.parametrize("name", sorted(KERNEL_CHECKS))
def test_characterizations_read_the_drazin_kernel_from_the_pair(monkeypatch, name, direct):
    pair, X, Z, Y, Y1 = _candidates(direct)
    side, product = KERNEL_SIDES[name]
    kernels = []

    def recording(p, s, tol):
        kernels.append(winv._drazin_kernel(p, s, tol))
        return kernels[-1]

    monkeypatch.setattr(verify, "_drazin_kernel", recording)
    counts = _check_three_times(monkeypatch, name, pair, (X, Z, Y, Y1))
    if direct:  # the first call factors the product
        assert counts[0] > counts[1] == counts[2] > 0
    else:
        assert counts[0] == counts[1] == counts[2] > 0
    # a second candidate adds nothing to the pair's memo
    keys = _memo_keys(pair)
    CHECKS[name](pair, 2.0 * X, 2.0 * Z, Y, Y1)
    assert _memo_keys(pair) == keys
    truth = sqinv.drazin(getattr(pair, product)()).value
    assert len(kernels) == 4
    for kernel in kernels:
        assert kernel is kernels[0] and kernel.tobytes() == truth.tobytes()
    assert kernels[0] is pair._memo[f"({side})^D", DEFAULT_TOL]


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


# A report row takes ||F|| only when its residual exceeds residual_atol,
# thm2.8's null-space test reuses the two ranks its row (i) decides, the
# range rows of thm2.1 and row (iv) of both read the pair's projector onto
# the range (row space) of the stabilized power, and row (vii) reads the
# pair's Drazin kernel: the characterizations took 23 and 20 SVDs when every
# row took both norms and the null-space test decided both ranks again, 14
# and 11 when row (vii) factored the product again, and 11 and 8 when the
# range rows took a pseudoinverse of the power.
CHARACTERIZATION_BUDGET = {"check_mrwwd": 9, "check_mrwwd_right": 7}


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


def test_warm_family_operation_forms_no_power(monkeypatch):
    # a warm family operation on either side: the family, the membership test
    # and the power row read (BW)^k, (BW)^(k+1) and W (BW)^(k+1) from the pair
    pair = random_pair(7, 6, 2, 5)
    P = np.ones((7, 6))
    powers = []
    original = np.linalg.matrix_power

    def recording(A, j):
        powers.append(j)
        return original(A, j)

    for family, weak in FAMILIES:
        X = family(pair).member(P)
        first = weak(pair, X).value
        monkeypatch.setattr(np.linalg, "matrix_power", recording)
        del powers[:]
        again = family(pair).member(P)
        value = weak(pair, again).value
        monkeypatch.setattr(np.linalg, "matrix_power", original)
        assert powers == []
        assert np.array_equal(again, X) and np.array_equal(value, first)


# The pair keeps each power of BW and WB it forms: read-only, formed once, and
# bitwise the power a caller would form from B and W.
@pytest.mark.parametrize("direct", [False, True], ids=["weighted_pair", "direct"])
def test_cached_powers_are_read_only_and_bitwise_the_formed_powers(direct):
    pair = random_pair(7, 6, 2, 5)
    if direct:
        pair = _direct(pair)
    for p in (pair, pair.H):
        for j in range(max(p.k_bw, p.k_wb) + 3):
            for cached, S in ((p.bw_power(j), p.B @ p.W), (p.wb_power(j), p.W @ p.B)):
                formed = np.linalg.matrix_power(S, j)
                assert cached.dtype == formed.dtype and cached.shape == formed.shape
                assert cached.tobytes() == formed.tobytes()
                assert not cached.flags.writeable
                with pytest.raises(ValueError):
                    cached[0, 0] = 1.0
            assert p.bw_power(j) is p.bw_power(j) and p.wb_power(j) is p.wb_power(j)


def test_dual_rank_reads_the_pairs_staircase(monkeypatch):
    # B^* W^* = (WB)^*, so the dual's rank of a stabilized power is the pair's
    # rank of the other product's: pair.H builds no staircase to learn it
    pair = random_pair(7, 6, 2, 5)
    Z = mrwwd_right_family(matcore.weighted_pair(pair.B, pair.W)).member(np.zeros((7, 6)))
    calls = _counting(monkeypatch, matcore, "_staircase")
    svds = _counting(monkeypatch, linalg_impl, "svd")
    dual = pair.H
    for side, other in (("BW", "WB"), ("WB", "BW")):
        k = dual.k_bw if side == "BW" else dual.k_wb
        assert dual._rank(side, k, DEFAULT_TOL) == pair._rank(other, k, DEFAULT_TOL)
    assert svds == []
    # the right-hand membership test runs on the dual
    weak_dmp(pair, Z)
    assert calls == []
    assert "staircase" not in _quantities(dual._memo)


def _ex2_pairs():
    A, B, C, W = ex2_matrices()
    AWB = A @ W @ B
    return [matcore.weighted_pair(F, W) for F in (A, B, C, AWB, AWB @ W @ C)]


def _truth_draws(count: int, seed: int):
    """(pair, constructed rank of the stabilized powers) on draws of
    tests/test_truth.py's strategy: B = S V^*, W = V with BW = S and WB
    unitarily similar to it, so both powers have rank n - t."""
    rng = np.random.default_rng(seed)
    drawn = 0
    while drawn < count:
        n = int(rng.integers(1, 9))
        t = int(rng.integers(1, n + 1))
        log_kappa = float(rng.uniform(0.0, 8.0))
        position = float(rng.uniform(0.0, 1.0)) if t <= 2 else 0.0
        coupling = 0.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(-2.0, 3.0)
        complex_entries = bool(rng.integers(2))
        truth = square_truth(n, t, log_kappa, position, coupling, complex_entries, rng)
        if max(kappa_on_scale(truth), rank_margin(truth)) > KAPPA_MAX:
            continue
        V = cx.unitary(rng, n, complex_entries)
        yield matcore.weighted_pair(truth.S @ V.conj().T, V), n - t
        drawn += 1


def test_staircase_rank_is_the_rank_of_the_stabilized_power():
    # what the membership test and the checkers read instead of deciding
    # rank((BW)^k) and rank((WB)^k) by an SVD of the power
    for pair in [ex1_pair(), *_ex2_pairs()]:
        for side, k, power in (("BW", pair.k_bw, pair.bw_power), ("WB", pair.k_wb, pair.wb_power)):
            q = pair._rank(side, k, DEFAULT_TOL)
            assert q == matcore.rank_of(power(k))
            # every higher power has the same rank, read without an SVD
            assert pair._rank(side, k + 2, DEFAULT_TOL) == q
        assert "rank" not in _quantities(pair._memo)
    # on the truth draws the SVD of the power is decided on the power's own
    # scale and misses the constructed rank on about a third of them (a
    # nilpotent S whose power is roundoff reads as full rank); the staircase
    # form decides on ||S||'s scale and meets it on every draw
    for pair, rank in _truth_draws(300, 11):
        assert pair._rank("BW", pair.k_bw, DEFAULT_TOL) == rank
        assert pair._rank("WB", pair.k_wb, DEFAULT_TOL) == rank


def _staircase_truth(n: int, t: int, rng):
    """(S, Q) with S = Q [[T, C], [0, J]] Q^*, Q unitary, T well conditioned
    of order n - t and J the shift of order t: R(S^j) is spanned by the
    leading n - t + max(t - j, 0) columns of Q."""
    q = n - t
    core = np.zeros((n, n), dtype=complex)
    core[:q, :q] = (cx.unitary(rng, q, True) * np.linspace(2.0, 0.5, q)) @ cx.unitary(
        rng, q, True
    ).conj().T
    core[:q, q:] = cx.gaussian(rng, (q, t), True)
    core[q:, q:] = cx.shift(t)
    Q = cx.unitary(rng, n, True)
    return Q @ core @ Q.conj().T, Q


def test_staircase_gives_the_rank_and_projector_of_every_power():
    # the pair reads rank((BW)^j) and the projector onto R((BW)^j) at every j
    # from the staircase form, index 0 and index n included, with no SVD of
    # the power; WB = V S V^* has the range V R(S^j)
    rng = np.random.default_rng(7)
    for n in range(1, 7):
        for t in range(n + 1):
            S, Q = _staircase_truth(n, t, rng)
            V = cx.unitary(rng, n, True)
            pair = matcore.weighted_pair(S @ V.conj().T, V)
            assert pair.k_bw == pair.k_wb == t
            for side, basis in (("BW", Q), ("WB", V @ Q)):
                for j in range(t + 2):
                    rank = n - t + max(t - j, 0)
                    span = basis[:, :rank]
                    assert pair._rank(side, j, DEFAULT_TOL) == rank
                    P = pair._projector(side, j, DEFAULT_TOL)
                    assert np.allclose(P, span @ span.conj().T, atol=1e-10)
            assert not {"projector", "rank"} & _quantities(pair._memo)


def test_membership_reads_the_rank_of_a_roundoff_power_as_zero():
    # a nilpotent BW of index 5: (BW)^5 is roundoff, which an SVD of the
    # power read as rank 5, refusing the true member X = 0 with a rank gap;
    # the staircase reads it as rank 0, and X = 0 lies in its range
    rng = np.random.default_rng(4)
    truth = square_truth(5, 5, 1.0, 0.0, 0.0, True, rng)
    V = cx.unitary(rng, 5, True)
    pair = matcore.weighted_pair(truth.S @ V.conj().T, V)
    assert pair.k_bw == 5 and np.abs(pair.bw_power(5)).max() > 0.0
    ok, _, range_residual = winv._left_member_residual(pair, np.zeros((5, 5)), DEFAULT_TOL)
    assert ok and range_residual == 0.0


def test_canonical_refusal_names_the_exact_range_residual(monkeypatch):
    # the fixture member solves its power equation exactly, and X - P X is
    # roundoff: below it the membership test refuses, naming both exact
    # residuals, with one SVD each (the power row, passed by its Frobenius
    # bound, is taken exactly for the message) and before any decomposition
    pair = ex1_pair()
    X = ex1_member(2, -1).astype(complex)
    tight = ToleranceConfig(residual_atol=1e-30)
    P = pair._projector("BW", pair.k_bw, tight)
    range_residual = spectral_norm(X - P @ X)
    assert 0.0 < range_residual < 1e-14
    calls = _counting(monkeypatch, linalg_impl, "svd")
    monkeypatch.setattr(np.linalg, "svd", linalg_impl.svd)
    with pytest.raises(HypothesisError) as refused:
        weak_mpd_canonical(pair, X, tight)
    assert str(refused.value) == (
        f"X is not a member of the left solution family "
        f"(power residual {0.0:.3e}, range residual {range_residual:.3e})"
    )
    assert len(calls) == 2
