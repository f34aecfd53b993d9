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
    CertificationError,
    HypothesisError,
    ToleranceConfig,
    spectral_norm,
)
from wginv.perturb import admissible_perturbation
from wginv.verify import (
    check_dmp_characterizations,
    check_mpd_characterizations,
    check_mrwwd,
    check_mrwwd_right,
    check_weak_dmp_system,
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


# Below the probe gate the rows of a pair are formed, above it (40 x 36) they
# are applied to the pair's probe block: a warm call takes no numpy.linalg call
# on either side of the gate.
SHAPES = {"7x6": (7, 6), "40x36": (40, 36)}
LINALG = ("svd", "qr", "inv", "lstsq", "matrix_power")


def _counting_linalg(monkeypatch) -> list:
    calls = []
    for name in LINALG:
        calls += _counting(monkeypatch, linalg_impl, name)
        monkeypatch.setattr(np.linalg, name, getattr(linalg_impl, name))
    return calls


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("build", [w_mpd, w_drazin, w_dmp])
def test_warm_pair_needs_no_svd(monkeypatch, build, shape):
    pair = random_pair(*SHAPES[shape], 2, 5)
    first = build(pair)
    calls = _counting_linalg(monkeypatch)
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
        dual = _drazin_kernel(pair.H, side)
        assert np.array_equal(dual, _drazin_kernel(pair, other).conj().T)
    assert np.array_equal(pair.H._pinv(), pair._pinv().conj().T)
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
    pair.H.bw_power(1)  # the product the certificate is taken on
    keys = set(pair.H._memo)
    X = _drazin_kernel(pair.H, "BW")
    [(S, certified, k)] = checked
    assert np.array_equal(S, pair.H.bw_power(1)) and k == pair.k_wb
    assert np.array_equal(certified.conj().T, _drazin_kernel(pair, "WB"))
    assert np.array_equal(X, certified)
    # certified once: a second read checks nothing, and the dual keeps the
    # certificate's residuals, not a copy of the kernel
    assert _drazin_kernel(pair.H, "BW").tobytes() == X.tobytes()
    assert len(checked) == 1
    [kept] = [pair.H._memo[key] for key in set(pair.H._memo) - keys]
    assert not isinstance(kept, np.ndarray)


def test_dual_keeps_no_failed_kernel_certificate(monkeypatch):
    pair = random_pair(7, 6, 2, 5)
    w_drazin(pair)
    pair.H.bw_power(1)
    keys = set(pair.H._memo)
    checks = winv._drazin_checks
    monkeypatch.setattr(winv, "_drazin_checks", lambda S, X, k: checks(S, X + 1e-3, k))
    for _ in range(2):  # refused on every read
        with pytest.raises(CertificationError):
            _drazin_kernel(pair.H, "BW")
    assert set(pair.H._memo) == keys


def test_a_pair_decides_every_factor_at_its_own_tolerance():
    # the same B and W built at another tolerance are another pair: its
    # factors are built and certified at its tolerance, in a memo of its own
    pair = random_pair(7, 6, 2, 5)
    w_mpd(pair)
    tight = matcore.weighted_pair(pair.B, pair.W, ToleranceConfig(residual_atol=1e-300))
    with pytest.raises(CertificationError):
        w_mpd(tight)
    with pytest.raises(CertificationError):
        _drazin_kernel(tight, "BW")
    coarse = matcore.weighted_pair(pair.B, pair.W, ToleranceConfig(rank_rtol=0.5))
    assert matcore.rank_of(coarse._pinv()) < matcore.rank_of(pair._pinv())
    assert w_mpd(pair).value.tobytes() == w_mpd(random_pair(7, 6, 2, 5)).value.tobytes()


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
    assert pair._staircase_of("WB") is pair._staircase_of("BW")
    assert pair.wb_power(1) is pair.bw_power(1)
    assert _drazin_kernel(pair, "WB") is _drazin_kernel(pair, "BW")
    # a weight that does not commute with B keeps two forms and two kernels
    other = matcore.weighted_pair(S, np.diag(np.arange(1.0, 7.0)))
    assert not other._one_product()
    assert not np.array_equal(
        _drazin_kernel(other, "WB"), _drazin_kernel(other, "BW")
    )
    # nor does a pair built directly, whose forms are built side by side
    direct = _direct(pair)
    assert direct._staircase_of("WB") is not direct._staircase_of("BW")
    assert not direct._one_product()


# A family operation of the `dense` benchmark: a member drawn from the family,
# then its weak inverse.
FAMILIES = [(mrwwd_family, weak_mpd), (mrwwd_right_family, weak_dmp)]


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("family, weak", FAMILIES)
def test_warm_family_operation_takes_no_svd(monkeypatch, family, weak, shape):
    # the family reads its particular solution and annihilator from the pair
    # and certifies them anew; the membership test judges X = P X against the
    # staircase's projector (on the right, the pair's row projector) instead
    # of deciding rank(X). Every pass is proved from Frobenius norms, and the
    # memoized w_mpd needs no factorization either
    pair = random_pair(*SHAPES[shape], 2, 5)
    P = np.ones(SHAPES[shape])
    weak(pair, family(pair).member(P))
    calls = _counting_linalg(monkeypatch)
    keys = _memo_keys(pair)
    for _ in range(2):
        weak(pair, family(pair).member(P))
        assert calls == []
    assert _memo_keys(pair) == keys
    primal_memo = pair._memo if weak is weak_mpd else pair.H._memo
    assert ("family parts",) in primal_memo


def _direct(pair):
    """A pair built directly from B, W and the indices: its memo starts empty."""
    return matcore.WeightedPair(pair.B, pair.W, pair.k_bw, pair.k_wb)


def _memo_keys(pair) -> tuple:
    return set(pair._memo), set(pair.H._memo)


# What a check may keep on a pair: the powers of BW and WB, the left family's
# W (BW)^(k+1), the staircase forms whose q is the rank of the stabilized
# power, the projector onto a stabilized power (the form's own U1 U1^*, kept
# so that its probe images are kept) and onto its row space, which the
# right-hand membership test reads on the dual, and B^+ with the products
# B^+ (BW)^(k+1) and B^+ B that the weak MPD inverse's rows read (a dual pair
# keeps its own products, on the adjoint of the pair's B^+). Nothing in it
# depends on the candidate.
POWERS = {"BW^", "WB^", "W BW^"}
PINV_PRODUCTS = {"B^+ BW^", "B^+ B"}
PAIR_READS = POWERS | PINV_PRODUCTS | {"B^+", "projector", "row projector"}


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

    def recording(kind, checks, tol, *pair):
        kinds.append(kind)
        return certify(kind, checks, tol, *pair)

    monkeypatch.setattr(winv, "_certify", recording)
    w_mpcep(pair)
    w_cepmp(pair)
    for build in (w_m_wgi, w_m_weak_core, w_m_wgmp):
        build(pair, 2)
    assert kinds.count("w_core_ep") == 1
    # once for its own public call, once as the value the other two compose
    assert kinds.count("w_m_wgi") == 2


def test_memoized_inner_values_are_built_at_the_pairs_tolerance():
    pair = random_pair(7, 6, 2, 5)
    X = mrwwd_family(pair).member(np.zeros((7, 6)))
    w_mpcep(pair)
    w_m_wgmp(pair, 2)
    weak_mpd(pair, X)
    tight = matcore.weighted_pair(pair.B, pair.W, ToleranceConfig(residual_atol=1e-300))
    # the inner core-EP value of the pair built at the tight tolerance is its
    # own, so the first refusal is that of its core-EP kernel, not of the
    # outer equation
    with pytest.raises(CertificationError, match="^core_ep:"):
        w_mpcep(tight)
    with pytest.raises(CertificationError, match="^core_ep:"):
        w_m_wgmp(tight, 2)
    with pytest.raises(HypothesisError):
        weak_mpd(tight, X)


def test_m_fold_weak_group_values_are_memoized_per_m():
    pair = random_pair(7, 6, 2, 5)
    for m in (1, 2):
        w_m_wgmp(pair, m)
    values = {m: pair._memo["w_m_wgi", m] for m in (1, 2)}
    assert not np.array_equal(values[1], values[2])
    for m, value in values.items():
        assert np.array_equal(value, w_m_wgi(pair, m).value)


# The checkers and the membership test judge a caller's candidate. They read
# the pair as a constructor does and store nothing about the candidate, so a
# check costs the same on every call after its first. On a pair made by
# weighted_pair the first call of a check that reads B^+ takes one more SVD,
# the one that builds it; on a direct pair the first membership test factors
# the product instead (one SVD per power up to k + 1). The checks below read
# the powers, the ranks of the stabilized powers and B^+; check_mrwwd and
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
READS_PINV = {"check_mpd_characterizations", "check_dmp_characterizations"}


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
    first = counts[1] + (name in READS_PINV)
    assert counts == [first, counts[1], counts[1]] and counts[1] > 0
    # the powers a check forms are kept; no staircase or rank is added
    after = _memo_keys(pair)
    assert all(old <= new for old, new in zip(before, after))
    added = set().union(*(new - old for old, new in zip(before, after)))
    assert added and _quantities(added) <= PAIR_READS


@pytest.mark.parametrize("name", sorted(POWER_CHECKS))
def test_checks_on_a_direct_pair_factor_it_once(monkeypatch, name):
    pair, *candidates = _candidates(direct=True)
    counts = _check_three_times(monkeypatch, name, pair, candidates)
    # a characterization decides no range of the pair, so it factors neither
    # product: its first call builds B^+ alone
    k = pair.k_bw if "mpd" in name else pair.k_wb
    first = counts[1] + (1 if name in READS_PINV else k + 1)
    assert counts == [first, counts[1], counts[1]] and counts[1] > 0
    memo, dual_memo = _memo_keys(pair)
    assert memo | dual_memo
    assert _quantities(memo) <= PAIR_READS | {"staircase"}
    assert _quantities(dual_memo) <= POWERS | PINV_PRODUCTS


def test_right_hand_check_reads_the_adjoint_of_the_pairs_pinv(monkeypatch):
    # the dual's B^+ is the adjoint of the pair's: once the pair has built it,
    # a right-hand check takes no SVD for it, on its first call either
    pair, X, Z, Y, Y1 = _candidates()
    pair._pinv()
    pinvs = _counting(monkeypatch, matcore, "mp_inverse")
    calls = _counting(monkeypatch, linalg_impl, "svd")
    monkeypatch.setattr(np.linalg, "svd", linalg_impl.svd)
    counts = []
    for _ in range(3):
        del calls[:]
        assert check_weak_dmp_system(pair, Z, Y1).overall
        counts.append(len(calls))
    assert pinvs == []
    assert counts[0] == counts[1] == counts[2] > 0


# Row (vii) of thm2.1 reads (BW)^D from the pair, the kernel that w_drazin is
# built on: bitwise what `drazin` computes from the product. thm2.8 is thm2.1
# on the dual pair, whose (B^* W^*)^D is the adjoint of the pair's (WB)^D.
KERNEL_SIDES = {"check_mrwwd": "BW", "check_mrwwd_right": "WB"}


@pytest.mark.parametrize("direct", [False, True], ids=["weighted_pair", "direct"])
@pytest.mark.parametrize("name", sorted(KERNEL_CHECKS))
def test_characterizations_read_the_drazin_kernel_from_the_pair(monkeypatch, name, direct):
    pair, X, Z, Y, Y1 = _candidates(direct)
    side = KERNEL_SIDES[name]
    kernels = []

    def recording(p, s):
        kernels.append(winv._drazin_kernel(p, s))
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
    kernel = pair._memo[f"({side})^D",]
    assert kernel.tobytes() == sqinv.drazin(pair._power(side, 1)).value.tobytes()
    assert len(kernels) == 4
    if side == "BW":
        assert all(read is kernel for read in kernels)
    else:
        assert all(read.tobytes() == kernel.conj().T.tobytes() for read in kernels)


# An order-law case builds each factor and product pair once and shares it
# between its members and the law. `verify thm3.31` on its fixture made 113
# SVDs when each of them built its own pairs, and 45 when the range rows of
# thm2.1 took a projector of the candidate.
TRIPLE_LAW_FIXTURE_SVDS = 21


def test_triple_law_fixture_svd_count(monkeypatch):
    calls = _counting(monkeypatch, linalg_impl, "svd")
    monkeypatch.setattr(np.linalg, "svd", linalg_impl.svd)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "thm3.31"]) == 0
    assert len(calls) <= TRIPLE_LAW_FIXTURE_SVDS


# `verify thm3.30-rol --fixture ex2` builds the pairs of A, B and A W B; it took
# 17 SVDs while the fixture case also built C's pair and its W-weighted Drazin
# inverse, which the weak MPD order law never reads.
WEAK_MPD_LAW_FIXTURE_SVDS = 13


def test_weak_mpd_law_fixture_svd_count(monkeypatch):
    calls = _counting(monkeypatch, linalg_impl, "svd")
    monkeypatch.setattr(np.linalg, "svd", linalg_impl.svd)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", "thm3.30-rol", "--fixture", "ex2"]) == 2  # H2, H3 fail
    assert len(calls) <= WEAK_MPD_LAW_FIXTURE_SVDS


# A report row takes ||F|| only when its residual exceeds residual_atol, the
# range rows judge R(X) = R((BW)^k) from row (iv)'s residual of the pair's
# projector onto R((BW)^k) and row (i)'s rank gap, and row (vii) reads the
# pair's Drazin kernel; thm2.8 is thm2.1 on the dual pair. The
# characterizations took 23 and 20 SVDs when every row took both norms and
# thm2.8's null-space test decided both ranks again, 14 and 11 when row (vii)
# factored the product again, 11 and 8 when the range rows took a
# pseudoinverse of the power, and 9 and 7 when thm2.1's range rows took a
# projector of X and thm2.8 judged a null space by a stacked rank.
CHARACTERIZATION_BUDGET = {"check_mrwwd": 6, "check_mrwwd_right": 6}


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
        assert dual._rank(side, k) == pair._rank(other, k)
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
            q = pair._rank(side, k)
            assert q == matcore.rank_of(power(k))
            # every higher power has the same rank, read without an SVD
            assert pair._rank(side, k + 2) == q
        assert "rank" not in _quantities(pair._memo)
    # on the truth draws the SVD of the power is decided on the power's own
    # scale and misses the constructed rank on about a third of them (a
    # nilpotent S whose power is roundoff reads as full rank); the staircase
    # form decides on ||S||'s scale and meets it on every draw
    for pair, rank in _truth_draws(300, 11):
        assert pair._rank("BW", pair.k_bw) == rank
        assert pair._rank("WB", pair.k_wb) == rank


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
                    assert pair._rank(side, j) == rank
                    P = pair._projector(side, j)
                    assert np.allclose(P, span @ span.conj().T, atol=1e-10)
            # no rank is kept, and one projector is kept per power up to the
            # index, read from the form: at the index the form's own P
            assert "rank" not in _quantities(pair._memo)
            for key, P in pair._memo.items():
                if key[0] == "projector":
                    form, j = pair._memo["staircase", key[1]], key[2]
                    assert j <= form.k
                    if j == form.k:
                        assert P is form.P
                    else:
                        assert np.array_equal(P, form.projector(j))


def test_membership_reads_the_rank_of_a_roundoff_power_as_zero():
    # a nilpotent BW of index 5: (BW)^5 is roundoff, which an SVD of the
    # power read as rank 5, refusing the true member X = 0 with a rank gap;
    # the staircase reads it as rank 0, and X = 0 lies in its range
    rng = np.random.default_rng(4)
    truth = square_truth(5, 5, 1.0, 0.0, 0.0, True, rng)
    V = cx.unitary(rng, 5, True)
    pair = matcore.weighted_pair(truth.S @ V.conj().T, V)
    assert pair.k_bw == 5 and np.abs(pair.bw_power(5)).max() > 0.0
    ok, _, range_residual = winv._left_member_residual(pair, np.zeros((5, 5)))
    assert ok and range_residual == 0.0


def test_canonical_refusal_names_the_exact_range_residual(monkeypatch):
    # the fixture member solves its power equation exactly, and X - P X is
    # roundoff: below it the membership test refuses, naming both exact
    # residuals before any decomposition. The power row, passed by its
    # Frobenius bound, is taken exactly for the message, and needs no SVD
    # since its residual is exactly zero: the range row takes the one SVD
    pair = ex1_pair(ToleranceConfig(residual_atol=1e-30))
    X = ex1_member(2, -1).astype(complex)
    P = pair._projector("BW", pair.k_bw)
    range_residual = spectral_norm(X - P @ X)
    assert 0.0 < range_residual < 1e-14
    calls = _counting(monkeypatch, linalg_impl, "svd")
    monkeypatch.setattr(np.linalg, "svd", linalg_impl.svd)
    with pytest.raises(HypothesisError) as refused:
        weak_mpd_canonical(pair, X)
    assert str(refused.value) == (
        f"X is not a member of the left solution family "
        f"(power residual {0.0:.3e}, range residual {range_residual:.3e})"
    )
    assert len(calls) == 1


# admissible_perturbation gates its member through the one membership test,
# `_require_member`, whose passing power row takes no exact SVD. It took 11
# and 9 when it read the member's exact residuals. The right side runs after
# the left, on the same pair.
PERTURBATION_SVDS = {"left": 10, "right": 8}


def test_admissible_perturbation_svd_count(monkeypatch):
    pair = ex1_pair()
    member = w_drazin(pair).value
    calls = _counting(monkeypatch, linalg_impl, "svd")
    monkeypatch.setattr(np.linalg, "svd", linalg_impl.svd)
    for side, svds in PERTURBATION_SVDS.items():
        del calls[:]
        admissible_perturbation(pair, member, 0.1, seed=5, side=side)
        assert len(calls) == svds, side
