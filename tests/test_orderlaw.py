import dataclasses
import re

import numpy as np
import pytest

from wginv import orderlaw, winv
from wginv._gen import ex2_matrices, ex2_member
from wginv.matcore import HypothesisError, spectral_norm, weighted_pair
from wginv.orderlaw import (
    commuting_case,
    ex2_case,
    forward_order_minimal,
    forward_order_weak,
    matrix_equation_solution,
    reverse_order_minimal,
    reverse_order_weak,
    reverse_order_weak_mpd,
    rol_case,
    triple_forward,
    triple_reverse,
    wdrazin_order_corollaries,
)
from wginv.winv import _left_member_residual, mrwwd_family
from wginv.matcore import DEFAULT_TOL, DimensionError, ToleranceConfig


def test_fixture_factors_commute_exactly():
    A, B, C, W = ex2_matrices()
    assert spectral_norm(A @ W @ B @ W - B @ W @ A @ W) == 0.0
    assert spectral_norm(A @ W @ C @ W - C @ W @ A @ W) == 0.0
    assert spectral_norm(B @ W @ C @ W - C @ W @ B @ W) == 0.0


def test_fixture_rows_are_left_members():
    # the first-row matrices solve the left power equation of their own
    # factor exactly; they are not right-family members in general
    A, B, C, W = ex2_matrices()
    for F, row in ((A, (1, 2, -1, 3)), (B, (1, 0, 1, 0)), (C, (1, 1, 0, 0))):
        pair = weighted_pair(F, W)
        ok, residual, gap = _left_member_residual(pair, ex2_member(row))
        assert ok and residual == 0.0 and gap == 0


def test_fixture_pair_order_laws_exact():
    case = ex2_case(z=(2, -1, 3), y=(1, -2), u=2)
    assert reverse_order_weak(case).worst_residual() == 0.0
    assert forward_order_weak(case).worst_residual() == 0.0
    assert reverse_order_minimal(case).overall
    assert forward_order_minimal(case).overall
    assert reverse_order_minimal(case).worst_residual() <= 1e-12
    assert forward_order_minimal(case).worst_residual() <= 1e-12


def test_fixture_drazin_corollaries():
    case = ex2_case()
    report = wdrazin_order_corollaries(case)
    assert report.overall, report.to_dict()
    notes = dict(report.notes)
    # the reverse product is a member but differs from the product inverse
    assert abs(notes["reverse equality residual"] - np.sqrt(2)) <= 1e-10


def test_fixture_triple_laws():
    case = ex2_case()
    assert triple_reverse(case).overall
    assert triple_forward(case).overall
    assert triple_reverse(case).worst_residual() <= 1e-12


def test_commuting_case_runs_every_pair_law():
    for seed in (0, 1, 2):
        case = commuting_case(5, 4, seed)
        for fn in (
            reverse_order_weak,
            forward_order_weak,
            reverse_order_minimal,
            forward_order_minimal,
            wdrazin_order_corollaries,
        ):
            report = fn(case)
            assert report.overall, (seed, fn.__name__, report.to_dict())
            assert report.worst_residual() <= 1e-9


def test_commuting_case_triple_laws():
    for seed in (0, 3):
        case = commuting_case(6, 5, seed, with_c=True)
        assert triple_reverse(case).overall, seed
        assert triple_forward(case).overall, seed


def test_hypothesis_gate_blocks_broken_flags():
    case = commuting_case(5, 4, 0)
    B = np.random.default_rng(2).standard_normal(case.B.shape)
    with pytest.raises(HypothesisError, match="awbw_commute"):
        reverse_order_weak(dataclasses.replace(case, B=B))


def test_a_swapped_member_is_judged_by_its_own_flags():
    # a member swapped in after the case was built is what the law's
    # hypotheses are decided on: this one of B's family fails y3w_aw_commute
    case = commuting_case(5, 4, 1)
    family = mrwwd_family(case._pair("B"))
    case.inverses["Y3"] = family.member(0.5 * np.random.default_rng(0).standard_normal((5, 4)))
    with pytest.raises(HypothesisError, match="y3w_aw_commute"):
        reverse_order_minimal(case)


def test_weak_mpd_reverse_law_on_invertible_weight():
    for seed in (0, 1, 2):
        case = rol_case(5, seed)
        report = reverse_order_weak_mpd(case)
        assert report.overall, (seed, report.to_dict())
        assert report.worst_residual() <= 1e-10


def test_weak_mpd_reverse_law_fixture_hypotheses_fail():
    # the integer fixture genuinely breaks two hypotheses; the report stops
    # at the flags and the gated form raises
    case = ex2_case()
    report = reverse_order_weak_mpd(case, require_hypotheses=False)
    assert not report.overall
    by_label = {label: ok for label, _, ok in report.conditions}
    assert by_label["H1 range condition"]
    assert not by_label["H2 weight-row commutation"]
    assert not by_label["H3 mixed commutation"]
    assert by_label["H4 member commutation"]
    # no conclusion rows were evaluated
    assert "factored weak MPD inverse" not in by_label
    with pytest.raises(HypothesisError):
        reverse_order_weak_mpd(case)


def test_matrix_equation_pair_family():
    A, B, C, W = ex2_matrices()
    case = ex2_case()
    member = case.inverses["Y3"] @ W @ case.inverses["Z2"]
    family, report = matrix_equation_solution(A, B, W, member)
    assert report.overall, report.to_dict()
    rng = np.random.default_rng(5)
    for _ in range(3):
        Y = family.member(rng.standard_normal(W.shape))
        assert family.equation_residual(Y) <= 1e-9
    with pytest.raises(ValueError):
        family.member(np.zeros((2, 2)))


def test_matrix_equation_triple_and_custom_rhs():
    A, B, C, W = ex2_matrices()
    case = ex2_case()
    member = case.inverses["U1"] @ W @ case.inverses["Y4"] @ W @ case.inverses["Z3"]
    rng = np.random.default_rng(8)
    R = rng.standard_normal(W.shape)
    family, report = matrix_equation_solution(A, B, W, member, R=R, C=C)
    assert report.overall, report.to_dict()
    assert family.label == "triple"
    Y = family.member(rng.standard_normal(W.shape))
    assert family.equation_residual(Y) <= 1e-9


def test_matrix_equation_rejects_non_member():
    A, B, C, W = ex2_matrices()
    with pytest.raises(HypothesisError):
        matrix_equation_solution(A, B, W, np.ones((5, 4)))
    case = ex2_case()
    member = case.inverses["Y3"] @ W @ case.inverses["Z2"]
    with pytest.raises(ValueError):
        matrix_equation_solution(A, B, W, member, R=np.zeros((2, 2)))


def test_plain_weak_slots_accept_generic_members():
    # the plain order laws need no rank condition: any family member of each
    # factor works in the Z1 / Y2 slots
    case = commuting_case(5, 4, 4)
    pa = weighted_pair(case.A, case.W)
    pb = weighted_pair(case.B, case.W)
    rng = np.random.default_rng(3)
    case.inverses["Z1"] = mrwwd_family(pa).member(rng.standard_normal((5, 4)))
    case.inverses["Y2"] = mrwwd_family(pb).member(rng.standard_normal((5, 4)))
    assert reverse_order_weak(case).overall
    assert forward_order_weak(case).overall


def test_fixture_pair_case_leaves_out_the_third_factor():
    # the pair laws read no third factor: without it the case holds the same
    # pair members, and each pair law gives the same report
    full = ex2_case(z=(2, -1, 3), y=(1, -2), u=2)
    pair = ex2_case(z=(2, -1, 3), y=(1, -2), u=2, with_c=False)
    assert pair.C is None and "U1" not in pair.inverses
    for law in (
        reverse_order_weak,
        forward_order_weak,
        reverse_order_minimal,
        forward_order_minimal,
        wdrazin_order_corollaries,
    ):
        assert law(pair).to_dict() == law(full).to_dict()
    # a triple law on it finds its hypotheses unset
    with pytest.raises(HypothesisError):
        triple_reverse(pair)


# An order-law case builds the weighted pair of each factor and product once,
# at its own tolerance, and shares it between its members and every law.

PAIR_LAWS = (
    reverse_order_weak,
    forward_order_weak,
    reverse_order_minimal,
    forward_order_minimal,
    wdrazin_order_corollaries,
)


def _counting_pairs(monkeypatch) -> list:
    built = []
    original = orderlaw.weighted_pair

    def counted(B, W, tol=DEFAULT_TOL):
        built.append(tol)
        return original(B, W, tol)

    monkeypatch.setattr(orderlaw, "weighted_pair", counted)
    return built


def test_pair_laws_share_three_pairs(monkeypatch):
    built = _counting_pairs(monkeypatch)
    case = ex2_case()
    for law in PAIR_LAWS:
        assert law(case).overall
    assert len(built) == 3  # A, B and A W B


def test_triple_laws_share_four_pairs(monkeypatch):
    built = _counting_pairs(monkeypatch)
    case = ex2_case()
    assert triple_reverse(case).overall
    assert triple_forward(case).overall
    assert len(built) == 4  # A, B, C and A W B W C


def test_case_builds_its_pairs_at_its_own_tolerance(monkeypatch):
    built = _counting_pairs(monkeypatch)
    other = ToleranceConfig(rank_rtol=1e-9)
    case = ex2_case(with_c=False, tol=other)
    assert case.tol == other and built == []
    reports = [law(case) for law in PAIR_LAWS]
    reports.append(reverse_order_weak_mpd(case, require_hypotheses=False))
    assert built == [other] * 3  # A, B and A W B, and no law builds another
    assert all(report.tolerances == other for report in reports)


def test_builders_store_their_tolerance_on_the_case():
    other = ToleranceConfig(rank_rtol=1e-9)
    assert commuting_case(5, 4, 0, tol=other).tol == other
    assert rol_case(5, 0, tol=other).tol == other
    assert ex2_case().tol == DEFAULT_TOL
    A, B, C, W = ex2_matrices()
    inv = ex2_case().inverses
    member = inv["Y3"] @ W @ inv["Z2"]
    assert matrix_equation_solution(A, B, W, member, tol=other)[1].tolerances == other


@pytest.mark.parametrize("slot", ["A", "B", "C", "W"])
def test_case_refuses_a_factor_of_the_wrong_shape(slot):
    # A, B and C are m x n and W is n x m: the error names the odd one's shape
    A, B, C, W = ex2_matrices()
    factors = dict(A=A, B=B, C=C, W=W)
    factors[slot] = np.zeros((6, 4) if slot != "W" else (5, 5))
    with pytest.raises(DimensionError, match=re.escape(str(factors[slot].shape))):
        orderlaw.OrderLawCase(**factors)


def test_case_matrices_are_read_only():
    case = ex2_case()
    with pytest.raises(dataclasses.FrozenInstanceError):
        case.A = np.zeros_like(case.A)
    for name in ("A", "B", "C", "W"):
        with pytest.raises(ValueError):
            getattr(case, name)[0, 0] = 7


def _laws(case) -> list:
    reports = [law(case) for law in PAIR_LAWS + (triple_reverse, triple_forward)]
    reports.append(reverse_order_weak_mpd(case, require_hypotheses=False))
    return [report.to_dict() for report in reports]


def test_case_copies_the_callers_matrices():
    reference = ex2_case()
    A, B, C, W = ex2_matrices()
    case = orderlaw.OrderLawCase(
        W=W,
        A=A,
        B=B,
        C=C,
        inverses=dict(reference.inverses),
    )
    for M in (A, B, C, W):
        M += 1
    assert case.A.dtype == A.dtype
    assert _laws(case) == _laws(reference)


def test_drazin_case_certifies_each_factor_inverse_once(monkeypatch):
    # the member slots and the commutation flags share the value of each
    # factor's W-weighted Drazin inverse
    kinds = []
    certify = winv._certify

    def recording(kind, checks, tol, *pair):
        kinds.append(kind)
        return certify(kind, checks, tol, *pair)

    monkeypatch.setattr(winv, "_certify", recording)
    commuting_case(5, 4, 1, with_c=True)
    assert kinds.count("w_drazin") == 3


def _counting_commutes(monkeypatch) -> list:
    calls = []
    commutes = orderlaw._commutes

    def recording(L, R, tol):
        calls.append(1)
        return commutes(L, R, tol)

    monkeypatch.setattr(orderlaw, "_commutes", recording)
    return calls


# Building a case decides no hypothesis; each law decides the flags it names
# when it runs, and a triple law one more for its Drazin specialization.
COMMUTES_PER_LAW = {
    reverse_order_weak: 1,
    forward_order_weak: 1,
    reverse_order_minimal: 2,
    forward_order_minimal: 2,
    wdrazin_order_corollaries: 2,
    triple_reverse: 5,
    triple_forward: 5,
}


def test_each_law_decides_only_the_flags_it_names(monkeypatch):
    calls = _counting_commutes(monkeypatch)
    cases = [commuting_case(5, 4, 3, with_c=True), ex2_case()]
    assert calls == []
    for case in cases:
        for law, count in COMMUTES_PER_LAW.items():
            del calls[:]
            law(case)
            assert len(calls) == count, (law.__name__, len(calls))
    # thm3.30 states its three commutation hypotheses (H2-H4) as report
    # rows, and mateq-* has none
    del calls[:]
    case = ex2_case()
    reverse_order_weak_mpd(case, require_hypotheses=False)
    assert len(calls) == 3
    del calls[:]
    member = case.inverses["Y3"] @ case.W @ case.inverses["Z2"]
    matrix_equation_solution(case.A, case.B, case.W, member)
    assert calls == []
