"""Order laws for products A W B (and A W B W C): when do combinations of
family members of the factors solve the product's power equation, and when do
the weighted Drazin inverses multiply exactly."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .matcore import (
    DEFAULT_TOL,
    DimensionError,
    HypothesisError,
    ToleranceConfig,
    VerificationReport,
    WeightedPair,
    _exact,
    _read_only,
    as_matrix,
    mp_inverse,
    spectral_norm,
    weighted_pair,
)
from ._gen import commuting_products, ex2_matrices, ex2_member, rol_matrices
from .verify import check_mrwwd
from .winv import _value, mrwwd_family, w_drazin, weak_mpd

__all__ = [
    "OrderLawCase",
    "GeneralSolutionFamily",
    "ex2_case",
    "commuting_case",
    "rol_case",
    "reverse_order_weak",
    "forward_order_weak",
    "reverse_order_minimal",
    "forward_order_minimal",
    "wdrazin_order_corollaries",
    "triple_reverse",
    "triple_forward",
    "reverse_order_weak_mpd",
    "matrix_equation_solution",
]


@dataclass(frozen=True)
class OrderLawCase:
    """Factors with a shared weight and chosen family members for each factor.
    Each law decides the commutation hypotheses it reads (`_FLAGS`) when it
    runs, on the members the case holds then, so a caller may swap one in.

    Members: Z-slots belong to the first factor A, Y-slots to the second
    factor B, U1 to the third factor C. Z1/Y2 are plain weak members; Z2/Y3
    (aliased Z3/Y4 in the triple laws) carry the rank condition as well.

    The case stores read-only copies of A, B, C and W in their own dtype, so
    the products of the factors round as the caller's arrays do, and builds
    the weighted pair of each factor and product once, at `tol`: every law
    on the case decides and judges at that tolerance.
    """

    W: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray | None = None
    inverses: dict = field(default_factory=dict)
    tol: ToleranceConfig = DEFAULT_TOL

    def __post_init__(self):
        shape = np.shape(self.A)
        for name in ("W", "A", "B", "C"):
            M = getattr(self, name)
            if M is not None:
                M = _read_only(np.array(M))
                if M.shape != (shape[::-1] if name == "W" else shape):
                    raise DimensionError(
                        f"{name} has shape {M.shape} beside A of shape {shape}: "
                        "A, B and C must be m x n and W n x m"
                    )
                object.__setattr__(self, name, M)

    @cached_property
    def _memo(self) -> dict:
        return {}

    def _pair(self, name: str) -> WeightedPair:
        """The pair with weight W of factor "A", "B" or "C", or of the product
        "AWB" or "AWBWC"."""
        memo = self._memo
        if name not in memo:
            F = getattr(self, name) if len(name) == 1 else self.A @ self.W @ self.B
            if name == "AWBWC":
                F = F @ self.W @ self.C
            memo[name] = weighted_pair(F, self.W, self.tol)
        return memo[name]

    def _product(self, triple: bool) -> tuple:
        """The pair of A W B (A W B W C if triple) and the shared stabilization
        power: the largest index of BW over the product and its factors."""
        if triple and self.C is None:
            raise ValueError("this order law needs a third factor C")
        names = ("A", "B", "C", "AWBWC") if triple else ("A", "B", "AWB")
        pairs = [self._pair(name) for name in names]
        return pairs[-1], max(p.k_bw for p in pairs)


def _commutes(L, R, tol: ToleranceConfig) -> tuple:
    """(||L R - R L||, pass), judged against L R."""
    LR = L @ R
    return _exact(LR - R @ L, LR, tol)


# The hypotheses the order laws read: each flag states that two products
# commute, written as chains of factors, member slots and W-weighted Drazin
# inverses ("A^D"). A flag that reads what the case lacks (C, U1) states none.
_FLAGS = {
    "awbw_commute": (("A", "W"), ("B", "W")),
    "y3w_aw_commute": (("Y3", "W"), ("A", "W")),
    "z2w_bw_commute": (("Z2", "W"), ("B", "W")),
    "adw_bw_commute": (("A^D", "W"), ("B", "W")),
    "bdw_aw_commute": (("B^D", "W"), ("A", "W")),
    "awcw_commute": (("A", "W"), ("C", "W")),
    "bwcw_commute": (("B", "W"), ("C", "W")),
    "u1w_awbw_commute": (("U1", "W"), ("A", "W", "B", "W")),
    "z3wy4w_cw_commute": (("Z3", "W", "Y4", "W"), ("C", "W")),
}


def _factor(case: OrderLawCase, name: str):
    if name.endswith("^D"):
        return _value(case._pair(name[0]), w_drazin)
    return getattr(case, name) if len(name) == 1 else case.inverses.get(name)


def _require_case_flags(case: OrderLawCase, names) -> None:
    """Decide each named flag on the members the case holds now."""
    bad = []
    for name in names:
        sides = [[_factor(case, f) for f in chain] for chain in _FLAGS[name]]
        residual, ok = float("nan"), False
        if all(M is not None for chain in sides for M in chain):
            residual, ok = _commutes(*(reduce(np.matmul, chain) for chain in sides), case.tol)
        if not ok:
            bad.append(f"{name} (residual {residual:.3e})")
    if bad:
        raise HypothesisError(f"commutation hypotheses fail: {bad}")


def ex2_case(
    z=(1, 1, 1),
    y=(1, 1),
    u=1,
    with_c: bool = True,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> OrderLawCase:
    """The integer fixture case at `tol`: members are first-row matrices whose
    free entries are exactly the given parameters. With with_c=False the third
    factor and its member U1 (u is then unused) are left out, which the pair
    laws never read."""
    A, B, C, W = ex2_matrices()
    Z2 = ex2_member((1, z[0], z[1], z[2]))
    Y3 = ex2_member((1, y[0], 0, y[1]))
    inverses = {"Z1": Z2, "Y2": Y3, "Z2": Z2, "Y3": Y3, "Z3": Z2, "Y4": Y3}
    if with_c:
        inverses["U1"] = ex2_member((1, u, 0, 0))
    return OrderLawCase(W=W, A=A, B=B, C=C if with_c else None, inverses=inverses, tol=tol)


def commuting_case(
    m: int,
    n: int,
    seed,
    with_c: bool = False,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> OrderLawCase:
    """Random case whose products all commute by construction.

    The rank-constrained member slots carry the weighted Drazin inverses (so
    the member commutation hypotheses hold structurally); the plain weak
    slots draw random members from the factor families.
    """
    W, mats = commuting_products(m, n, seed, count=3 if with_c else 2)
    case = _drazin_case(mats[0], mats[1], mats[2] if with_c else None, W, tol)
    rng = np.random.default_rng([0 if seed is None else seed, 17])
    # plain weak slots: any member of the factor's own family works, and the
    # power equations transport to the shared stabilization power
    for slot, name in (("Z1", "A"), ("Y2", "B")):
        family = mrwwd_family(case._pair(name))
        case.inverses[slot] = family.member(0.3 * rng.standard_normal((m, n)))
    return case


def rol_case(n: int, seed, tol: ToleranceConfig = DEFAULT_TOL) -> OrderLawCase:
    """Square invertible-weight case for the weak MPD reverse order law, with
    weighted Drazin members in the rank-constrained slots."""
    W, A, B = rol_matrices(n, seed)
    return _drazin_case(A, B, None, W, tol)


def _drazin_case(A, B, C, W, tol: ToleranceConfig) -> OrderLawCase:
    """The case of factors A, B (and C) with weight W whose member slots all
    hold the factors' weighted Drazin inverses."""
    case = OrderLawCase(W=W, A=A, B=B, C=C, tol=tol)
    ZD, YD = (_value(case._pair(name), w_drazin) for name in "AB")
    case.inverses.update(Z1=ZD, Y2=YD, Z2=ZD, Y3=YD, Z3=ZD, Y4=YD)
    if C is not None:
        case.inverses["U1"] = _value(case._pair("C"), w_drazin)
    return case


def _weak_law(
    case: OrderLawCase, first: str, second: str, theorem_id: str, label: str
) -> VerificationReport:
    """inverses[first] W inverses[second] solves the power equation of A W B
    (no rank condition)."""
    _require_case_flags(case, ["awbw_commute"])
    ppair, k = case._product(triple=False)
    P = case.inverses[first] @ case.W @ case.inverses[second]
    report = VerificationReport(theorem_id, case.tol)
    report.add_equation(
        f"power equation for the {label} product",
        P @ case.W @ ppair.bw_power(k + 1),
        ppair.bw_power(k),
    )
    report.note("stabilization power", float(k))
    return report


def _minimal_law(
    case: OrderLawCase, first: str, second: str, flag: str, theorem_id: str
) -> VerificationReport:
    """inverses[first] W inverses[second] is a full member of the family of
    A W B, under the member commutation hypothesis `flag`."""
    _require_case_flags(case, ["awbw_commute", flag])
    ppair, k = case._product(triple=False)
    P = case.inverses[first] @ case.W @ case.inverses[second]
    report = VerificationReport(theorem_id, case.tol)
    report.merge(check_mrwwd(ppair, P, power=k), prefix="product member: ")
    report.note("stabilization power", float(k))
    return report


def reverse_order_weak(case: OrderLawCase) -> VerificationReport:
    """Y2 W Z1 solves the product's power equation (no rank condition)."""
    return _weak_law(case, "Y2", "Z1", "thm3.25", "reverse")


def forward_order_weak(case: OrderLawCase) -> VerificationReport:
    """Z1 W Y2 solves the same power equation."""
    return _weak_law(case, "Z1", "Y2", "thm3.26", "forward")


def reverse_order_minimal(case: OrderLawCase) -> VerificationReport:
    """Y3 W Z2 is a full member of the product's solution family."""
    return _minimal_law(case, "Y3", "Z2", "y3w_aw_commute", "thm3.27")


def forward_order_minimal(case: OrderLawCase) -> VerificationReport:
    """Z2 W Y3 is a full member of the product's solution family."""
    return _minimal_law(case, "Z2", "Y3", "z2w_bw_commute", "thm3.28")


def wdrazin_order_corollaries(case: OrderLawCase) -> VerificationReport:
    """Weighted Drazin order laws: the forward product equals the product's
    weighted Drazin inverse exactly; the reverse product is a family member
    but generally differs from it, so only membership is asserted and the
    equality residual is reported as a note."""
    ppair, k = case._product(triple=False)
    W = case.W
    ADW, BDW = (_value(case._pair(name), w_drazin) for name in "AB")
    product_drazin = _value(ppair, w_drazin)

    report = VerificationReport("thm3.29", case.tol)
    _require_case_flags(case, ["adw_bw_commute"])
    report.add_equation("forward product equals the product inverse", ADW @ W @ BDW, product_drazin)
    _require_case_flags(case, ["bdw_aw_commute"])
    reverse = BDW @ W @ ADW
    report.merge(check_mrwwd(ppair, reverse, power=k), prefix="reverse product member: ")
    report.note(
        "reverse equality residual", spectral_norm(reverse - product_drazin)
    )
    return report


def triple_reverse(case: OrderLawCase) -> VerificationReport:
    """U1 W Y4 W Z3 is a member of the triple product's family; the weighted
    Drazin specialization is appended when its hypotheses hold."""
    _require_case_flags(case, ["awbw_commute", "awcw_commute", "bwcw_commute", "u1w_awbw_commute"])
    ppair, k = case._product(triple=True)
    W = case.W
    inv = case.inverses
    P = inv["U1"] @ W @ inv["Y4"] @ W @ inv["Z3"]
    report = VerificationReport("thm3.31", case.tol)
    report.merge(check_mrwwd(ppair, P, power=k), prefix="product member: ")

    ADW, BDW, CDW = (_value(case._pair(name), w_drazin) for name in "ABC")
    rev = CDW @ W @ BDW @ W @ ADW
    commute, ok = _commutes(CDW @ W, case.A @ W @ case.B @ W, case.tol)
    if ok:
        report.merge(check_mrwwd(ppair, rev, power=k), prefix="Drazin reverse member: ")
    else:
        report.note("Drazin reverse commutation residual (hypothesis fails)", commute)
    report.note(
        "Drazin reverse equality residual",
        spectral_norm(rev - _value(ppair, w_drazin)),
    )
    return report


def triple_forward(case: OrderLawCase) -> VerificationReport:
    """Z3 W Y4 W U1 is a member of the triple product's family; the forward
    weighted Drazin product equals the product inverse when the factor
    inverses commute with the remaining product."""
    _require_case_flags(case, ["awbw_commute", "awcw_commute", "bwcw_commute", "z3wy4w_cw_commute"])
    ppair, k = case._product(triple=True)
    W = case.W
    inv = case.inverses
    P = inv["Z3"] @ W @ inv["Y4"] @ W @ inv["U1"]
    report = VerificationReport("thm3.32", case.tol)
    report.merge(check_mrwwd(ppair, P, power=k), prefix="product member: ")

    ADW, BDW, CDW = (_value(case._pair(name), w_drazin) for name in "ABC")
    fwd = ADW @ W @ BDW @ W @ CDW
    commute, ok = _commutes(ADW @ W @ BDW @ W, case.C @ W, case.tol)
    if ok:
        report.add_equation(
            "forward Drazin product equals the product inverse",
            fwd,
            _value(ppair, w_drazin),
        )
    else:
        report.note("Drazin forward commutation residual (hypothesis fails)", commute)
    return report


def reverse_order_weak_mpd(
    case: OrderLawCase, require_hypotheses: bool = True
) -> VerificationReport:
    """Reverse order law for the weak MPD inverse itself: under four
    subspace/commutation hypotheses, the weak MPD inverse of A W B at member
    Y3 W Z2 factors as (weak MPD of B) W^+ (weak MPD of A).

    With require_hypotheses=False the hypotheses are reported as conditions
    and the conclusion is evaluated only if they all hold.
    """
    A, B, W, tol = case.A, case.B, case.W, case.tol
    Y3, Z2 = case.inverses["Y3"], case.inverses["Z2"]
    Wp = mp_inverse(W, tol)
    Ap = case._pair("A")._pinv()  # the B^+ that weak_mpd on A's pair reads

    report = VerificationReport("thm3.30", tol)
    T = W @ B @ B.conj().T @ W.conj().T @ A.conj().T
    report.add("H1 range condition", *_exact(T - (Ap @ A) @ T, T, tol))
    report.add("H2 weight-row commutation", *_commutes(Wp @ W, B @ B.conj().T, tol))
    report.add("H3 mixed commutation", *_commutes(Wp @ Ap, B @ W @ Y3 @ W, tol))
    report.add("H4 member commutation", *_commutes(A @ W, Y3 @ W, tol))

    hyps_ok = report.overall
    if not hyps_ok:
        if require_hypotheses:
            raise HypothesisError("weak MPD reverse order law hypotheses fail")
        return report

    product_member = Y3 @ W @ Z2
    lhs = weak_mpd(case._pair("AWB"), product_member).value
    B_wmpd = weak_mpd(case._pair("B"), Y3).value
    A_wmpd = weak_mpd(case._pair("A"), Z2).value
    report.add_equation("factored weak MPD inverse", lhs, B_wmpd @ Wp @ A_wmpd)
    report.note(
        "unweighted factoring residual",
        spectral_norm(lhs - B_wmpd @ A @ A_wmpd),
    )
    return report


@dataclass(frozen=True)
class GeneralSolutionFamily:
    """Affine solution set member(Zfree) = particular + Zfree @ annihilator of
    the one-sided equation Y @ power_matrix = rhs."""

    particular: np.ndarray
    annihilator: np.ndarray
    power_matrix: np.ndarray
    rhs: np.ndarray
    label: str

    def member(self, Zfree) -> np.ndarray:
        Zfree = as_matrix(Zfree)
        if Zfree.shape != self.particular.shape:
            raise DimensionError(
                f"free parameter shape {Zfree.shape} != {self.particular.shape}"
            )
        return self.particular + Zfree @ self.annihilator

    def equation_residual(self, Y) -> float:
        return spectral_norm(as_matrix(Y) @ self.power_matrix - self.rhs)


def matrix_equation_solution(
    A,
    B,
    W,
    member,
    R=None,
    Zfree=None,
    C=None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple:
    """General solution of Y (product W)^(k+1) = R (product W)^k, where the
    product is A W B (or A W B W C) and `member` belongs to the product's
    family at the shared stabilization power.

    Returns (family, report). R defaults to the weight itself.
    """
    A, B, W = (as_matrix(M) for M in (A, B, W))
    case = OrderLawCase(W=W, A=A, B=B, C=None if C is None else as_matrix(C), tol=tol)
    return _equation_solution(case, member, R, Zfree)


def _equation_solution(case: OrderLawCase, member, R, Zfree) -> tuple:
    """matrix_equation_solution on the factors of `case` (the triple product
    when it has a C), built on the case's own pairs."""
    W, tol = case.W, case.tol
    member = as_matrix(member)
    triple = case.C is not None
    ppair, k = case._product(triple=triple)
    Pk = ppair.bw_power(k)
    Pk1 = ppair.bw_power(k + 1)

    r_member, ok = _exact(member @ W @ Pk1 - Pk, Pk, tol)
    if not ok:
        raise HypothesisError(
            f"member fails the product power equation (residual {r_member:.3e})"
        )

    n, m = W.shape
    R = W.copy() if R is None else as_matrix(R)
    if R.shape != (n, m):
        raise DimensionError(f"R must be {n} x {m}, got {R.shape}")
    Zfree = np.zeros((n, m)) if Zfree is None else as_matrix(Zfree)
    if Zfree.shape != (n, m):
        raise DimensionError(f"Zfree must be {n} x {m}, got {Zfree.shape}")

    annihilator = np.eye(m) - ppair.bw_power(1) @ member @ W
    family = GeneralSolutionFamily(
        particular=R @ member @ W,
        annihilator=annihilator,
        power_matrix=Pk1,
        rhs=R @ Pk,
        label="triple" if triple else "pair",
    )

    report = VerificationReport("mateq-triple" if triple else "mateq-pair", tol)
    report.add_equation(
        "particular solution", family.particular @ Pk1, family.rhs
    )
    report.add_equation(
        "free member solution", family.member(Zfree) @ Pk1, family.rhs
    )
    report.add_equation(
        "annihilator kills the powers", annihilator @ Pk1, np.zeros_like(Pk1)
    )
    report.note("stabilization power", float(k))
    return family, report
