"""Command line interface: compute weighted inverses from matrix files,
verify the characterization/perturbation/order-law statements on fixtures or
seeded random instances, and run the acceptance suite.

Matrix file format: first line "rows cols", then rows*cols entries in row
major order; an entry is a real float or re+imi / re-imi. Exit codes: 0 all
conditions pass, 1 usage or parse failure, 2 a certified or checked condition
fails, 3 a hypothesis or generation precondition cannot be met.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache, cached_property

import numpy as np

from ._gen import (
    ex1_member,
    ex1_pair,
    ex1_weak_mpd,
    ex2_matrices,
    ex2_member,
    random_pair,
    random_square_with_index,
)
from .decomp import (
    canonical_report,
    decomposition_report,
    mp_via_blocks,
    weak_mpd_canonical,
    weighted_core_ep_decompose,
)
from .matcore import (
    DEFAULT_TOL,
    CertificationError,
    GenerationError,
    HypothesisError,
    ToleranceConfig,
    VerificationReport,
    as_matrix,
    index_of,
    mp_inverse,
    spectral_norm,
    weighted_pair,
)
from .orderlaw import (
    _drazin_case,
    _equation_solution,
    commuting_case,
    ex2_case,
    forward_order_minimal,
    forward_order_weak,
    reverse_order_minimal,
    reverse_order_weak,
    reverse_order_weak_mpd,
    rol_case,
    triple_forward,
    triple_reverse,
    wdrazin_order_corollaries,
)
from .perturb import (
    admissible_perturbation,
    dmp_perturbation,
    drazin_case_perturbation,
    mpd_perturbation,
    perturbed_mrwwd,
    perturbed_mrwwd_right,
)
from .sqinv import core_ep, drazin
from .verify import (
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
from .winv import (
    CATALOG,
    _value,
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

__all__ = ["main", "parse_matrix_text", "format_matrix", "load_matrix", "save_matrix"]

_FLOAT = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_ENTRY_RE = re.compile(rf"^({_FLOAT})(?:([+-](?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)i)?$")


def parse_matrix_text(text: str) -> np.ndarray:
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("matrix text needs a 'rows cols' header")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise ValueError(f"bad matrix header {tokens[:2]}") from exc
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    entries = tokens[2:]
    if len(entries) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, found {len(entries)}")
    values = []
    for tok in entries:
        match = _ENTRY_RE.match(tok)
        if match is None:
            raise ValueError(f"bad matrix entry {tok!r}")
        real = float(match.group(1))
        imag = float(match.group(2)) if match.group(2) is not None else 0.0
        values.append(complex(real, imag))
    return np.array(values, dtype=complex).reshape(rows, cols)


def _format_entry(z: complex) -> str:
    real, imag = float(np.real(z)), float(np.imag(z))
    if imag == 0.0:
        return repr(real)
    sign = "+" if imag > 0 else "-"
    return f"{repr(real)}{sign}{repr(abs(imag))}i"


def format_matrix(A) -> str:
    A = as_matrix(A)
    lines = [f"{A.shape[0]} {A.shape[1]}"]
    for row in A:
        lines.append(" ".join(_format_entry(z) for z in row))
    return "\n".join(lines) + "\n"


def load_matrix(path: str) -> np.ndarray:
    with open(path, "r", encoding="ascii") as handle:
        return parse_matrix_text(handle.read())


def save_matrix(path: str, A) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write(format_matrix(A))


def report_to_document(report: VerificationReport, seed, fixtures_used) -> dict:
    doc = report.to_dict()
    doc["seed"] = seed
    doc["fixtures_used"] = list(fixtures_used)
    return doc


# ---------------------------------------------------------------------------
# verify registry


def _sample_int(rng: np.random.Generator, explicit) -> int:
    if explicit is not None:
        return int(explicit)
    return int(rng.integers(-2, 3))


def _sample_dims(rng: np.random.Generator) -> tuple:
    m = int(rng.integers(3, 9))
    n = int(rng.integers(3, 9))
    t = int(rng.integers(0, 4))
    if t == 0:
        n = m
    else:
        t = min(t, min(m, n) - 1)
    return m, n, t


def _left_draw(pair, rng, tol):
    return mrwwd_family(pair, tol).member(0.4 * rng.standard_normal((pair.m, pair.n)))


def _right_draw(pair, rng, tol):
    return mrwwd_right_family(pair, tol).member(
        0.4 * rng.standard_normal((pair.m, pair.n))
    )


class _Draw:
    """One trial of a `verify` check: the instance ("ex1", "ex2" or "random")
    and everything drawn on it. Each input is built when the check first asks
    for it, from one `default_rng(seed)`, so the draws follow the order in
    which the check reads them."""

    def __init__(self, ns, seed: int, tol: ToleranceConfig, instance: str):
        self.ns, self.seed, self.tol, self.instance = ns, seed, tol, instance
        self.rng = np.random.default_rng(seed)
        self.x1 = None

    @cached_property
    def pair(self):
        if self.instance == "random":
            m, n, t = _sample_dims(self.rng)
            return random_pair(m, n, t, self.rng, self.tol)
        if self.instance == "ex1":
            return ex1_pair(self.tol)
        A, _, _, W = ex2_matrices()
        return weighted_pair(A, W, self.tol)

    def left(self, x1=None, x2=None):
        """A left family member: drawn on a random pair, else the ex1 closed
        form at --x1/--x2, or at `x1`/`x2`, or at drawn integers."""
        if self.instance == "random":
            return _left_draw(self.pair, self.rng, self.tol)
        ns = self.ns
        self.x1 = _sample_int(self.rng, ns.x1 if ns.x1 is not None else x1)
        x2 = _sample_int(self.rng, ns.x2 if ns.x2 is not None else x2)
        return ex1_member(self.x1, x2)

    @cached_property
    def Z(self):
        # the right family has no closed integer form on a fixture, so draw one
        return _right_draw(self.pair, self.rng, self.tol)

    @cached_property
    def free(self):
        return self.rng.standard_normal((self.pair.n, self.pair.m))

    def scenario(self, side: str):
        """An admissible perturbation of the pair's weighted Drazin member."""
        member = _value(self.pair, w_drazin, self.tol)
        alpha = 0.1 if self.ns.alpha is None else float(self.ns.alpha)
        return admissible_perturbation(
            self.pair, member, alpha, self.seed, side=side, tol=self.tol
        )

    def case(self, with_c: bool = False):
        """An order-law case: commuting random factors, else the ex2 fixture at
        --z1.. --u1 or at drawn integers."""
        if self.instance == "random":
            return commuting_case(5, 4, self.seed, with_c=with_c, tol=self.tol)
        ns, rng = self.ns, self.rng
        z = tuple(_sample_int(rng, getattr(ns, f"z{i}")) for i in (1, 2, 3))
        y = tuple(_sample_int(rng, getattr(ns, f"y{i}")) for i in (1, 2))
        u = _sample_int(rng, ns.u1)  # drawn for pair laws too, so later draws keep their order
        return ex2_case(z=z, y=y, u=u, with_c=with_c)


# Checks name the library functions they call at call time (never bind them
# when the table is built), so wrappers installed on the modules see them.


def _weak_mpd_system(d: _Draw) -> VerificationReport:
    X = d.left()
    if d.instance == "ex1":
        Y = ex1_weak_mpd(d.x1)
    else:
        Y = weak_mpd(d.pair, X, d.tol).value
    return check_weak_mpd_system(d.pair, X, Y, d.tol)


def _mpd_characterizations(d: _Draw) -> VerificationReport:
    X = d.left(1, 2)
    return check_mpd_characterizations(d.pair, X, weak_mpd(d.pair, X, d.tol).value, d.tol)


def _unique_projector_solutions(d: _Draw) -> VerificationReport:
    X, Z = d.left(), d.Z
    report = VerificationReport("thm3.8", d.tol)
    report.merge(
        check_unique_projector_solution(
            d.pair, X, weak_mpd(d.pair, X, d.tol).value, d.tol, side="left"
        ),
        prefix="left: ",
    )
    report.merge(
        check_unique_projector_solution(
            d.pair, Z, weak_dmp(d.pair, Z, d.tol).value, d.tol, side="right"
        ),
        prefix="right: ",
    )
    return report


def _weak_mpd_order_law(d: _Draw, fixture_case) -> VerificationReport:
    """thm3.30 on a random `rol_case`, else on `fixture_case()`, whose
    hypotheses are reported instead of required."""
    if d.instance == "random":
        return reverse_order_weak_mpd(rol_case(6, d.seed, d.tol), d.tol)
    return reverse_order_weak_mpd(fixture_case(), d.tol, require_hypotheses=False)


def _matrix_equation(d: _Draw, with_c: bool, member) -> VerificationReport:
    case = d.case(with_c)
    Zfree = 0.3 * d.rng.standard_normal(case.W.shape) if d.instance == "random" else None
    return _equation_solution(case, member(case.inverses, case.W), None, Zfree, d.tol)[1]


# id -> (the instances it runs on, the default first; its check of one trial)
_EX1, _EX2 = ("ex1", "random"), ("ex2", "random")
REGISTRY = {
    "thm2.1": (_EX1, lambda d: check_mrwwd(d.pair, d.left(), d.tol)),
    "thm2.8": (_EX2, lambda d: check_mrwwd_right(d.pair, d.Z, d.tol)),
    "thm3.1": (_EX1, _weak_mpd_system),
    "lem3.2": (
        _EX2,
        lambda d: check_weak_dmp_system(d.pair, d.Z, weak_dmp(d.pair, d.Z, d.tol).value, d.tol),
    ),
    "thm3.3": (_EX1, _mpd_characterizations),
    "thm3.4": (
        _EX1,
        lambda d: check_dmp_characterizations(
            d.pair, d.Z, weak_dmp(d.pair, d.Z, d.tol).value, d.tol
        ),
    ),
    "thm3.5": (_EX1, lambda d: check_wdrazin_specialization(d.pair, d.tol)),
    "lem3.6": (_EX1, lambda d: check_projectors(d.pair, d.left(), None, d.tol)),
    "lem3.7": (_EX2, lambda d: check_projectors_right(d.pair, d.Z, None, d.tol)),
    "thm3.8": (_EX1, _unique_projector_solutions),
    "lem3.10": (_EX1, lambda d: check_mp_drazin_absorption(d.pair, d.left(), d.Z, d.tol)),
    "thm3.12": (_EX1, lambda d: one_inverse_family(d.pair, d.free, d.tol)[1]),
    "lem3.13": (_EX1, lambda d: one_inverse_family_right(d.pair, d.free, d.tol)[1]),
    "lem3.14": (_EX1, lambda d: mpd_general_solution(d.pair, d.left(), d.free, d.tol)[1]),
    "lem3.15": (
        _EX1,
        lambda d: decomposition_report(weighted_core_ep_decompose(d.pair, d.tol), d.tol),
    ),
    "thm3.16": (_EX1, lambda d: canonical_report(d.pair, d.left(1, 2), d.tol)),
    "thm3.17": (_EX1, lambda d: perturbed_mrwwd(d.scenario("left"), d.tol)),
    "thm3.18": (_EX1, lambda d: perturbed_mrwwd_right(d.scenario("right"), d.tol)),
    "thm3.19": (_EX1, lambda d: mpd_perturbation(d.scenario("left"), d.tol)),
    "thm3.20": (_EX1, lambda d: dmp_perturbation(d.scenario("right"), d.tol)),
    "cor-mpd": (_EX1, lambda d: drazin_case_perturbation(d.scenario("left"), d.tol)),
    "cor-dmp": (_EX1, lambda d: drazin_case_perturbation(d.scenario("right"), d.tol)),
    "thm3.25": (_EX2, lambda d: reverse_order_weak(d.case(), d.tol)),
    "thm3.26": (_EX2, lambda d: forward_order_weak(d.case(), d.tol)),
    "thm3.27": (_EX2, lambda d: reverse_order_minimal(d.case(), d.tol)),
    "thm3.28": (_EX2, lambda d: forward_order_minimal(d.case(), d.tol)),
    "thm3.29": (_EX2, lambda d: wdrazin_order_corollaries(d.case(), d.tol)),
    "thm3.30": (_EX2, lambda d: _weak_mpd_order_law(d, d.case)),
    "thm3.30-rol": (
        ("random", "ex2"),
        lambda d: _weak_mpd_order_law(d, lambda: _drazin_case(*ex2_matrices(), d.tol)),
    ),
    "thm3.31": (_EX2, lambda d: triple_reverse(d.case(with_c=True), d.tol)),
    "thm3.32": (_EX2, lambda d: triple_forward(d.case(with_c=True), d.tol)),
    "mateq-pair": (_EX2, lambda d: _matrix_equation(d, False, lambda v, W: v["Y3"] @ W @ v["Z2"])),
    "mateq-triple": (
        _EX2,
        lambda d: _matrix_equation(
            d, True, lambda v, W: v["U1"] @ W @ v["Y4"] @ W @ v["Z3"]
        ),
    ),
}


# ---------------------------------------------------------------------------
# acceptance suite batteries


def suite_w_drazin_fixture(tol: ToleranceConfig) -> VerificationReport:
    """Criterion 1: the fixture's weighted Drazin inverse matches its integer
    closed form entrywise."""
    pair = ex1_pair(tol)
    value = w_drazin(pair, tol).value
    oracle = ex1_member(1, 2)
    gap = float(np.max(np.abs(value - oracle)))
    report = VerificationReport("suite-1-wdrazin-exact", tol)
    report.add("entrywise agreement with closed form", gap, gap <= 1e-12)
    return report


def suite_weak_mpd_family(tol: ToleranceConfig) -> VerificationReport:
    """Criterion 2: weak MPD inverses across the fixture family match the
    closed form, satisfy the system, and collapse to the weighted MPD at
    parameter 1."""
    pair = ex1_pair(tol)
    report = VerificationReport("suite-2-weak-mpd-family", tol)
    worst_closed = 0.0
    worst_system = 0.0
    for x1 in (-1, 0, 1):
        X = ex1_member(x1, 2)
        Y = weak_mpd(pair, X, tol).value
        worst_closed = max(worst_closed, spectral_norm(Y - ex1_weak_mpd(x1)))
        system = check_weak_mpd_system(pair, X, Y, tol)
        worst_system = max(worst_system, system.worst_residual())
    report.add("closed form across x1 in {-1,0,1}", worst_closed, worst_closed <= 1e-10)
    report.add("system residuals", worst_system, worst_system <= 1e-10)
    collapse = spectral_norm(
        weak_mpd(pair, ex1_member(1, 2), tol).value - _value(pair, w_mpd, tol)
    )
    report.add("x1 = 1 collapses to the weighted MPD", collapse, collapse <= 1e-10)
    return report


def suite_index_fixture(tol: ToleranceConfig) -> VerificationReport:
    """Criterion 3: the fixture product has index exactly 3."""
    pair = ex1_pair(tol)
    report = VerificationReport("suite-3-index", tol)
    report.add_rank_gap("index of the fixture product", index_of(pair.bw_power(1), tol), 3)
    return report


def suite_order_products(seed: int, tol: ToleranceConfig) -> VerificationReport:
    """Criterion 4: all four fixture order-law products agree exactly with
    their first-row closed forms across integer parameter draws."""
    rng = np.random.default_rng([seed, 4])
    worst = {"reverse": 0.0, "forward": 0.0, "triple reverse": 0.0, "triple forward": 0.0}
    for _ in range(10):
        z1, z2, z3, y1, y2, u1 = (int(v) for v in rng.integers(-2, 3, size=6))
        case = ex2_case(z=(z1, z2, z3), y=(y1, y2), u=u1)
        W = case.W
        inv = case.inverses
        prods = {
            "reverse": (inv["Y3"] @ W @ inv["Z2"], ex2_member((1, z1, z2, z3))),
            "forward": (inv["Z2"] @ W @ inv["Y3"], ex2_member((1, y1, 0, y2))),
            "triple reverse": (
                inv["U1"] @ W @ inv["Y4"] @ W @ inv["Z3"],
                ex2_member((1, z1, z2, z3)),
            ),
            "triple forward": (
                inv["Z3"] @ W @ inv["Y4"] @ W @ inv["U1"],
                ex2_member((1, u1, 0, 0)),
            ),
        }
        for name, (got, want) in prods.items():
            worst[name] = max(worst[name], float(np.max(np.abs(got - want))))
    report = VerificationReport("suite-4-order-products", tol)
    for name, gap in worst.items():
        report.add(f"{name} product exact", gap, gap == 0.0)
    return report


def _coherence_instances(seed: int, tol: ToleranceConfig, count: int = 100):
    for i in range(count):
        rng = np.random.default_rng([seed, 101, i])
        m, n, t = _sample_dims(rng)
        pair = random_pair(m, n, t, rng, tol)
        X = _left_draw(pair, rng, tol)
        Z = _right_draw(pair, rng, tol)
        yield rng, pair, X, Z


def _bump(rng: np.random.Generator, A: np.ndarray) -> np.ndarray:
    G = rng.standard_normal(A.shape)
    return A + 0.05 * max(1.0, spectral_norm(A)) * G / spectral_norm(G)


def suite_random_coherence(seed: int, tol: ToleranceConfig) -> VerificationReport:
    """Criterion 5: on 100 seeded pairs the member characterizations all agree
    (uniformly true for members, uniformly false for perturbed non-members)
    and the seven-way characterizations accept constructed inverses while
    rejecting perturbed ones."""
    fails = {
        "left members uniformly accepted": 0,
        "right members uniformly accepted": 0,
        "left non-members uniformly rejected": 0,
        "right non-members uniformly rejected": 0,
        "MPD characterizations accepted": 0,
        "DMP characterizations accepted": 0,
        "perturbed MPD rejected": 0,
        "perturbed DMP rejected": 0,
    }
    for rng, pair, X, Z in _coherence_instances(seed, tol):
        verdicts = [ok for _, _, ok in check_mrwwd(pair, X, tol).conditions]
        if not all(verdicts):
            fails["left members uniformly accepted"] += 1
        verdicts = [ok for _, _, ok in check_mrwwd_right(pair, Z, tol).conditions]
        if not all(verdicts):
            fails["right members uniformly accepted"] += 1
        bad = [ok for _, _, ok in check_mrwwd(pair, _bump(rng, X), tol).conditions]
        if any(bad):
            fails["left non-members uniformly rejected"] += 1
        bad = [ok for _, _, ok in check_mrwwd_right(pair, _bump(rng, Z), tol).conditions]
        if any(bad):
            fails["right non-members uniformly rejected"] += 1

        Y = weak_mpd(pair, X, tol).value
        if not check_mpd_characterizations(pair, X, Y, tol).overall:
            fails["MPD characterizations accepted"] += 1
        Y1 = weak_dmp(pair, Z, tol).value
        if not check_dmp_characterizations(pair, Z, Y1, tol).overall:
            fails["DMP characterizations accepted"] += 1
        if check_mpd_characterizations(pair, X, _bump(rng, Y), tol).overall:
            fails["perturbed MPD rejected"] += 1
        if check_dmp_characterizations(pair, Z, _bump(rng, Y1), tol).overall:
            fails["perturbed DMP rejected"] += 1

    report = VerificationReport("suite-5-random-coherence", tol)
    for label, count in fails.items():
        report.add(f"{label} (100 instances)", float(count), count == 0)
    return report


def suite_projector_geometry(seed: int, tol: ToleranceConfig) -> VerificationReport:
    """Criterion 6: the projector lemmas hold on the same 100 instances."""
    worst_left = 0.0
    worst_right = 0.0
    fail_left = 0
    fail_right = 0
    for _, pair, X, Z in _coherence_instances(seed, tol):
        rep = check_projectors(pair, X, None, tol)
        worst_left = max(worst_left, rep.worst_residual())
        if not rep.overall:
            fail_left += 1
        rep = check_projectors_right(pair, Z, None, tol)
        worst_right = max(worst_right, rep.worst_residual())
        if not rep.overall:
            fail_right += 1
    report = VerificationReport("suite-6-projector-geometry", tol)
    report.add("weak MPD projector lemma (100 instances)", float(fail_left), fail_left == 0)
    report.add("weak DMP projector lemma (100 instances)", float(fail_right), fail_right == 0)
    report.note("worst weak MPD residual", worst_left)
    report.note("worst weak DMP residual", worst_right)
    return report


def suite_decomposition(seed: int, tol: ToleranceConfig) -> VerificationReport:
    """Criterion 7: decomposition reassembly, canonical weak MPD agreement,
    and the block Moore-Penrose across 100 instances."""
    worst_reassembly = 0.0
    worst_canonical = 0.0
    worst_mp = 0.0
    for i in range(100):
        rng = np.random.default_rng([seed, 301, i])
        m, n, t = _sample_dims(rng)
        pair = random_pair(m, n, t, rng, tol)
        X = _left_draw(pair, rng, tol)
        dec = weighted_core_ep_decompose(pair, tol)
        worst_reassembly = max(
            worst_reassembly,
            spectral_norm(dec.assemble_b() - pair.B),
            spectral_norm(dec.assemble_w() - pair.W),
        )
        canonical = weak_mpd_canonical(pair, X, tol, dec=dec).value
        direct = weak_mpd(pair, X, tol).value
        worst_canonical = max(worst_canonical, spectral_norm(canonical - direct))
        worst_mp = max(
            worst_mp, spectral_norm(mp_via_blocks(dec, tol) - pair._pinv(tol))
        )
    report = VerificationReport("suite-7-decomposition", tol)
    report.add("reassembly (100 instances)", worst_reassembly, worst_reassembly <= 1e-10)
    report.add("canonical vs direct weak MPD", worst_canonical, worst_canonical <= 1e-8)
    report.add("block Moore-Penrose vs SVD", worst_mp, worst_mp <= 1e-8)
    return report


def suite_perturbation(seed: int, tol: ToleranceConfig) -> VerificationReport:
    """Criterion 8: 50 admissible perturbation scenarios drive the family
    stability theorem and both inverse perturbation chains, sandwich bounds
    included; the zero perturbation collapses the sandwich."""
    fails = {"family stability": 0, "MPD chain": 0, "DMP chain": 0, "sandwich brackets": 0}
    for i in range(50):
        rng = np.random.default_rng([seed, 401, i])
        m, n, t = _sample_dims(rng)
        pair = random_pair(m, n, t, rng, tol)
        member = _value(pair, w_drazin, tol)
        left = admissible_perturbation(pair, member, 0.3, rng, side="left", tol=tol)
        right = admissible_perturbation(pair, member, 0.3, rng, side="right", tol=tol)
        if not perturbed_mrwwd(left, tol).overall:
            fails["family stability"] += 1
        rep_mpd = mpd_perturbation(left, tol)
        rep_dmp = dmp_perturbation(right, tol)
        if not rep_mpd.overall:
            fails["MPD chain"] += 1
        if not rep_dmp.overall:
            fails["DMP chain"] += 1
        sandwich_ok = all(
            ok for label, _, ok in rep_mpd.conditions + rep_dmp.conditions if "sandwich" in label
        )
        if not sandwich_ok:
            fails["sandwich brackets"] += 1

    report = VerificationReport("suite-8-perturbation", tol)
    for label, count in fails.items():
        report.add(f"{label} (50 scenarios)", float(count), count == 0)

    pair = ex1_pair(tol)
    member = _value(pair, w_drazin, tol)
    zero = admissible_perturbation(pair, member, 0.0, 0, side="left", tol=tol)
    rep = mpd_perturbation(zero, tol)
    notes = dict(rep.notes)
    base, shift = notes["norm YX"], notes["norm YE"]
    collapse = abs(base / (1.0 + shift) - base / (1.0 - shift)) if shift < 1 else float("inf")
    report.add(
        "zero perturbation collapses the sandwich",
        collapse,
        collapse <= 1e-12 * (1.0 + base),
    )
    return report


def suite_identity_weight(seed: int, tol: ToleranceConfig) -> VerificationReport:
    """Criterion 9: with the identity weight the weighted DMP, MPD, and
    core-EP inverses reduce to their unweighted counterparts."""
    worst = {"DMP reduction": 0.0, "MPD reduction": 0.0, "core-EP reduction": 0.0}
    for i in range(50):
        rng = np.random.default_rng([seed, 501, i])
        n = int(rng.integers(3, 8))
        t = int(rng.integers(0, min(3, n - 1) + 1))
        S = random_square_with_index(n, t, rng, tol)
        pair = weighted_pair(S, np.eye(n), tol)
        Sd = drazin(S, tol).value
        Sp = pair._pinv(tol)
        worst["DMP reduction"] = max(
            worst["DMP reduction"], spectral_norm(w_dmp(pair, tol).value - Sd @ S @ Sp)
        )
        worst["MPD reduction"] = max(
            worst["MPD reduction"], spectral_norm(w_mpd(pair, tol).value - Sp @ S @ Sd)
        )
        worst["core-EP reduction"] = max(
            worst["core-EP reduction"],
            spectral_norm(w_core_ep(pair, tol).value - core_ep(S, tol).value),
        )
    report = VerificationReport("suite-9-identity-weight", tol)
    for label, gap in worst.items():
        report.add(f"{label} (50 matrices)", gap, gap <= 1e-9)
    return report


SUITE_BATTERIES = (
    ("suite-1-wdrazin-exact", lambda seed, tol: suite_w_drazin_fixture(tol)),
    ("suite-2-weak-mpd-family", lambda seed, tol: suite_weak_mpd_family(tol)),
    ("suite-3-index", lambda seed, tol: suite_index_fixture(tol)),
    ("suite-4-order-products", suite_order_products),
    ("suite-5-random-coherence", suite_random_coherence),
    ("suite-6-projector-geometry", suite_projector_geometry),
    ("suite-7-decomposition", suite_decomposition),
    ("suite-8-perturbation", suite_perturbation),
    ("suite-9-identity-weight", suite_identity_weight),
)


# ---------------------------------------------------------------------------
# commands

# the family-member kinds of `compute`, besides mp and the catalog
WEAK_KINDS = {"weak-mpd": weak_mpd, "weak-dmp": weak_dmp}


class _Parser(argparse.ArgumentParser):
    # usage failures exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _tol_from(ns) -> ToleranceConfig:
    return ToleranceConfig(
        rank_rtol=ns.rank_rtol if ns.rank_rtol is not None else DEFAULT_TOL.rank_rtol,
        residual_atol=(
            ns.residual_atol if ns.residual_atol is not None else DEFAULT_TOL.residual_atol
        ),
    )


def _add_tol_args(parser) -> None:
    parser.add_argument("--rank-rtol", type=float, default=None, help="rank cutoff scale")
    parser.add_argument(
        "--residual-atol", type=float, default=None, help="residual pass threshold"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wginv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="compute an inverse from matrix files")
    p_compute.add_argument("kind", choices=["mp"] + sorted(CATALOG) + list(WEAK_KINDS))
    p_compute.add_argument("b_file", help="matrix file for B")
    p_compute.add_argument("w_file", nargs="?", default=None, help="matrix file for the weight")
    p_compute.add_argument("--member", default=None, help="family member file (weak kinds)")
    p_compute.add_argument("--m", type=int, default=1, help="fold parameter for m-indexed kinds")
    p_compute.add_argument("--out", default=None, help="write the value here instead of stdout")
    _add_tol_args(p_compute)

    p_verify = sub.add_parser("verify", help="verify a statement by its identifier")
    p_verify.add_argument("theorem_id", choices=sorted(REGISTRY))
    p_verify.add_argument("--fixture", choices=["ex1", "ex2"], default=None)
    p_verify.add_argument("--random", action="store_true", help="use a seeded random instance")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--trials", type=int, default=1)
    p_verify.add_argument("--out", default=None)
    for flag in ("x1", "x2", "y1", "y2", "z1", "z2", "z3", "u1"):
        p_verify.add_argument(f"--{flag}", type=int, default=None, help="fixture parameter")
    p_verify.add_argument("--alpha", type=float, default=None, help="perturbation size")
    _add_tol_args(p_verify)

    p_suite = sub.add_parser("suite", help="run the acceptance battery")
    p_suite.add_argument("--seed", type=int, default=1)
    p_suite.add_argument("--out", default=None)
    _add_tol_args(p_suite)
    return parser


def _emit(text: str, out) -> None:
    """Write `text` to the file `out`, or to stdout when none is named."""
    if out:
        with open(out, "w", encoding="ascii", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_compute(ns) -> int:
    tol = _tol_from(ns)
    B = load_matrix(ns.b_file)
    if ns.kind == "mp":
        value = mp_inverse(B, tol)
    else:
        if ns.w_file is None:
            raise ValueError(f"kind {ns.kind!r} needs a weight file")
        W = load_matrix(ns.w_file)
        pair = weighted_pair(B, W, tol)
        if ns.kind in WEAK_KINDS:
            if ns.member is None:
                raise ValueError(f"{ns.kind} needs --member")
            value = WEAK_KINDS[ns.kind](pair, load_matrix(ns.member), tol).value
        else:
            value = compute_kind(pair, ns.kind, tol, m=ns.m).value
    _emit(format_matrix(value), ns.out)
    return 0


def cmd_verify(ns) -> int:
    tol = _tol_from(ns)
    if ns.trials < 1:
        raise ValueError("--trials must be at least 1")
    instances, check = REGISTRY[ns.theorem_id]
    instance = "random" if ns.random else ns.fixture or instances[0]
    if instance not in instances:
        raise ValueError(
            f"{ns.theorem_id} runs on {' or '.join(instances)}, not {instance}"
        )
    docs = []
    worst = 0
    for i in range(ns.trials):
        seed = ns.seed + i
        try:
            report = check(_Draw(ns, seed, tol, instance))
        except (HypothesisError, GenerationError) as exc:
            docs.append(
                {
                    "theorem_id": ns.theorem_id,
                    "error": str(exc),
                    "seed": seed,
                    "fixtures_used": [],
                }
            )
            worst = max(worst, 3)
            continue
        docs.append(report_to_document(report, seed, [instance]))
        if not report.overall:
            worst = max(worst, 2)
    if ns.trials == 1:
        text = json.dumps(docs[0], indent=2) + "\n"
    else:
        text = json.dumps(docs, indent=2) + "\n"
    _emit(text, ns.out)
    return worst


def cmd_suite(ns) -> int:
    tol = _tol_from(ns)
    lines = []
    passed = 0
    for name, battery in SUITE_BATTERIES:
        report = battery(ns.seed, tol)
        doc = report_to_document(report, ns.seed, [])
        lines.append(json.dumps(doc, separators=(",", ":")))
        if report.overall:
            passed += 1
    verdict = "PASS" if passed == len(SUITE_BATTERIES) else "FAIL"
    lines.append(f"SUITE {verdict} {passed}/{len(SUITE_BATTERIES)}")
    _emit("\n".join(lines) + "\n", ns.out)
    return 0 if passed == len(SUITE_BATTERIES) else 2


@cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state between calls
    return build_parser()


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
    try:
        if ns.command == "compute":
            return cmd_compute(ns)
        if ns.command == "verify":
            return cmd_verify(ns)
        return cmd_suite(ns)
    except (HypothesisError, GenerationError) as exc:
        print(f"wginv: hypothesis failure: {exc}", file=sys.stderr)
        return 3
    except CertificationError as exc:
        print(f"wginv: certification failure: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"wginv: linear algebra failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"wginv: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
