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
from functools import cache, cached_property, reduce

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
    _rank_gap,
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
    """The matrix of a 'rows cols' header and its entries, row by row:
    complex128 when an entry has a nonzero imaginary part, else float64."""
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
    A = np.array(values, dtype=complex).reshape(rows, cols)
    return A if A.imag.any() else A.real.copy()


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


class _Draw:
    """One trial of a `verify` check or of a suite stream: the instance ("ex1",
    "ex2" or "random") and everything drawn on it. Each input is built when the
    check first asks for it, from one `default_rng(seed)`, so the draws follow
    the order in which the check reads them."""

    def __init__(self, ns, seed, tol: ToleranceConfig, instance: str):
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

    def _member(self, family):
        """A member of the pair's `family` at a drawn free parameter."""
        pair = self.pair
        return family(pair).member(0.4 * self.rng.standard_normal((pair.m, pair.n)))

    def left(self, x1=None, x2=None):
        """A left family member: drawn on a random pair, else the ex1 closed
        form at --x1/--x2, or at `x1`/`x2`, or at drawn integers."""
        if self.instance == "random":
            return self._member(mrwwd_family)
        ns = self.ns
        self.x1 = _sample_int(self.rng, ns.x1 if ns.x1 is not None else x1)
        x2 = _sample_int(self.rng, ns.x2 if ns.x2 is not None else x2)
        return ex1_member(self.x1, x2)

    @cached_property
    def X(self):  # the trial's left member: `left` at its defaults, drawn once
        return self.left()

    @cached_property
    def Z(self):
        # the right family has no closed integer form on a fixture, so draw one
        return self._member(mrwwd_right_family)

    @cached_property
    def free(self):
        return self.rng.standard_normal((self.pair.n, self.pair.m))

    def scenario(self, side: str):
        """An admissible perturbation of the pair's weighted Drazin member."""
        member = _value(self.pair, w_drazin)
        alpha = 0.1 if self.ns.alpha is None else float(self.ns.alpha)
        return admissible_perturbation(self.pair, member, alpha, self.seed, side=side)

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
    X = d.X
    if d.instance == "ex1":
        Y = ex1_weak_mpd(d.x1)
    else:
        Y = weak_mpd(d.pair, X).value
    return check_weak_mpd_system(d.pair, X, Y)


def _mpd_characterizations(d: _Draw) -> VerificationReport:
    X = d.left(1, 2)
    return check_mpd_characterizations(d.pair, X, weak_mpd(d.pair, X).value)


def _unique_projector_solutions(d: _Draw) -> VerificationReport:
    X, Z = d.X, d.Z
    report = VerificationReport("thm3.8", d.tol)
    report.merge(
        check_unique_projector_solution(d.pair, X, weak_mpd(d.pair, X).value, side="left"),
        prefix="left: ",
    )
    report.merge(
        check_unique_projector_solution(d.pair, Z, weak_dmp(d.pair, Z).value, side="right"),
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
    "thm2.1": (_EX1, lambda d: check_mrwwd(d.pair, d.X)),
    "thm2.8": (_EX2, lambda d: check_mrwwd_right(d.pair, d.Z)),
    "thm3.1": (_EX1, _weak_mpd_system),
    "lem3.2": (_EX2, lambda d: check_weak_dmp_system(d.pair, d.Z, weak_dmp(d.pair, d.Z).value)),
    "thm3.3": (_EX1, _mpd_characterizations),
    "thm3.4": (
        _EX1,
        lambda d: check_dmp_characterizations(d.pair, d.Z, weak_dmp(d.pair, d.Z).value),
    ),
    "thm3.5": (_EX1, lambda d: check_wdrazin_specialization(d.pair)),
    "lem3.6": (_EX1, lambda d: check_projectors(d.pair, d.X)),
    "lem3.7": (_EX2, lambda d: check_projectors_right(d.pair, d.Z)),
    "thm3.8": (_EX1, _unique_projector_solutions),
    "lem3.10": (_EX1, lambda d: check_mp_drazin_absorption(d.pair, d.X, d.Z)),
    "thm3.12": (_EX1, lambda d: one_inverse_family(d.pair, d.free)[1]),
    "lem3.13": (_EX1, lambda d: one_inverse_family_right(d.pair, d.free)[1]),
    "lem3.14": (_EX1, lambda d: mpd_general_solution(d.pair, d.X, d.free)[1]),
    "lem3.15": (_EX1, lambda d: decomposition_report(weighted_core_ep_decompose(d.pair))),
    "thm3.16": (_EX1, lambda d: canonical_report(d.pair, d.left(1, 2))),
    "thm3.17": (_EX1, lambda d: perturbed_mrwwd(d.scenario("left"))),
    "thm3.18": (_EX1, lambda d: perturbed_mrwwd_right(d.scenario("right"))),
    "thm3.19": (_EX1, lambda d: mpd_perturbation(d.scenario("left"))),
    "thm3.20": (_EX1, lambda d: dmp_perturbation(d.scenario("right"))),
    "cor-mpd": (_EX1, lambda d: drazin_case_perturbation(d.scenario("left"))),
    "cor-dmp": (_EX1, lambda d: drazin_case_perturbation(d.scenario("right"))),
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


def _instances(stream, seed: int, tol: ToleranceConfig):
    """The instances of a suite stream: "ex1" is the fixture, "ex2" the ten
    integer draws (z1, z2, z3, y1, y2, u1) of the order-law fixture, and
    (tag, count) `count` random `verify` trials on default_rng([seed, tag, i])."""
    if stream == "ex1":
        return [_Draw(None, 0, tol, "ex1")]
    if stream == "ex2":
        rng = np.random.default_rng([seed, 4])
        return [tuple(int(v) for v in rng.integers(-2, 3, size=6)) for _ in range(10)]
    tag, count = stream
    return (_Draw(None, [seed, tag, i], tol, "random") for i in range(count))


def _w_drazin_gap(d: _Draw) -> tuple:
    return (float(np.max(np.abs(w_drazin(d.pair).value - ex1_member(1, 2)))),)


def _weak_mpd_family(d: _Draw) -> tuple:
    pair = d.pair
    closed = system = 0.0
    for x1 in (-1, 0, 1):
        X = ex1_member(x1, 2)
        Y = weak_mpd(pair, X).value
        closed = max(closed, spectral_norm(Y - ex1_weak_mpd(x1)))
        system = max(system, check_weak_mpd_system(pair, X, Y).worst_residual())
    # Y is the inverse at x1 = 1 now, which must be the weighted MPD inverse
    return closed, system, spectral_norm(Y - _value(pair, w_mpd))


def _order_products(draw: tuple) -> tuple:
    z1, z2, z3, y1, y2, u1 = draw
    case = ex2_case(z=(z1, z2, z3), y=(y1, y2), u=u1)
    W, inv = case.W, case.inverses
    products = (
        (inv["Y3"] @ W @ inv["Z2"], (1, z1, z2, z3)),
        (inv["Z2"] @ W @ inv["Y3"], (1, y1, 0, y2)),
        (inv["U1"] @ W @ inv["Y4"] @ W @ inv["Z3"], (1, z1, z2, z3)),
        (inv["Z3"] @ W @ inv["Y4"] @ W @ inv["U1"], (1, u1, 0, 0)),
    )
    return tuple(float(np.max(np.abs(got - ex2_member(row)))) for got, row in products)


def _bump(rng: np.random.Generator, A: np.ndarray) -> np.ndarray:
    G = rng.standard_normal(A.shape)
    return A + 0.05 * max(1.0, spectral_norm(A)) * G / spectral_norm(G)


def _coherence(d: _Draw) -> tuple:
    # bumps are drawn after X and Z, in the order X, Z, Y, Y1
    pair, X, Z, rng = d.pair, d.X, d.Z, d.rng
    members = ((check_mrwwd, X), (check_mrwwd_right, Z))
    verdicts = [check(pair, A).overall for check, A in members]
    for check, A in members:  # a non-member passes no condition
        verdicts.append(not any(ok for _, _, ok in check(pair, _bump(rng, A)).conditions))
    Y = weak_mpd(pair, X).value
    verdicts.append(check_mpd_characterizations(pair, X, Y).overall)
    Y1 = weak_dmp(pair, Z).value
    verdicts.append(check_dmp_characterizations(pair, Z, Y1).overall)
    verdicts.append(not check_mpd_characterizations(pair, X, _bump(rng, Y)).overall)
    verdicts.append(not check_dmp_characterizations(pair, Z, _bump(rng, Y1)).overall)
    return tuple(verdicts)


def _projector_lemmas(d: _Draw) -> tuple:
    left, right = (REGISTRY[theorem_id][1](d) for theorem_id in ("lem3.6", "lem3.7"))
    return left.overall, right.overall, left.worst_residual(), right.worst_residual()


def _decomposition(d: _Draw) -> tuple:
    pair, X = d.pair, d.X
    dec = weighted_core_ep_decompose(pair)
    reassembly = max(
        spectral_norm(dec.assemble_b() - pair.B), spectral_norm(dec.assemble_w() - pair.W)
    )
    canonical = weak_mpd_canonical(pair, X, dec=dec).value
    return (
        reassembly,
        spectral_norm(canonical - weak_mpd(pair, X).value),
        spectral_norm(mp_via_blocks(dec) - pair._pinv()),
    )


def _perturbation(d: _Draw) -> tuple:
    pair, rng = d.pair, d.rng
    member = _value(pair, w_drazin)
    left = admissible_perturbation(pair, member, 0.3, rng, side="left")
    right = admissible_perturbation(pair, member, 0.3, rng, side="right")
    family = perturbed_mrwwd(left).overall
    mpd, dmp = mpd_perturbation(left), dmp_perturbation(right)
    sandwich = all(ok for label, _, ok in mpd.conditions + dmp.conditions if "sandwich" in label)
    return family, mpd.overall, dmp.overall, sandwich


def _zero_perturbation(d: _Draw) -> tuple:
    member = _value(d.pair, w_drazin)
    zero = admissible_perturbation(d.pair, member, 0.0, 0, side="left")
    notes = dict(mpd_perturbation(zero).notes)
    base, shift = notes["norm YX"], notes["norm YE"]
    collapse = abs(base / (1.0 + shift) - base / (1.0 - shift)) if shift < 1 else float("inf")
    return ((collapse, collapse <= 1e-12 * (1.0 + base)),)


def _identity_weight(d: _Draw) -> tuple:
    rng, tol = d.rng, d.tol
    n = int(rng.integers(3, 8))
    t = int(rng.integers(0, min(3, n - 1) + 1))
    S = random_square_with_index(n, t, rng, tol)
    pair = weighted_pair(S, np.eye(n), tol)
    Sd, Sp = drazin(S, tol).value, pair._pinv()
    return (
        spectral_norm(w_dmp(pair).value - Sd @ S @ Sp),
        spectral_norm(w_mpd(pair).value - Sp @ S @ Sd),
        spectral_norm(w_core_ep(pair).value - core_ep(S, tol).value),
    )


# A battery is a row: its name and its parts, each (stream, measure) with its
# conditions. The measure maps one instance of the stream to one value per
# condition, and a condition is a label and the rule that makes the values
# over the stream its row: FAILS counts the false ones and passes at 0, a
# float takes the worst and passes at or below it, NOTE keeps the worst as a
# note, and AS_IS takes the one instance's (residual, pass). Parts that name
# one stream share one pass over it (see `suite_reports`), as batteries 5 and
# 6 share the 100 trials of (101, 100).
FAILS, NOTE, AS_IS = "fails", "note", "as is"
SUITE_BATTERIES = {
    "suite-1-wdrazin-exact": {
        ("ex1", _w_drazin_gap): {"entrywise agreement with closed form": 1e-12},
    },
    "suite-2-weak-mpd-family": {
        ("ex1", _weak_mpd_family): {
            "closed form across x1 in {-1,0,1}": 1e-10,
            "system residuals": 1e-10,
            "x1 = 1 collapses to the weighted MPD": 1e-10,
        },
    },
    "suite-3-index": {
        ("ex1", lambda d: [_rank_gap(index_of(d.pair.bw_power(1), d.tol), 3)]): {
            "index of the fixture product": AS_IS,
        },
    },
    "suite-4-order-products": {
        ("ex2", _order_products): {
            "reverse product exact": 0.0,
            "forward product exact": 0.0,
            "triple reverse product exact": 0.0,
            "triple forward product exact": 0.0,
        },
    },
    "suite-5-random-coherence": {
        ((101, 100), _coherence): {
            "left members uniformly accepted (100 instances)": FAILS,
            "right members uniformly accepted (100 instances)": FAILS,
            "left non-members uniformly rejected (100 instances)": FAILS,
            "right non-members uniformly rejected (100 instances)": FAILS,
            "MPD characterizations accepted (100 instances)": FAILS,
            "DMP characterizations accepted (100 instances)": FAILS,
            "perturbed MPD rejected (100 instances)": FAILS,
            "perturbed DMP rejected (100 instances)": FAILS,
        },
    },
    "suite-6-projector-geometry": {
        ((101, 100), _projector_lemmas): {
            "weak MPD projector lemma (100 instances)": FAILS,
            "weak DMP projector lemma (100 instances)": FAILS,
            "worst weak MPD residual": NOTE,
            "worst weak DMP residual": NOTE,
        },
    },
    "suite-7-decomposition": {
        ((301, 100), _decomposition): {
            "reassembly (100 instances)": 1e-10,
            "canonical vs direct weak MPD": 1e-8,
            "block Moore-Penrose vs SVD": 1e-8,
        },
    },
    "suite-8-perturbation": {
        ((401, 50), _perturbation): {
            "family stability (50 scenarios)": FAILS,
            "MPD chain (50 scenarios)": FAILS,
            "DMP chain (50 scenarios)": FAILS,
            "sandwich brackets (50 scenarios)": FAILS,
        },
        ("ex1", _zero_perturbation): {"zero perturbation collapses the sandwich": AS_IS},
    },
    "suite-9-identity-weight": {
        ((501, 50), _identity_weight): {
            "DMP reduction (50 matrices)": 1e-9,
            "MPD reduction (50 matrices)": 1e-9,
            "core-EP reduction (50 matrices)": 1e-9,
        },
    },
}


def suite_reports(seed: int, tol: ToleranceConfig) -> dict:
    """{name: report} of every battery. Each stream is drawn once, in the
    order the table first names it, and every part on it measures each
    instance in table order: battery 6 reads the pair, X and Z that battery 5
    drew, whose bumps come after them from the instance's generator."""
    parts = [(name, part) for name, battery in SUITE_BATTERIES.items() for part in battery]
    values = {part: [] for part in parts}
    for stream in dict.fromkeys(part[0] for _, part in parts):
        for instance in _instances(stream, seed, tol):
            for name, (on, measure) in parts:
                if on == stream:
                    values[name, (on, measure)].append(measure(instance))
    reports = {name: VerificationReport(name, tol) for name in SUITE_BATTERIES}
    for (name, part), column in values.items():
        report = reports[name]
        for (label, rule), row in zip(SUITE_BATTERIES[name][part].items(), zip(*column)):
            if rule == AS_IS:
                report.add(label, *row[0])
            elif rule == FAILS:
                report.add(label, float(row.count(False)), all(row))
            elif rule == NOTE:
                report.note(label, reduce(max, row, 0.0))
            else:  # the worst value, folded from 0.0 as each battery took it
                worst = reduce(max, row, 0.0)
                report.add(label, worst, worst <= rule)
    return reports


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
    return ToleranceConfig(rank_rtol=ns.rank_rtol, residual_atol=ns.residual_atol)


def _add_tol_args(parser) -> None:
    parser.add_argument("--rank-rtol", type=float, help="rank cutoff scale")
    parser.add_argument("--residual-atol", type=float, help="residual pass threshold")
    parser.set_defaults(**vars(DEFAULT_TOL))


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
            value = WEAK_KINDS[ns.kind](pair, load_matrix(ns.member)).value
        else:
            value = compute_kind(pair, ns.kind, m=ns.m).value
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
    reports = suite_reports(ns.seed, _tol_from(ns)).values()
    docs = (report_to_document(report, ns.seed, []) for report in reports)
    lines = [json.dumps(doc, separators=(",", ":")) for doc in docs]
    passed = sum(report.overall for report in reports)
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
