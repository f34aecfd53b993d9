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
    DimensionError,
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
    OrderLawCase,
    _populate_flags,
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
# verify runners


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


def _random_instance(rng: np.random.Generator, tol: ToleranceConfig):
    m, n, t = _sample_dims(rng)
    return random_pair(m, n, t, rng, tol)


def _left_draw(pair, rng, tol):
    return mrwwd_family(pair, tol).member(0.4 * rng.standard_normal((pair.m, pair.n)))


def _right_draw(pair, rng, tol):
    return mrwwd_right_family(pair, tol).member(
        0.4 * rng.standard_normal((pair.m, pair.n))
    )


def _ex1_left(ns, rng, default_x1=None, default_x2=None):
    x1 = _sample_int(rng, ns.x1 if ns.x1 is not None else default_x1)
    x2 = _sample_int(rng, ns.x2 if ns.x2 is not None else default_x2)
    return ex1_member(x1, x2), x1, x2


def _ex1_or_random(ns, rng, tol) -> tuple:
    """(pair, fixtures used): a seeded random pair with --random, else ex1."""
    if ns.random:
        return _random_instance(rng, tol), ["random"]
    return ex1_pair(tol), ["ex1"]


def _left_member(ns, pair, rng, tol, **defaults):
    """A left family member: drawn at random on a random pair, else the ex1
    closed form at the fixture parameters (or `defaults`)."""
    if ns.random:
        return _left_draw(pair, rng, tol)
    return _ex1_left(ns, rng, **defaults)[0]


def _ex2_params(ns, rng):
    z = tuple(_sample_int(rng, getattr(ns, f"z{i}")) for i in (1, 2, 3))
    y = tuple(_sample_int(rng, getattr(ns, f"y{i}")) for i in (1, 2))
    u = _sample_int(rng, ns.u1)
    return z, y, u


def _order_case(ns, seed, tol, with_c=False) -> tuple:
    if ns.random:
        return commuting_case(5, 4, seed, with_c=with_c, tol=tol), ["random"]
    rng = np.random.default_rng(seed)
    z, y, u = _ex2_params(ns, rng)
    return ex2_case(z=z, y=y, u=u, tol=tol), ["ex2"]


def _ex2_drazin_case(tol: ToleranceConfig) -> OrderLawCase:
    A, B, C, W = ex2_matrices()
    pa = weighted_pair(A, W, tol)
    pb = weighted_pair(B, W, tol)
    pc = weighted_pair(C, W, tol)
    ZD = w_drazin(pa, tol).value
    YD = w_drazin(pb, tol).value
    UD = w_drazin(pc, tol).value
    case = OrderLawCase(
        W=W,
        A=A,
        B=B,
        C=C,
        inverses={"Z1": ZD, "Y2": YD, "Z2": ZD, "Y3": YD, "Z3": ZD, "Y4": YD, "U1": UD},
    )
    _populate_flags(case, tol)
    return case


def _drazin_scenario(ns, seed, tol, side: str):
    pair, fixtures = _ex1_or_random(ns, np.random.default_rng(seed), tol)
    member = w_drazin(pair, tol).value
    alpha = 0.1 if ns.alpha is None else float(ns.alpha)
    scenario = admissible_perturbation(pair, member, alpha, seed, side=side, tol=tol)
    return scenario, fixtures


def _run_thm21(ns, seed, tol):
    rng = np.random.default_rng(seed)
    pair, fixtures = _ex1_or_random(ns, rng, tol)
    return check_mrwwd(pair, _left_member(ns, pair, rng, tol), tol), fixtures


def _run_thm28(ns, seed, tol):
    rng = np.random.default_rng(seed)
    if ns.random:
        pair = _random_instance(rng, tol)
        Z = _right_draw(pair, rng, tol)
        return check_mrwwd_right(pair, Z, tol), ["random"]
    A, _, _, W = ex2_matrices()
    pair = weighted_pair(A, W, tol)
    # the right family has no closed integer form here, so draw a member
    Z = _right_draw(pair, rng, tol)
    return check_mrwwd_right(pair, Z, tol), ["ex2"]


def _run_thm31(ns, seed, tol):
    rng = np.random.default_rng(seed)
    if ns.random:
        pair = _random_instance(rng, tol)
        X = _left_draw(pair, rng, tol)
        Y = weak_mpd(pair, X, tol).value
        return check_weak_mpd_system(pair, X, Y, tol), ["random"]
    pair = ex1_pair(tol)
    X, x1, _ = _ex1_left(ns, rng)
    return check_weak_mpd_system(pair, X, ex1_weak_mpd(x1), tol), ["ex1"]


def _run_lem32(ns, seed, tol):
    rng = np.random.default_rng(seed)
    if ns.random:
        pair = _random_instance(rng, tol)
        fixtures = ["random"]
        Z = _right_draw(pair, rng, tol)
    else:
        A, _, _, W = ex2_matrices()
        pair = weighted_pair(A, W, tol)
        fixtures = ["ex2"]
        Z = _right_draw(pair, rng, tol)
    Y1 = weak_dmp(pair, Z, tol).value
    return check_weak_dmp_system(pair, Z, Y1, tol), fixtures


def _run_thm33(ns, seed, tol):
    rng = np.random.default_rng(seed)
    pair, fixtures = _ex1_or_random(ns, rng, tol)
    X = _left_member(ns, pair, rng, tol, default_x1=1, default_x2=2)
    Y = weak_mpd(pair, X, tol).value
    return check_mpd_characterizations(pair, X, Y, tol), fixtures


def _run_thm34(ns, seed, tol):
    rng = np.random.default_rng(seed)
    pair, fixtures = _ex1_or_random(ns, rng, tol)
    Z = _right_draw(pair, rng, tol)
    Y1 = weak_dmp(pair, Z, tol).value
    return check_dmp_characterizations(pair, Z, Y1, tol), fixtures


def _run_thm35(ns, seed, tol):
    pair, fixtures = _ex1_or_random(ns, np.random.default_rng(seed), tol)
    return check_wdrazin_specialization(pair, tol), fixtures


def _run_lem36(ns, seed, tol):
    rng = np.random.default_rng(seed)
    pair, fixtures = _ex1_or_random(ns, rng, tol)
    return check_projectors(pair, _left_member(ns, pair, rng, tol), None, tol), fixtures


def _run_lem37(ns, seed, tol):
    rng = np.random.default_rng(seed)
    if ns.random:
        pair = _random_instance(rng, tol)
        fixtures = ["random"]
        Z = _right_draw(pair, rng, tol)
    else:
        A, _, _, W = ex2_matrices()
        pair = weighted_pair(A, W, tol)
        fixtures = ["ex2"]
        Z = _right_draw(pair, rng, tol)
    return check_projectors_right(pair, Z, None, tol), fixtures


def _run_thm38(ns, seed, tol):
    rng = np.random.default_rng(seed)
    pair, fixtures = _ex1_or_random(ns, rng, tol)
    X = _left_member(ns, pair, rng, tol)
    Z = _right_draw(pair, rng, tol)
    Y = weak_mpd(pair, X, tol).value
    Y1 = weak_dmp(pair, Z, tol).value
    report = VerificationReport("thm3.8", tol)
    report.merge(
        check_unique_projector_solution(pair, X, Y, tol, side="left"), prefix="left: "
    )
    report.merge(
        check_unique_projector_solution(pair, Z, Y1, tol, side="right"), prefix="right: "
    )
    return report, fixtures


def _run_lem310(ns, seed, tol):
    rng = np.random.default_rng(seed)
    pair, fixtures = _ex1_or_random(ns, rng, tol)
    X = _left_member(ns, pair, rng, tol)
    Z = _right_draw(pair, rng, tol)
    return check_mp_drazin_absorption(pair, X, Z, tol), fixtures


def _run_thm312(ns, seed, tol):
    rng = np.random.default_rng(seed)
    pair, fixtures = _ex1_or_random(ns, rng, tol)
    _, report = one_inverse_family(pair, rng.standard_normal((pair.n, pair.m)), tol)
    return report, fixtures


def _run_lem313(ns, seed, tol):
    rng = np.random.default_rng(seed)
    pair, fixtures = _ex1_or_random(ns, rng, tol)
    _, report = one_inverse_family_right(pair, rng.standard_normal((pair.n, pair.m)), tol)
    return report, fixtures


def _run_lem314(ns, seed, tol):
    rng = np.random.default_rng(seed)
    pair, fixtures = _ex1_or_random(ns, rng, tol)
    X = _left_member(ns, pair, rng, tol)
    Zfree = rng.standard_normal((pair.n, pair.m))
    _, report = mpd_general_solution(pair, X, Zfree, tol)
    return report, fixtures


def _run_lem315(ns, seed, tol):
    pair, fixtures = _ex1_or_random(ns, np.random.default_rng(seed), tol)
    return decomposition_report(weighted_core_ep_decompose(pair, tol), tol), fixtures


def _run_thm316(ns, seed, tol):
    rng = np.random.default_rng(seed)
    pair, fixtures = _ex1_or_random(ns, rng, tol)
    X = _left_member(ns, pair, rng, tol, default_x1=1, default_x2=2)
    return canonical_report(pair, X, tol), fixtures


def _run_thm317(ns, seed, tol):
    scenario, fixtures = _drazin_scenario(ns, seed, tol, side="left")
    return perturbed_mrwwd(scenario, tol), fixtures


def _run_thm318(ns, seed, tol):
    scenario, fixtures = _drazin_scenario(ns, seed, tol, side="right")
    return perturbed_mrwwd_right(scenario, tol), fixtures


def _run_thm319(ns, seed, tol):
    scenario, fixtures = _drazin_scenario(ns, seed, tol, side="left")
    return mpd_perturbation(scenario, tol), fixtures


def _run_thm320(ns, seed, tol):
    scenario, fixtures = _drazin_scenario(ns, seed, tol, side="right")
    return dmp_perturbation(scenario, tol), fixtures


def _run_cor_mpd(ns, seed, tol):
    scenario, fixtures = _drazin_scenario(ns, seed, tol, side="left")
    return drazin_case_perturbation(scenario, tol, theorem_id="cor-mpd"), fixtures


def _run_cor_dmp(ns, seed, tol):
    scenario, fixtures = _drazin_scenario(ns, seed, tol, side="right")
    return drazin_case_perturbation(scenario, tol, theorem_id="cor-dmp"), fixtures


def _run_thm325(ns, seed, tol):
    case, fixtures = _order_case(ns, seed, tol)
    return reverse_order_weak(case, tol), fixtures


def _run_thm326(ns, seed, tol):
    case, fixtures = _order_case(ns, seed, tol)
    return forward_order_weak(case, tol), fixtures


def _run_thm327(ns, seed, tol):
    case, fixtures = _order_case(ns, seed, tol)
    return reverse_order_minimal(case, tol), fixtures


def _run_thm328(ns, seed, tol):
    case, fixtures = _order_case(ns, seed, tol)
    return forward_order_minimal(case, tol), fixtures


def _run_thm329(ns, seed, tol):
    case, fixtures = _order_case(ns, seed, tol)
    return wdrazin_order_corollaries(case, tol), fixtures


def _run_thm330(ns, seed, tol):
    if ns.random:
        return reverse_order_weak_mpd(rol_case(6, seed, tol), tol), ["random"]
    rng = np.random.default_rng(seed)
    z, y, u = _ex2_params(ns, rng)
    case = ex2_case(z=z, y=y, u=u, tol=tol)
    return reverse_order_weak_mpd(case, tol, require_hypotheses=False), ["ex2"]


def _run_thm330_rol(ns, seed, tol):
    if ns.fixture == "ex2":
        case = _ex2_drazin_case(tol)
        return reverse_order_weak_mpd(case, tol, require_hypotheses=False), ["ex2"]
    return reverse_order_weak_mpd(rol_case(6, seed, tol), tol), ["random"]


def _run_thm331(ns, seed, tol):
    case, fixtures = _order_case(ns, seed, tol, with_c=True)
    return triple_reverse(case, tol), fixtures


def _run_thm332(ns, seed, tol):
    case, fixtures = _order_case(ns, seed, tol, with_c=True)
    return triple_forward(case, tol), fixtures


def _run_mateq_pair(ns, seed, tol):
    rng = np.random.default_rng(seed)
    if ns.random:
        case = commuting_case(5, 4, seed, tol=tol)
        member = case.inverses["Y3"] @ case.W @ case.inverses["Z2"]
        Zfree = 0.3 * rng.standard_normal(case.W.shape)
        fixtures = ["random"]
    else:
        z, y, _ = _ex2_params(ns, rng)
        case = ex2_case(z=z, y=y, tol=tol)
        member = case.inverses["Y3"] @ case.W @ case.inverses["Z2"]
        Zfree = None
        fixtures = ["ex2"]
    _, report = matrix_equation_solution(
        case.A, case.B, case.W, member, Zfree=Zfree, tol=tol
    )
    return report, fixtures


def _run_mateq_triple(ns, seed, tol):
    rng = np.random.default_rng(seed)
    if ns.random:
        case = commuting_case(5, 4, seed, with_c=True, tol=tol)
        Zfree = 0.3 * rng.standard_normal(case.W.shape)
        fixtures = ["random"]
    else:
        z, y, u = _ex2_params(ns, rng)
        case = ex2_case(z=z, y=y, u=u, tol=tol)
        Zfree = None
        fixtures = ["ex2"]
    inv = case.inverses
    member = inv["U1"] @ case.W @ inv["Y4"] @ case.W @ inv["Z3"]
    _, report = matrix_equation_solution(
        case.A, case.B, case.W, member, Zfree=Zfree, C=case.C, tol=tol
    )
    return report, fixtures


REGISTRY = {
    "thm2.1": _run_thm21,
    "thm2.8": _run_thm28,
    "thm3.1": _run_thm31,
    "lem3.2": _run_lem32,
    "thm3.3": _run_thm33,
    "thm3.4": _run_thm34,
    "thm3.5": _run_thm35,
    "lem3.6": _run_lem36,
    "lem3.7": _run_lem37,
    "thm3.8": _run_thm38,
    "lem3.10": _run_lem310,
    "thm3.12": _run_thm312,
    "lem3.13": _run_lem313,
    "lem3.14": _run_lem314,
    "lem3.15": _run_lem315,
    "thm3.16": _run_thm316,
    "thm3.17": _run_thm317,
    "thm3.18": _run_thm318,
    "thm3.19": _run_thm319,
    "thm3.20": _run_thm320,
    "cor-mpd": _run_cor_mpd,
    "cor-dmp": _run_cor_dmp,
    "thm3.25": _run_thm325,
    "thm3.26": _run_thm326,
    "thm3.27": _run_thm327,
    "thm3.28": _run_thm328,
    "thm3.29": _run_thm329,
    "thm3.30": _run_thm330,
    "thm3.30-rol": _run_thm330_rol,
    "thm3.31": _run_thm331,
    "thm3.32": _run_thm332,
    "mateq-pair": _run_mateq_pair,
    "mateq-triple": _run_mateq_triple,
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
        weak_mpd(pair, ex1_member(1, 2), tol).value - w_mpd(pair, tol).value
    )
    report.add("x1 = 1 collapses to the weighted MPD", collapse, collapse <= 1e-10)
    return report


def suite_index_fixture(tol: ToleranceConfig) -> VerificationReport:
    """Criterion 3: the fixture product has index exactly 3."""
    pair = ex1_pair(tol)
    report = VerificationReport("suite-3-index", tol)
    report.add_rank_gap("index of the fixture product", index_of(pair.bw(), tol), 3)
    return report


def suite_order_products(seed: int, tol: ToleranceConfig) -> VerificationReport:
    """Criterion 4: all four fixture order-law products agree exactly with
    their first-row closed forms across integer parameter draws."""
    rng = np.random.default_rng([seed, 4])
    worst = {"reverse": 0.0, "forward": 0.0, "triple reverse": 0.0, "triple forward": 0.0}
    for _ in range(10):
        z1, z2, z3, y1, y2, u1 = (int(v) for v in rng.integers(-2, 3, size=6))
        case = ex2_case(z=(z1, z2, z3), y=(y1, y2), u=u1, tol=tol)
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


def _coherence_instances(seed: int, count: int = 100):
    for i in range(count):
        rng = np.random.default_rng([seed, 101, i])
        m, n, t = _sample_dims(rng)
        pair = random_pair(m, n, t, rng)
        X = _left_draw(pair, rng, DEFAULT_TOL)
        Z = _right_draw(pair, rng, DEFAULT_TOL)
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
    for rng, pair, X, Z in _coherence_instances(seed):
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
    for _, pair, X, Z in _coherence_instances(seed):
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
        pair = random_pair(m, n, t, rng)
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
            worst_mp, spectral_norm(mp_via_blocks(dec, tol) - mp_inverse(pair.B, tol))
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
        pair = random_pair(m, n, t, rng)
        member = w_drazin(pair, tol).value
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
    member = w_drazin(pair, tol).value
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
        Sp = mp_inverse(S, tol)
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
    p_compute.add_argument("kind", choices=["mp"] + sorted(CATALOG) + ["weak-mpd", "weak-dmp"])
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
    p_verify.add_argument("--m", type=int, default=1, help="fold parameter")
    p_verify.add_argument("--alpha", type=float, default=None, help="perturbation size")
    _add_tol_args(p_verify)

    p_suite = sub.add_parser("suite", help="run the acceptance battery")
    p_suite.add_argument("--seed", type=int, default=1)
    p_suite.add_argument("--out", default=None)
    _add_tol_args(p_suite)
    return parser


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
        if ns.kind == "weak-mpd":
            if ns.member is None:
                raise ValueError("weak-mpd needs --member")
            value = weak_mpd(pair, load_matrix(ns.member), tol).value
        elif ns.kind == "weak-dmp":
            if ns.member is None:
                raise ValueError("weak-dmp needs --member")
            value = weak_dmp(pair, load_matrix(ns.member), tol).value
        else:
            value = compute_kind(pair, ns.kind, tol, m=ns.m).value
    text = format_matrix(value)
    if ns.out:
        with open(ns.out, "w", encoding="ascii", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(ns) -> int:
    tol = _tol_from(ns)
    if ns.trials < 1:
        raise ValueError("--trials must be at least 1")
    runner = REGISTRY[ns.theorem_id]
    docs = []
    worst = 0
    for i in range(ns.trials):
        seed = ns.seed + i
        try:
            report, fixtures = runner(ns, seed, tol)
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
        docs.append(report_to_document(report, seed, fixtures))
        if not report.overall:
            worst = max(worst, 2)
    if ns.trials == 1:
        text = json.dumps(docs[0], indent=2) + "\n"
    else:
        text = json.dumps(docs, indent=2) + "\n"
    if ns.out:
        with open(ns.out, "w", encoding="ascii", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
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
    text = "\n".join(lines) + "\n"
    if ns.out:
        with open(ns.out, "w", encoding="ascii", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0 if passed == len(SUITE_BATTERIES) else 2


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
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
