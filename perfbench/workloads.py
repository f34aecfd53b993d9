"""The four workloads: seeded inputs, the operations run on them and the
checks that judge each outcome apart from the program.

An operation's ``run(api)`` calls wginv through the package object ``api``,
looking each function up at call time so that traced wrappers are seen. Its
``check(outcome)`` returns None when the outcome is right and a reason
otherwise. An operation that fails because of a known program fault carries
that fault's name in ``fault``.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import construct as cx

DENSE_TOL = 1e-8  # relative Frobenius error allowed on well-conditioned inputs
EDGE_TOL = 1e-7  # relative error allowed on the edge inputs (condition up to ~1e6)

STATEMENT_IDS = (
    "thm2.1", "thm2.8", "thm3.1", "lem3.2", "thm3.3", "thm3.4", "thm3.5",
    "lem3.6", "lem3.7", "thm3.8", "lem3.10", "thm3.12", "lem3.13", "lem3.14",
    "lem3.15", "thm3.16", "thm3.17", "thm3.18", "thm3.19", "thm3.20",
    "cor-mpd", "cor-dmp", "thm3.25", "thm3.26", "thm3.27", "thm3.28",
    "thm3.29", "thm3.30", "thm3.30-rol", "thm3.31", "thm3.32", "mateq-pair",
    "mateq-triple",
)  # fmt: skip
STATEMENT_SEEDS = (7, 8, 9)

DENSE_SHAPE = (80, 72)
DENSE_INDEX = 2
DENSE_PAIRS = 2
DENSE_M = 2
DENSE_DRAWS = 3  # family members per side and pair; puts op_p90_ms inside the family ops' cost
FOLD_KINDS = {"w_m_wgi", "w_m_weak_core", "w_m_wgmp"}

REJECT_SHAPES = (  # (rows, columns, index)
    (4, 3, 1), (5, 4, 1), (6, 5, 2), (6, 6, 1), (7, 6, 2), (8, 6, 3), (8, 7, 2), (8, 8, 3),
)  # fmt: skip
REJECT_SHIFT = 1e-2  # relative size of the perturbation that makes an input wrong

EDGE_N = 6
EDGE_FAULT_SEED = 12  # fixed construction of the cases that fail today
INDEX_FAULT = "index"  # power-rank index detection (matcore.index_of, sqinv.drazin)
NILPOTENT_FAULT = "nilpotent-core-ep"  # sqinv.core_ep projects onto roundoff in S^n
# The index is decided on S, on S^* and on the block-triangular core U^* S U,
# which share it. Three decisions per matrix also put the edge median in the
# middle of the drazin operations, not on the step between two classes of cost.
EDGE_INDEX_OPS = ("index_of", "index_of(S*)", "index_of(core)")
EDGE_VALUE_OPS = ("drazin", "core_ep", "w_drazin", "w_mpd")


class Raised:
    """Outcome of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self) -> str:
        return f"raised {type(self.exc).__name__}: {self.exc}"


@dataclass
class Op:
    label: str
    run: Callable
    check: Callable
    index: int | None = None  # constructed index of every matrix whose index the op decides
    fault: str | None = None  # known program fault that makes this op fail today


def rel_error(X, ref) -> float:
    """||X - ref||_F / ||ref||_F, or the absolute error when ref is zero."""
    X = np.asarray(X)
    if X.shape != ref.shape:
        return float("inf")
    scale = np.linalg.norm(ref)
    return float(np.linalg.norm(X - ref) / (scale if scale > 0 else 1.0))


def _close(what: str, X, ref, tol: float):
    err = rel_error(X, ref)
    return None if err <= tol else f"{what}: relative error {err:.3e} > {tol:.0e}"


def _first(*reasons):
    return next((r for r in reasons if r is not None), None)


def _raised_reason(outcome):
    return repr(outcome) if isinstance(outcome, Raised) else None


# ---------------------------------------------------------------------------
# statements: every verify id through the CLI, on its fixture and at fixed seeds


def _cli_op(argv: list, want_code: int) -> Op:
    first_stdout = {}

    def run(api):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = api.cli.main(argv)
        return code, out.getvalue()

    def check(outcome):
        if isinstance(outcome, Raised):
            return repr(outcome)
        code, text = outcome
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        try:
            doc = json.loads(text)
        except ValueError:
            return "stdout is not one JSON report"
        if not isinstance(doc, dict) or doc.get("overall") != (want_code == 0):
            return f"report overall is not {want_code == 0} with exit code {code}"
        if first_stdout.setdefault("text", text) != text:
            return "stdout differs from the first run of the same command"
        return None

    return Op(" ".join(argv[1:]), run, check)


def statements(rng, api) -> list:
    """Each id once on its fixture and once per fixed seed with --random.

    The fixture instance of thm3.30 violates two hypotheses of the law and
    must exit 2; every other report must pass."""
    ops = []
    for tid in STATEMENT_IDS:
        if tid == "thm3.30":
            ops.append(_cli_op(["verify", tid, "--fixture", "ex2"], 2))
        else:
            ops.append(_cli_op(["verify", tid], 0))
        for seed in STATEMENT_SEEDS:
            ops.append(_cli_op(["verify", tid, "--random", "--seed", str(seed)], 0))
    return ops


# ---------------------------------------------------------------------------
# dense: the weighted catalog on pre-built 80 x 72 complex pairs


def catalog_references(t: cx.PairTruth, m: int) -> dict:
    """Every catalog kind by its defining formula, from the constructed blocks."""
    B, W, Bp = t.B, t.W, t.B_pinv
    mpow = np.linalg.matrix_power
    wd = t.bw_drazin @ t.bw_drazin @ B
    wcep = B @ t.wb_core_ep @ t.wb_core_ep
    wgi = mpow(wcep @ W, m + 1) @ mpow(B @ W, m - 1) @ B
    return {
        "w_drazin": wd,
        "w_core_ep": wcep,
        "w_m_wgi": wgi,
        "w_m_weak_core": wgi @ cx.range_projector(mpow(W @ B, m)),
        "w_mpcep": Bp @ B @ W @ wcep @ W,
        "w_cepmp": W @ wcep @ W @ B @ Bp,
        "w_m_wgmp": W @ wgi @ W @ B @ Bp,
        "w_dmp": W @ wd @ W @ B @ Bp,
        "w_mpd": Bp @ B @ W @ wd @ W,
    }


def _catalog_op(label, kind, pair, args, ref, index, tol) -> Op:
    def run(api):
        return getattr(api, kind)(pair, *args)

    def check(outcome):
        if isinstance(outcome, Raised):
            return repr(outcome)
        if outcome.index_used != index:
            return f"index_used {outcome.index_used}, constructed {index}"
        return _close(kind, outcome.value, ref, tol)

    return Op(label, run, check, index=index)


class FamilyReference:
    """Independent membership tests for both solution families of a pair."""

    def __init__(self, t: cx.PairTruth):
        B, W, k = t.B, t.W, t.index
        mpow = np.linalg.matrix_power
        self.t = t
        self.K = mpow(B @ W, k)  # (BW)^k
        self.Nk = mpow(W @ B, k)  # (WB)^k
        self.M = W @ mpow(B @ W, k + 1)  # W (BW)^(k+1)
        Mq = t.M[:, : t.q]
        self.range_K = Mq @ Mq.conj().T  # R((BW)^k) is spanned by the first q columns of M
        self.rows_Nk = cx.pinv(self.Nk) @ self.Nk

    def left_member(self, X, tol):
        """X W (BW)^(k+1) = (BW)^k with R(X) inside R((BW)^k)."""
        return _first(
            _close("left power equation", X @ self.M, self.K, tol),
            _close("left member range", self.range_K @ X, X, tol),
        )

    def right_member(self, Z, tol):
        """W (BW)^(k+1) Z = (WB)^k with N((WB)^k) inside N(Z)."""
        return _first(
            _close("right power equation", self.M @ Z, self.Nk, tol),
            _close("right member null space", Z @ self.rows_Nk, Z, tol),
        )

    def weak_mpd(self, X):
        t = self.t
        return t.B_pinv @ t.B @ t.W @ X @ t.W

    def weak_dmp(self, Z):
        t = self.t
        return t.W @ Z @ t.W @ t.B @ t.B_pinv


def _family_op(label, side, pair, P, ref: FamilyReference, index, tol) -> Op:
    family, inverse = (
        ("mrwwd_family", "weak_mpd") if side == "left" else ("mrwwd_right_family", "weak_dmp")
    )

    def run(api):
        member = getattr(api, family)(pair).member(P)
        return member, getattr(api, inverse)(pair, member).value

    def check(outcome):
        if isinstance(outcome, Raised):
            return repr(outcome)
        member, value = outcome
        if side == "left":
            return _first(
                ref.left_member(member, tol), _close(inverse, value, ref.weak_mpd(member), tol)
            )
        return _first(
            ref.right_member(member, tol), _close(inverse, value, ref.weak_dmp(member), tol)
        )

    return Op(label, run, check, index=index)


def dense(rng, api) -> list:
    ops = []
    m, n = DENSE_SHAPE
    for p in range(DENSE_PAIRS):
        t = cx.weighted_case(rng, m, n, DENSE_INDEX)
        pair = api.weighted_pair(t.B, t.W)
        for kind, ref in catalog_references(t, DENSE_M).items():
            args = (DENSE_M,) if kind in FOLD_KINDS else ()
            ops.append(_catalog_op(f"{kind}#{p}", kind, pair, args, ref, t.index, DENSE_TOL))
        fam = FamilyReference(t)
        for side in ("left", "right"):
            for d in range(DENSE_DRAWS):
                P = 0.4 * cx.gaussian(rng, (m, n), True)
                label = f"{side} family#{p}.{d}"
                ops.append(_family_op(label, side, pair, P, fam, t.index, DENSE_TOL))
    return ops


# ---------------------------------------------------------------------------
# reject: the checkers fed inputs they must refuse


def _nudge(rng, A, complex_entries):
    """A moved by REJECT_SHIFT * ||A||_F in a random direction."""
    E = cx.gaussian(rng, A.shape, complex_entries)
    return A + REJECT_SHIFT * np.linalg.norm(A) * E / np.linalg.norm(E)


def _all_refused(outcome):
    if isinstance(outcome, Raised):
        return repr(outcome)
    passing = [label for label, _, ok in outcome.conditions if ok]
    return f"conditions passed on a wrong input: {passing}" if passing else None


def _raises_hypothesis(outcome):
    if isinstance(outcome, Raised) and type(outcome.exc).__name__ == "HypothesisError":
        return None
    got = outcome if isinstance(outcome, Raised) else type(outcome).__name__
    return f"expected HypothesisError, got {got}"


def reject_inputs(rng, m, n, index, complex_entries):
    """A pair with genuine left/right members X, Z, their weak inverses Y, Y1,
    and a wrong version of each."""
    t = cx.weighted_case(rng, m, n, index, complex_entries=complex_entries)
    fam = FamilyReference(t)
    Mp = cx.pinv(fam.M)
    Xd = t.bw_drazin @ t.bw_drazin @ t.B  # the weighted Drazin inverse is in both families
    X = Xd + fam.K @ cx.gaussian(rng, (m, n), complex_entries) @ (np.eye(n) - fam.M @ Mp)
    Z = Xd + (np.eye(m) - Mp @ fam.M) @ cx.gaussian(rng, (m, n), complex_entries) @ fam.Nk
    if fam.left_member(X, DENSE_TOL) or fam.right_member(Z, DENSE_TOL):
        raise AssertionError("reject construction did not produce family members")
    Y, Y1 = fam.weak_mpd(X), fam.weak_dmp(Z)
    good = {"X": X, "Z": Z, "Y": Y, "Y1": Y1}
    return t, good, {name: _nudge(rng, A, complex_entries) for name, A in good.items()}


def reject_ops(pair, good, wrong, index, tag) -> list:
    """The six refusals on one pair; `good` and `wrong` map X, Z, Y, Y1 to
    the genuine and the perturbed inputs."""

    def call(name, *args):
        return lambda api: getattr(api, name)(pair, *args)

    return [
        Op(f"check_mrwwd(X')#{tag}", call("check_mrwwd", wrong["X"]), _all_refused, index),
        Op(
            f"check_mrwwd_right(Z')#{tag}",
            call("check_mrwwd_right", wrong["Z"]),
            _all_refused,
            index,
        ),
        Op(
            f"check_mpd_characterizations(Y')#{tag}",
            call("check_mpd_characterizations", good["X"], wrong["Y"]),
            _all_refused,
            index,
        ),
        Op(
            f"check_dmp_characterizations(Y1')#{tag}",
            call("check_dmp_characterizations", good["Z"], wrong["Y1"]),
            _all_refused,
            index,
        ),
        Op(f"weak_mpd(X')#{tag}", call("weak_mpd", wrong["X"]), _raises_hypothesis, index),
        Op(f"weak_dmp(Z')#{tag}", call("weak_dmp", wrong["Z"]), _raises_hypothesis, index),
    ]


def reject(rng, api) -> list:
    ops = []
    for i, (m, n, index) in enumerate(REJECT_SHAPES):
        t, good, wrong = reject_inputs(rng, m, n, index, complex_entries=i % 2 == 1)
        ops += reject_ops(api.weighted_pair(t.B, t.W), good, wrong, index, f"{m}x{n}")
    return ops


# ---------------------------------------------------------------------------
# edge: rank and index decisions near the cutoff, against constructed truths


def graded_case(rng, eig: float, coupling: float = 0.0, complex_entries=False) -> cx.SquareTruth:
    """S = U [[D, C], [0, J2]] U^* of order EDGE_N: D normal with eigenvalues
    (eig, 0.8, 1.1, 1.4), C a coupling block of spectral norm `coupling`."""
    n, t = EDGE_N, 2
    q = n - t
    U = cx.unitary(rng, n, complex_entries)
    V = cx.unitary(rng, q, complex_entries)
    core = np.zeros((n, n), dtype=complex)
    core[:q, :q] = (V * np.array([eig, 0.8, 1.1, 1.4])) @ V.conj().T
    if coupling:
        C = cx.gaussian(rng, (q, t), complex_entries)
        core[:q, q:] = coupling * C / np.linalg.norm(C, 2)
    core[q:, q:] = cx.shift(t)
    return cx.square_case(U, core, q)


def shift_case(rng, lead: int, complex_entries=False) -> cx.SquareTruth:
    """Index EDGE_N - lead: a 0.9 * I block of order `lead` (0 or 1) coupled
    to one shift block filling the rest."""
    n = EDGE_N
    core = np.zeros((n, n), dtype=complex)
    core[:lead, :lead] = 0.9 * np.eye(lead)
    core[:lead, lead:] = 0.5 * cx.gaussian(rng, (lead, n - lead), complex_entries)
    core[lead:, lead:] = cx.shift(n - lead)
    return cx.square_case(cx.unitary(rng, n, complex_entries), core, lead)


def edge_cases(rng) -> list:
    """(name, truth, {op: fault}) in a fixed order. Cases that fail today are
    built from EDGE_FAULT_SEED so that they do not depend on the run's seed."""

    def fixed():
        return np.random.default_rng(EDGE_FAULT_SEED)

    value_ops = dict.fromkeys(EDGE_VALUE_OPS, INDEX_FAULT)
    every_op = dict.fromkeys(EDGE_INDEX_OPS, INDEX_FAULT) | value_ops
    return [
        ("eig=1e-1", graded_case(rng, 1e-1), {}),
        ("eig=1e-2", graded_case(fixed(), 1e-2), value_ops),
        ("eig=1e-3", graded_case(fixed(), 1e-3), every_op),
        ("eig=1e-4", graded_case(fixed(), 1e-4), every_op),
        ("eig=1e-5", graded_case(fixed(), 1e-5), value_ops),
        ("eig=1e-6", graded_case(fixed(), 1e-6), value_ops),
        ("coupling=1e0", graded_case(rng, 0.6, coupling=1.0), {}),
        ("coupling=1e1", graded_case(rng, 0.6, coupling=1e1), {}),
        ("coupling=1e2", graded_case(rng, 0.6, coupling=1e2), {}),
        ("coupling=1e3", graded_case(fixed(), 0.6, coupling=1e3), every_op),
        ("complex", graded_case(rng, 0.6, coupling=0.5, complex_entries=True), {}),
        ("complex,eig=1e-1", graded_case(rng, 1e-1, complex_entries=True), {}),
        ("index=n-1", shift_case(rng, 1), {}),
        ("complex,index=n-1", shift_case(rng, 1, complex_entries=True), {}),
        ("index=n", shift_case(fixed(), 0), {"core_ep": NILPOTENT_FAULT}),
    ]


def _edge_ops(name, c: cx.SquareTruth, faults: dict) -> list:
    S = c.S
    eye = np.eye(S.shape[0])
    mpd_ref = c.pinv @ S @ c.drazin  # B^+ B W B^(D,W) W with B = S, W = I

    def index_check(outcome):
        return _raised_reason(outcome) or (
            None if outcome == c.index else f"index {outcome}, constructed {c.index}"
        )

    def value_check(ref):
        return lambda outcome: _raised_reason(outcome) or _close("value", outcome, ref, EDGE_TOL)

    Sh = S.conj().T
    runs = {
        "index_of": (lambda api: api.index_of(S), index_check),
        "index_of(S*)": (lambda api: api.index_of(Sh), index_check),
        "index_of(core)": (lambda api: api.index_of(c.core), index_check),
        "drazin": (lambda api: api.drazin(S).value, value_check(c.drazin)),
        "core_ep": (lambda api: api.core_ep(S).value, value_check(c.core_ep)),
        "w_drazin": (
            lambda api: api.w_drazin(api.weighted_pair(S, eye)).value,
            value_check(c.drazin),
        ),
        "w_mpd": (lambda api: api.w_mpd(api.weighted_pair(S, eye)).value, value_check(mpd_ref)),
    }
    return [
        Op(f"{op}[{name}]", run, check, index=c.index, fault=faults.get(op))
        for op, (run, check) in runs.items()
    ]


def edge(rng, api) -> list:
    ops = []
    for name, truth, faults in edge_cases(rng):
        ops += _edge_ops(name, truth, faults)
    return ops


WORKLOADS = {"statements": statements, "dense": dense, "reject": reject, "edge": edge}


def build(name: str, seed: int, api) -> tuple:
    """The workload's operations, in an order shuffled by the seed, and the
    warm-up operation: the first one built, so that its kind does not depend
    on the seed. `api` is used only for the program's share of set-up
    (weighted_pair); operations receive the package when they run."""
    rng = np.random.default_rng(seed)
    ops = WORKLOADS[name](rng, api)
    return [ops[i] for i in rng.permutation(len(ops))], ops[0]
