"""Spans and counters recorded around wginv's public functions and the
numpy.linalg kernels, installed from outside the package.

A function is replaced in every namespace that holds it: the wginv package,
each of its modules (they bind matcore names with ``from .matcore import``),
and module-level dicts such as ``winv.CATALOG``. numpy.linalg functions are
replaced both in ``numpy.linalg`` and in ``numpy.linalg._linalg``, whose
``norm(A, 2)`` calls its own module-level ``svd``.

Each span has a name, start, end, parent span and the operation it belongs
to. Self time is a span's duration minus the time covered by its child
spans. Totals are accumulated as spans close; the spans themselves are kept
in memory only while ``keep_spans`` is set and written out at the end.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time
from collections import defaultdict

# wginv modules, in the order their names appear in metric names; the
# private generator module is reported as "gen".
LAYERS = {
    "cli": "cli",
    "_gen": "gen",
    "matcore": "matcore",
    "sqinv": "sqinv",
    "winv": "winv",
    "verify": "verify",
    "decomp": "decomp",
    "perturb": "perturb",
    "orderlaw": "orderlaw",
}

# trivial matcore helpers called on every path; their time stays with the caller
UNTRACED = {"matcore.as_matrix", "matcore.matrix_power"}

CONSTRUCTORS = (
    "w_drazin",
    "w_core_ep",
    "w_m_wgi",
    "w_m_weak_core",
    "w_mpcep",
    "w_cepmp",
    "w_m_wgmp",
    "w_dmp",
    "w_mpd",
    "weak_mpd",
    "weak_dmp",
    "mrwwd_family",
    "mrwwd_right_family",
)

# numpy.linalg entry points that factorize or solve; linalg_calls counts the
# outermost of these, svd_calls every svd at any depth
FACTORIZATIONS = (
    "svd",
    "svdvals",
    "qr",
    "inv",
    "pinv",
    "solve",
    "lstsq",
    "eig",
    "eigh",
    "eigvals",
    "eigvalsh",
    "cholesky",
    "det",
    "slogdet",
    "matrix_rank",
    "cond",
    "tensorsolve",
    "tensorinv",
)
LINALG_TRACED = FACTORIZATIONS + ("matrix_power",)


def layer_modules(api) -> dict:
    """layer name -> wginv module."""
    return {
        layer: importlib.import_module(f"{api.__name__}.{mod_name}")
        for mod_name, layer in LAYERS.items()
    }


def layer_functions(api):
    """(span name, layer, function) for every traced public function of
    every wginv module."""
    found = []
    for layer, module in layer_modules(api).items():
        for name in module.__all__:
            fn = getattr(module, name)
            span = f"{layer}.{name}"
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                if span not in UNTRACED:
                    found.append((span, layer, fn))
    return found


def linalg_functions(np):
    return [(f"linalg.{name}", "linalg", getattr(np.linalg, name)) for name in LINALG_TRACED]


def linalg_namespaces(np) -> list:
    """`norm(A, 2)` calls the svd bound in numpy.linalg._linalg, not the
    public numpy.linalg.svd."""
    return [np.linalg, np.linalg._linalg]


def all_namespaces(api, np) -> list:
    return [api, *layer_modules(api).values(), *linalg_namespaces(np)]


class Recorder:
    """Replaces functions with span-recording wrappers until `uninstall`."""

    def __init__(self, keep_spans: bool = False):
        self.active = False
        self.keep_spans = keep_spans
        self.spans = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.spectral_from = defaultdict(float)
        self.outer_factorizations = 0
        self.constructor_calls = 0
        self.constructor_top = 0
        self.index_wrong = 0
        self.expected_index = None
        self._constructor_depth = 0
        self._stack = []
        self._next_span = 0
        self._op = 0
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self, targets, namespaces) -> None:
        """Wrap each (span, layer, fn) target wherever a namespace holds fn."""
        wrappers = {id(fn): self._wrap(span, layer, fn) for span, layer, fn in targets}
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers:
                    self._undo.append((ns, attr, value))
                    setattr(ns, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._undo.append((value, key, item))
                            value[key] = wrappers[id(item)]

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._undo.clear()

    def _wrap(self, span: str, layer: str, fn):
        rec = self
        check_index = span == "matcore.index_of"
        constructor = layer == "winv" and span.split(".", 1)[1] in CONSTRUCTORS

        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            rec._enter(span, layer, constructor)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._exit()
            if check_index and rec.expected_index is not None and result != rec.expected_index:
                rec.index_wrong += 1
            return result

        traced.__name__ = getattr(fn, "__name__", span)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    # -- spans --------------------------------------------------------------

    def begin_op(self, expected_index=None) -> None:
        self._op += 1
        self.expected_index = expected_index
        self.active = True

    def end_op(self) -> None:
        self.active = False
        self.expected_index = None

    def _enter(self, span: str, layer: str, constructor: bool) -> None:
        parent = self._stack[-1] if self._stack else None
        parent_layer = parent[1] if parent else "bench"
        if layer == "linalg" and parent_layer != "linalg" and span != "linalg.matrix_power":
            self.outer_factorizations += 1
        if constructor:
            self.constructor_calls += 1
            if self._constructor_depth == 0:
                self.constructor_top += 1
            self._constructor_depth += 1
        self._next_span += 1
        self._stack.append(
            [
                span,
                layer,
                time.perf_counter(),
                0.0,
                self._next_span,
                parent[4] if parent else 0,
                parent_layer,
                constructor,
            ]
        )

    def _exit(self) -> None:
        end = time.perf_counter()
        span, layer, start, child, span_id, parent_id, parent_layer, constructor = (
            self._stack.pop()
        )
        duration = end - start
        own = duration - child
        if self._stack:
            self._stack[-1][3] += duration
        if constructor:
            self._constructor_depth -= 1
        self.calls[span] += 1
        self.self_s[span] += own
        self.total_s[span] += duration
        if span == "matcore.spectral_norm":
            self.spectral_from[parent_layer] += own
        if self.keep_spans:
            self.spans.append((span_id, parent_id, self._op, span, start, end))

    def write_spans(self, path) -> None:
        """One JSON object per span, gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="ascii") as out:
            for span_id, parent_id, op, name, start, end in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent_id,
                            "op": op,
                            "name": name,
                            "start": start,
                            "end": end,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


# -- per-layer metrics ------------------------------------------------------

MATCORE_FNS = (
    "spectral_norm",
    "index_of",
    "rank_of",
    "mp_inverse",
    "projector_onto",
    "range_inclusion",
    "oblique_projector_check",
    "weighted_pair",
)
SPECTRAL_CALLERS = ("matcore", "sqinv", "winv", "verify", "decomp", "perturb", "orderlaw", "cli")
SQINV_FNS = ("drazin", "core_ep", "m_wgi")
WHOLE_LAYERS = ("verify", "decomp", "perturb", "orderlaw", "cli", "gen")
LINALG_REPORTED = ("svd", "qr", "inv", "lstsq", "matrix_power")


def per_layer_spec() -> list:
    """(name, unit, better) of every per-layer metric, in output order.
    Counts and times are per round of the workload."""
    spec = []
    for layer, fns in (("matcore", MATCORE_FNS), ("sqinv", SQINV_FNS), ("winv", CONSTRUCTORS)):
        for fn in fns:
            spec += [
                (f"{layer}.{fn}.calls", "count", "lower"),
                (f"{layer}.{fn}.self_ms", "ms", "lower"),
            ]
    spec += [(f"matcore.spectral_norm.from_{c}.self_ms", "ms", "lower") for c in SPECTRAL_CALLERS]
    spec += [
        ("matcore.index_of.wrong", "count", "lower"),
        ("sqinv.drazin.per_op", "count", "lower"),
        ("winv.top_level_share", "ratio", "higher"),
    ]
    for layer in WHOLE_LAYERS:
        spec += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_ms", "ms", "lower")]
    for fn in LINALG_REPORTED:
        spec += [(f"linalg.{fn}.calls", "count", "lower"), (f"linalg.{fn}.busy_ms", "ms", "lower")]
    return spec


def per_layer(rec: Recorder, rounds: int, ops: int) -> dict:
    """name -> (value, unit), with counts and times divided by `rounds`;
    a function never called reads 0."""
    values = {
        "matcore.index_of.wrong": rec.index_wrong / rounds,
        "sqinv.drazin.per_op": rec.calls["sqinv.drazin"] / ops,
        "winv.top_level_share": (
            rec.constructor_top / rec.constructor_calls if rec.constructor_calls else 1.0
        ),
    }
    for span in list(rec.calls):
        values[f"{span}.calls"] = rec.calls[span] / rounds
        values[f"{span}.self_ms"] = 1e3 * rec.self_s[span] / rounds
        values[f"{span}.busy_ms"] = 1e3 * rec.total_s[span] / rounds
    for caller, seconds in rec.spectral_from.items():
        values[f"matcore.spectral_norm.from_{caller}.self_ms"] = 1e3 * seconds / rounds
    for layer in WHOLE_LAYERS:
        names = [span for span in rec.calls if span.split(".")[0] == layer]
        values[f"{layer}.calls"] = sum(rec.calls[span] for span in names) / rounds
        values[f"{layer}.self_ms"] = 1e3 * sum(rec.self_s[span] for span in names) / rounds
    return {name: (values.get(name, 0.0), unit) for name, unit, _ in per_layer_spec()}
