"""Show that every check of the benchmark flags a deliberately wrong outcome,
that the counting and tracing wrappers see every call, and that
BENCHMARK.json lists the metrics run.py prints.

    python3 perfbench/selftest.py

Exits 0 when no line reads "FAIL".
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import run

failures = []


def expect(what: str, flagged) -> None:
    """`flagged` is a check's verdict on a wrong outcome; it must be a reason."""
    ok = flagged is not None
    print(f"{'ok  ' if ok else 'FAIL'} {what}: {flagged}")
    if not ok:
        failures.append(what)


def expect_pass(what: str, reason) -> None:
    ok = reason is None
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(f"{what}: {reason}")


def outcome_of(op, api):
    return run.run_round([op], api, [])[0]


def nudged(X, np, size=1e-6):
    """X moved by `size` relative to its Frobenius norm."""
    E = np.random.default_rng(0).standard_normal(X.shape)
    return X + size * np.linalg.norm(X) * E / np.linalg.norm(E)


def dense_checks(wl, api, np):
    ops = {op.label: op for op in wl.WORKLOADS["dense"](np.random.default_rng(1), api)}
    for label in ("w_mpd#0", "w_m_weak_core#0", "w_core_ep#0"):
        out = outcome_of(ops[label], api)
        expect_pass(f"dense {label} matches its reference", ops[label].check(out))
        wrong = dataclasses.replace(out, value=nudged(out.value, np))
        expect(f"dense {label} perturbed by 1e-6", ops[label].check(wrong))
    swapped = outcome_of(ops["w_dmp#0"], api)
    expect("dense w_dmp value offered as w_mpd", ops["w_mpd#0"].check(swapped))
    expect(
        "dense index_used off by one",
        ops["w_drazin#0"].check(dataclasses.replace(swapped, index_used=swapped.index_used + 1)),
    )
    for label in ("left family#0.0", "right family#0.1"):
        member, value = outcome_of(ops[label], api)
        expect_pass(f"dense {label} member and inverse", ops[label].check((member, value)))
        expect(f"dense {label} member perturbed", ops[label].check((nudged(member, np), value)))
        expect(f"dense {label} inverse perturbed", ops[label].check((member, nudged(value, np))))


def edge_checks(wl, api, np):
    ops = {op.label: op for op in wl.WORKLOADS["edge"](np.random.default_rng(1), api)}
    for label in ("drazin[eig=1e-1]", "core_ep[complex]", "w_mpd[index=n-1]"):
        out = outcome_of(ops[label], api)
        expect_pass(f"edge {label} matches its truth", ops[label].check(out))
        expect(f"edge {label} perturbed by 1e-6", ops[label].check(nudged(out, np)))
    op = ops["index_of[coupling=1e2]"]
    out = outcome_of(op, api)
    expect_pass(f"edge {op.label} is the constructed index", op.check(out))
    expect("edge index off by one", op.check(out + 1))
    faults = {op.label for op in ops.values() if op.fault}
    failing = {op.label for op in ops.values() if op.check(outcome_of(op, api)) is not None}
    expect_pass(
        "edge fails only listed fault cases",
        None if failing <= faults else f"unlisted failures {sorted(failing - faults)}",
    )
    if faults - failing:
        print(f"info listed fault cases that now pass: {sorted(faults - failing)}")


def statement_checks(wl, api, np):
    ops = {op.label: op for op in wl.statements(np.random.default_rng(1), api)}
    op = ops["thm3.3 --random --seed 7"]
    code, text = outcome_of(op, api)
    expect_pass("statements thm3.3 passes", op.check((code, text)))
    expect("statements exit code 2 where 0 is due", op.check((2, text)))
    flipped = text.replace('"overall": true', '"overall": false')
    expect("statements overall false", op.check((0, flipped)))
    expect("statements stdout changed between runs", op.check((0, text.replace("7", "8", 1))))
    expect("statements stdout not JSON", op.check((0, "SUITE PASS")))
    op = ops["thm3.30 --fixture ex2"]
    code, text = outcome_of(op, api)
    expect_pass("statements thm3.30 --fixture ex2 exits 2", op.check((code, text)))
    expect("statements thm3.30 --fixture ex2 exiting 0", op.check((0, text)))


def reject_checks(wl, api, np):
    rng = np.random.default_rng(1)
    t, good, wrong = wl.reject_inputs(rng, 6, 5, 2, complex_entries=True)
    pair = api.weighted_pair(t.B, t.W)
    for op in wl.reject_ops(pair, good, wrong, 2, "6x5"):
        expect_pass(f"reject {op.label} refused", op.check(outcome_of(op, api)))
    for op in wl.reject_ops(pair, good, good, 2, "6x5"):
        expect(f"reject {op.label} given a genuine input", op.check(outcome_of(op, api)))


def wrapper_checks(wl, api, np):
    from spans import (
        Recorder,
        all_namespaces,
        layer_functions,
        linalg_functions,
        linalg_namespaces,
    )

    ops, _ = wl.build("reject", 1, api)
    counter = Recorder()
    counter.install(linalg_functions(np), linalg_namespaces(np))
    run.run_round(ops, api, [], counter)
    counter.uninstall()
    tracer = Recorder()
    tracer.install(layer_functions(api) + linalg_functions(np), all_namespaces(api, np))
    try:
        wrapped = getattr(api.verify.spectral_norm, "__wrapped__", None)
        expect_pass(
            "verify's own binding of spectral_norm is wrapped",
            None if wrapped is not None else "verify.spectral_norm is the original",
        )
        run.run_round(ops, api, [], tracer)
    finally:
        tracer.uninstall()
    expect_pass(
        "svd counts agree between the counting and the traced pass",
        None
        if counter.calls["linalg.svd"] == tracer.calls["linalg.svd"] > 0
        else f"{counter.calls['linalg.svd']} vs {tracer.calls['linalg.svd']}",
    )
    norm_svds = tracer.calls["matcore.spectral_norm"]
    expect_pass(
        "SVDs inside np.linalg.norm(A, 2) are counted",
        None if tracer.calls["linalg.svd"] >= norm_svds > 0 else "norm's SVDs missed",
    )
    expect_pass(
        "wrappers removed after the traced pass",
        None if not hasattr(api.verify.spectral_norm, "__wrapped__") else "still wrapped",
    )


def spec_checks():
    from spans import per_layer_spec

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    expect_pass(
        "BENCHMARK.json lists the per-layer metrics run.py prints",
        None if listed == per_layer_spec() else "per_layer differs from spans.per_layer_spec()",
    )
    names = {m["name"] for m in spec["end_to_end"]}
    printed = {
        "setup_s",
        "ops_per_s",
        "op_p50_ms",
        "op_p90_ms",
        "svd_calls",
        "linalg_calls",
        "peak_rss_mb",
    }
    expect_pass(
        "BENCHMARK.json lists the end-to-end metrics run.py prints",
        None if names == printed else f"{sorted(names ^ printed)}",
    )


def main() -> int:
    np, api = run.import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads as wl

    for section in (dense_checks, edge_checks, statement_checks, reject_checks, wrapper_checks):
        section(wl, api, np)
    spec_checks()
    print(f"\n{len(failures)} failed" if failures else "\nall checks ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
