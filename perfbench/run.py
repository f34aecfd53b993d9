"""Benchmark for wginv: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's ``src``. With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced pass (spans go to ``perfbench/out``).
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SETUP_REPEATS = 5
MIN_OPS = 100  # so that at least ten latencies lie beyond the 90th percentile
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("statements", "dense", "reject", "edge")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import numpy with BLAS pinned to one thread, then wginv from the
    checkout's src directory and nowhere else."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    package = ROOT / "src" / "wginv"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"run.py: no wginv sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import wginv
    import wginv.cli

    if Path(wginv.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"run.py: imported wginv from {wginv.__file__}, not {package}")
    return numpy, wginv


class Tally:
    """Attempted and failed operations; `correct` turns false on any failure
    that no known program fault explains."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reasons = {}

    def judge(self, op, outcome, counted=True) -> None:
        reason = op.check(outcome)
        if counted:
            self.attempted += 1
            self.failed += reason is not None
        if reason is not None and op.fault is None:
            self.correct = False
            self.reasons.setdefault(op.label, reason)


def run_round(ops, api, latencies, recorder=None):
    """Run every operation once, back to back; return the outcomes."""
    from workloads import Raised

    outcomes = []
    for op in ops:
        if recorder is not None:
            recorder.begin_op(op.index)
        start = time.perf_counter()
        try:
            outcome = op.run(api)
        except Exception as exc:  # the op's check decides whether this was expected
            outcome = Raised(exc)
        latencies.append(time.perf_counter() - start)
        if recorder is not None:
            recorder.end_op()
        outcomes.append(outcome)
    return outcomes


def timed_rounds(ops, api, seconds, tally):
    """Whole rounds until `seconds` of operation time and MIN_OPS operations."""
    latencies = []
    while sum(latencies) < seconds or len(latencies) < MIN_OPS:
        for op, outcome in zip(ops, run_round(ops, api, latencies)):
            tally.judge(op, outcome)
    return latencies


def end_to_end(ops, np, api, seconds, tally, setup_s):
    from spans import Recorder, linalg_functions, linalg_namespaces

    gc.collect()
    latencies = timed_rounds(ops, api, seconds, tally)

    # one more round, untimed, counting numpy.linalg calls
    counter = Recorder()
    counter.install(linalg_functions(np), linalg_namespaces(np))
    try:
        for op, outcome in zip(ops, run_round(ops, api, [], counter)):
            tally.judge(op, outcome, counted=False)
    finally:
        counter.uninstall()

    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_p90_ms": (1e3 * statistics.quantiles(latencies, n=10)[8], "ms"),
        "svd_calls": (counter.calls["linalg.svd"], "count"),
        "linalg_calls": (counter.outer_factorizations, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced(ops, np, api, seconds, tally, workload, seed):
    """Whole rounds with every layer wrapped in spans, until `seconds` of
    traced operation time. Each traced round is paired with an untraced one,
    in alternating order, to measure the tracing overhead."""
    from spans import Recorder, all_namespaces, layer_functions, linalg_functions, per_layer

    recorder = Recorder(keep_spans=True)
    targets = layer_functions(api) + linalg_functions(np)
    namespaces = all_namespaces(api, np)
    busy = {True: 0.0, False: 0.0}
    rounds = 0
    gc.collect()
    while busy[True] < seconds or rounds * len(ops) < MIN_OPS:
        for wrapped in (True, False) if rounds % 2 == 0 else (False, True):
            latencies = []
            if wrapped:
                recorder.install(targets, namespaces)
            try:
                outcomes = run_round(ops, api, latencies, recorder if wrapped else None)
            finally:
                recorder.uninstall()
            for op, outcome in zip(ops, outcomes):
                tally.judge(op, outcome)
            busy[wrapped] += sum(latencies)
        recorder.keep_spans = False  # spans of the first round only
        rounds += 1
    recorder.write_spans(OUT_DIR / f"trace-{workload}-seed{seed}.jsonl.gz")
    print(f"run.py: tracing overhead {busy[True] / busy[False] - 1}", file=sys.stderr)
    return per_layer(recorder, rounds, rounds * len(ops))


class TimedCalls:
    """Stands in for the wginv package while a workload builds its inputs and
    adds up the time spent in the program's functions it calls, such as
    weighted_pair, apart from the benchmark's own construction work."""

    def __init__(self, api):
        self._api = api
        self.seconds = 0.0

    def __getattr__(self, name):
        fn = getattr(self._api, name)

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start

        return timed


def cold_start_s() -> float:
    """Median wall time of fresh interpreters that import numpy and wginv
    (with the BLAS pinning inherited from this process)."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import numpy, wginv, wginv.cli"
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    np, api = import_program()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    cold_start = cold_start_s()
    setups = []
    for _ in range(SETUP_REPEATS):
        program = TimedCalls(api)
        ops, warmup = workloads.build(args.workload, args.seed, program)
        t0 = time.perf_counter()
        run_round([warmup], api, [])
        setups.append(program.seconds + time.perf_counter() - t0)
    setup_s = cold_start + statistics.median(setups)

    tally = Tally()
    if args.trace:
        metrics = traced(ops, np, api, args.seconds, tally, args.workload, args.seed)
    else:
        metrics = end_to_end(ops, np, api, args.seconds, tally, setup_s)

    for label, reason in sorted(tally.reasons.items()):
        print(f"run.py: {label}: {reason}", file=sys.stderr)
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
