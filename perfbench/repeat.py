"""Repeat the benchmark and print each metric's median, quartiles and spread.

    python3 perfbench/repeat.py --runs 10 --first-seed 1
    python3 perfbench/repeat.py --workloads dense,edge --runs 5 --trace

Runs ``perfbench/run.py`` once per seed and workload, one run at a time,
with the run length named in BENCHMARK.json. For every end-to-end metric it
prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median and
that spread as a share of the metric's bound. It also prints the share of
failed operations seen in each run. With ``--trace`` it makes one traced run
per seed as well and prints the per-layer medians and the tracing overhead:
the operation time of traced rounds against that of the untraced rounds
paired with them in the same run.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload, seed, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(SPEC["run_seconds"])]
    cmd += ["--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    match = re.search(r"tracing overhead ([0-9.e+-]+)", proc.stderr)
    return result, float(match.group(1)) if match else None


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for workload in args.workloads.split(","):
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [run_once(workload, seed, False)[0] for seed in seeds]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        attempted = statistics.median(r["attempted"] for r in runs)
        print(
            f"\n{workload}: {args.runs} runs, correct={correct}, "
            f"median {attempted:g} operations per run, failed share {shares}"
        )
        heads = ("median", "q1", "q3")
        print(f"  {'metric':14s} " + " ".join(f"{h:>12s}" for h in heads) + "   spread  /bound")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else float("inf")
            figures = f"{med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} {spread / bound:7.3f}"
            print(f"  {name:14s} {figures}")

        if args.trace:
            traced = [run_once(workload, seed, True) for seed in seeds]
            layer = {}
            for name in traced[0][0]["metrics"]:
                layer[name] = statistics.median(r["metrics"][name]["value"] for r, _ in traced)
            overhead = statistics.median(t for _, t in traced)
            print(f"  tracing overhead: {100 * overhead:.1f}% longer per operation")
            for name, value in layer.items():
                print(f"    {name:48s} {value:14.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
