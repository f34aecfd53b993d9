"""Acceptance gate: one test and one printed pass/fail line per criterion.

Criteria 1-3 pin the integer fixture, 4 the order-law products, 5-9 the
randomized batteries (100/100/100/50/50 instances), 10 byte determinism of
the CLI suite. Run with -s to see every line.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import wginv
from wginv._gen import ex1_pair
from wginv.cli import load_matrix, main, suite_reports
from wginv.matcore import DEFAULT_TOL, index_of

DATA = Path(wginv.__file__).parent / "data"
SEED = 1


@pytest.fixture(scope="module")
def reports():
    """The battery reports of one suite run, by name."""
    return suite_reports(SEED, DEFAULT_TOL)


def _line(num: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _battery_line(num: int, report, detail: str) -> None:
    _line(num, report.overall, f"{detail} (worst residual {report.worst_residual():.3e})")


def test_criterion_01_fixture_w_drazin_exact(tmp_path):
    out = tmp_path / "wdw.mat"
    start = time.perf_counter()
    code = main(
        ["compute", "w-drazin", str(DATA / "a1.mat"), str(DATA / "w1.mat"), "--out", str(out)]
    )
    elapsed = time.perf_counter() - start
    expected = np.zeros((5, 4))
    expected[0] = (1, 1, 0, 2)
    gap = float(np.max(np.abs(load_matrix(out) - expected)))
    ok = code == 0 and gap <= 1e-12 and elapsed < 1.0
    _line(1, ok, f"compute w-drazin reproduces the fixture inverse (gap {gap:.3e}, {elapsed:.3f} s)")


def test_criterion_02_fixture_weak_mpd_family(reports):
    report = reports["suite-2-weak-mpd-family"]
    _battery_line(2, report, "weak MPD family closed form, system, and collapse at x1=1")


def test_criterion_03_fixture_index():
    idx = index_of(ex1_pair().bw_power(1))
    _line(3, idx == 3, f"fixture product index == 3 (got {idx})")


def test_criterion_04_order_products_exact(reports):
    report = reports["suite-4-order-products"]
    exact = all(ok for _, _, ok in report.conditions)
    _line(4, report.overall and exact, "four order-law products exact over 10 integer draws")


def test_criterion_05_characterization_coherence(reports):
    report = reports["suite-5-random-coherence"]
    _battery_line(5, report, "membership and inverse characterizations coherent on 100 pairs")


def test_criterion_06_projector_lemmas(reports):
    report = reports["suite-6-projector-geometry"]
    notes = dict(report.notes)
    detail = (
        "projector lemmas on 100 pairs "
        f"(worst left {notes['worst weak MPD residual']:.3e}, "
        f"right {notes['worst weak DMP residual']:.3e})"
    )
    _line(6, report.overall, detail)


def test_criterion_07_decomposition(reports):
    report = reports["suite-7-decomposition"]
    _battery_line(7, report, "reassembly, canonical weak MPD, block Moore-Penrose on 100 pairs")


def test_criterion_08_perturbation(reports):
    report = reports["suite-8-perturbation"]
    _battery_line(8, report, "50 perturbation scenarios with sandwich bounds and zero collapse")


def test_criterion_09_identity_weight_reductions(reports):
    report = reports["suite-9-identity-weight"]
    _battery_line(9, report, "identity-weight reductions on 50 square matrices")


def test_criterion_10_suite_determinism():
    cmd = [sys.executable, "-m", "wginv.cli", "suite", "--seed", "1"]
    start = time.perf_counter()
    first = subprocess.run(cmd, capture_output=True, timeout=120)
    second = subprocess.run(cmd, capture_output=True, timeout=120)
    elapsed = time.perf_counter() - start
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and b"SUITE PASS 9/9" in first.stdout
        and elapsed < 60.0
    )
    _line(10, ok, f"suite --seed 1 byte-identical across runs ({elapsed:.1f} s for two runs)")
