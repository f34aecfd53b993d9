"""Byte-identical stdout: for every `verify` id, on its default fixture and
with `--random --seed 7 --trials 5`, the sha256 of stdout and the exit code
must match tests/data/stdout_digest.json. Unlike the verdict fingerprint this
includes every printed residual digit, so a change that moves roundoff fails
here. `suite --seed 1` is held to SUITE_SHA256 and exit 0 by its own test,
which also bounds the numpy SVDs it takes.

Regenerate the file (only when a change of printed output is intended and
recorded in CHANGES.md) with:

    PYTHONPATH=src python tests/test_stdout_digest.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import numpy.linalg._linalg as linalg_impl
import pytest

from test_svd_budget import _counting
from wginv.cli import REGISTRY, main

DIGESTS = Path(__file__).parent / "data" / "stdout_digest.json"
RUNS = {"fixture": [], "random": ["--random", "--seed", "7", "--trials", "5"]}
SUITE_SHA256 = "042f7b5c55a77a994f9d993103cf1b17ebb3ca3b0a94ec2fce26c44db96f6629"
# numpy SVDs of `suite --seed 1`: 18,292 when batteries 5 and 6 drew their 100
# shared instances each, 17,503 since they share one pass over them
SUITE_SVDS = 17_530


def digest(theorem_id: str, args: list) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", theorem_id, *args])
    return {"exit": code, "sha256": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}


def digests() -> dict:
    return {
        tid: {name: digest(tid, args) for name, args in RUNS.items()} for tid in sorted(REGISTRY)
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text(encoding="ascii"))


def test_digests_cover_every_id(recorded):
    assert sorted(recorded) == sorted(REGISTRY)


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("theorem_id", sorted(REGISTRY))
def test_verify_stdout_matches_digest(recorded, theorem_id, run):
    assert digest(theorem_id, RUNS[run]) == recorded[theorem_id][run]


def test_suite_stdout_matches_digest_within_its_svd_budget(monkeypatch, capsys):
    calls = _counting(monkeypatch, linalg_impl, "svd")
    monkeypatch.setattr(np.linalg, "svd", linalg_impl.svd)
    code = main(["suite", "--seed", "1"])
    stdout = capsys.readouterr().out
    assert (code, hashlib.sha256(stdout.encode()).hexdigest()) == (0, SUITE_SHA256)
    assert len(calls) <= SUITE_SVDS, len(calls)


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n", encoding="ascii")
    sys.exit(0)
