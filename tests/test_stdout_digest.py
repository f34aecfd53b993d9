"""Byte-identical stdout: for every `verify` id, on its default fixture and
with `--random --seed 7 --trials 5`, the sha256 of stdout and the exit code
must match tests/data/stdout_digest.json. Unlike the verdict fingerprint this
includes every printed residual digit, so a change that moves roundoff fails
here. `suite --seed 1` is held to SUITE_SHA256 and exit 0 by its own test,
which also bounds the numpy SVDs it takes.

Regenerate the file (only when a change of printed output is intended and
recorded in CHANGES.md) with:

    PYTHONPATH=src python tests/test_stdout_digest.py

which prints to stderr each id and run whose digest moved against the file
on disk.
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

from test_certificate_digest import moved
from test_svd_budget import _counting
from wginv.cli import REGISTRY, main

DIGESTS = Path(__file__).parent / "data" / "stdout_digest.json"
RUNS = {"fixture": [], "random": ["--random", "--seed", "7", "--trials", "5"]}
SUITE_SHA256 = "681e54d42410a4976f5c0d26a21193b83336b96c7510576cccbcfc92232986a7"
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
    old = json.loads(DIGESTS.read_text(encoding="ascii")) if DIGESTS.exists() else {}
    new = digests()

    def runs(doc: dict) -> dict:
        return {f"{tid} {run}": entry for tid, runs in doc.items() for run, entry in runs.items()}

    changed = moved(runs(old), runs(new))
    for key in changed:
        print(f"moved: {key}", file=sys.stderr)
    print(f"{len(changed)} of {len(runs(new))} digests moved", file=sys.stderr)
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="ascii")
    sys.exit(0)
