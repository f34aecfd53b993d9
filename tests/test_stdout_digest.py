"""Byte-identical stdout: for every `verify` id, on its default fixture and
with `--random --seed 7 --trials 5`, the sha256 of stdout and the exit code
must match tests/data/stdout_digest.json. Unlike the verdict fingerprint this
includes every printed residual digit, so a change that moves roundoff fails
here. (`suite --seed 1` is left out: it takes several seconds.)

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

import pytest

from wginv.cli import REGISTRY, main

DIGESTS = Path(__file__).parent / "data" / "stdout_digest.json"
RUNS = {"fixture": [], "random": ["--random", "--seed", "7", "--trials", "5"]}


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


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n", encoding="ascii")
    sys.exit(0)
