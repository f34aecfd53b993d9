"""Verdict fingerprint: for every `verify` id (on its default fixture and with
`--random --seed 7 --trials 3`) and for every battery of `suite --seed 1`,
the exit code, theorem id, condition labels in order and pass flags must match
tests/data/verdicts.json. Residual values are left out, so refactors that move
roundoff but keep every verdict pass.

Regenerate the file (only when a verdict change is intended and recorded in
CHANGES.md) with:

    PYTHONPATH=src python tests/test_verdicts.py
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from wginv.cli import REGISTRY, SUITE_BATTERIES, main
from wginv.matcore import DEFAULT_TOL

VERDICTS = Path(__file__).parent / "data" / "verdicts.json"
VERIFY_RUNS = {"fixture": [], "random": ["--random", "--seed", "7", "--trials", "3"]}
SUITE_SEED = 1


def _verdict(doc: dict) -> dict:
    out = {"theorem_id": doc["theorem_id"]}
    if "error" in doc:
        out["error"] = True
    else:
        out["conditions"] = [[c["label"], c["pass"]] for c in doc["conditions"]]
    if "notes" in doc:
        out["notes"] = [note["label"] for note in doc["notes"]]
    return out


def verify_verdicts(theorem_id: str) -> dict:
    result = {}
    for name, args in VERIFY_RUNS.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(["verify", theorem_id, *args])
        docs = json.loads(stdout.getvalue())
        docs = docs if isinstance(docs, list) else [docs]
        result[name] = {"exit": code, "reports": [_verdict(doc) for doc in docs]}
    return result


def suite_verdict(battery) -> dict:
    return _verdict(battery(SUITE_SEED, DEFAULT_TOL).to_dict())


def fingerprint() -> dict:
    return {
        "verify": {tid: verify_verdicts(tid) for tid in sorted(REGISTRY)},
        "suite": {name: suite_verdict(battery) for name, battery in SUITE_BATTERIES},
    }


@pytest.fixture(scope="module")
def recorded():
    return json.loads(VERDICTS.read_text(encoding="ascii"))


def test_fingerprint_covers_every_id_and_battery(recorded):
    assert sorted(recorded["verify"]) == sorted(REGISTRY)
    assert list(recorded["suite"]) == [name for name, _ in SUITE_BATTERIES]


@pytest.mark.parametrize("theorem_id", sorted(REGISTRY))
def test_verify_verdicts_match_fingerprint(recorded, theorem_id):
    assert verify_verdicts(theorem_id) == recorded["verify"][theorem_id]


@pytest.mark.parametrize("name, battery", SUITE_BATTERIES, ids=[n for n, _ in SUITE_BATTERIES])
def test_suite_verdicts_match_fingerprint(recorded, name, battery):
    assert suite_verdict(battery) == recorded["suite"][name]


if __name__ == "__main__":
    text = json.dumps(fingerprint(), indent=1)
    # one condition per line: [label, pass]
    text = re.sub(r'\[\s+("(?:[^"\\]|\\.)*"),\s+(true|false)\s+\]', r"[\1, \2]", text)
    VERDICTS.parent.mkdir(exist_ok=True)
    VERDICTS.write_text(text + "\n", encoding="ascii")
    sys.exit(0)
