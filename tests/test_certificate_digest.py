"""Bitwise certificates: for every catalog kind (m = 1, 2 and 3 for the
m-fold kinds), `weak_mpd`, `weak_dmp`, and the square kernels `drazin`,
`core_ep` and `m_wgi` (m = 1 and 2) of BW, on five pairs, the sha256 of the
value's bytes and of `repr(residuals)` must match
tests/data/certificate_digest.json, on a cold call (a fresh pair) and on a
warm one (the same call again). A change that reuses a product from the
pair's memo, or shares it within a call, or rewrites how a row is handed to
the certificate, must keep every value and every certificate residual bit for
bit; one that moves roundoff fails here. A call that raises is pinned by its error.

Regenerate the file (only when a change of values or residuals is intended
and recorded in CHANGES.md) with:

    PYTHONPATH=src python tests/test_certificate_digest.py

which prints to stderr each key whose digest moved against the file on disk.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from wginv._gen import ex1_member, ex1_pair, ex2_matrices, random_pair, random_square_with_index
from wginv.matcore import weighted_pair
from wginv.sqinv import core_ep, drazin, m_wgi
from wginv.winv import (
    CATALOG,
    PARAMETRIZED_KINDS,
    compute_kind,
    mrwwd_family,
    mrwwd_right_family,
    weak_dmp,
    weak_mpd,
)

DIGESTS = Path(__file__).parent / "data" / "certificate_digest.json"


def _ex2_pair():
    A, _, _, W = ex2_matrices()
    return weighted_pair(A, W)


def _identity_weight_pair():
    # W = I: B W and W B are one matrix
    S = random_square_with_index(8, 2, 5) * (1.0 + 0.5j)
    return weighted_pair(S, np.eye(8))


# each builds a fresh pair, with an empty memo beyond what weighted_pair seeds
PAIRS = {
    "ex1": ex1_pair,
    "ex2": _ex2_pair,
    "random(7,6,2,5)": lambda: random_pair(7, 6, 2, 5),
    "random(80,72,2,3)": lambda: random_pair(80, 72, 2, 3),
    "identity-weight(8,2)": _identity_weight_pair,
}


def _free(pair) -> np.ndarray:
    rng = np.random.default_rng(13)
    shape = (pair.m, pair.n)
    return 0.4 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _left_member(name: str, pair) -> np.ndarray:
    if name == "ex1":
        return ex1_member(2, -1)
    return mrwwd_family(pair).member(_free(pair))


def _right_member(name: str, pair) -> np.ndarray:
    return mrwwd_right_family(pair).member(_free(pair))


def _calls() -> dict:
    """label -> call(name, pair, twin), twin a second pair of the same
    matrices that draws the family members, so that the called pair is cold."""
    calls = {}
    for kind in CATALOG:
        for m in (1, 2, 3) if kind in PARAMETRIZED_KINDS else (1,):
            label = f"{kind}(m={m})" if kind in PARAMETRIZED_KINDS else kind
            calls[label] = lambda name, pair, twin, kind=kind, m=m: compute_kind(
                pair, kind, m=m
            )
    calls["weak_mpd"] = lambda name, pair, twin: weak_mpd(pair, _left_member(name, twin))
    calls["weak_dmp"] = lambda name, pair, twin: weak_dmp(pair, _right_member(name, twin))
    calls["drazin(BW)"] = lambda name, pair, twin: drazin(pair.bw_power(1))
    calls["core_ep(BW)"] = lambda name, pair, twin: core_ep(pair.bw_power(1))
    for m in (1, 2):
        calls[f"m_wgi(BW, m={m})"] = lambda name, pair, twin, m=m: m_wgi(pair.bw_power(1), m)
    return calls


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outcome(call, name, pair, twin) -> dict:
    try:
        result = call(name, pair, twin)
    except Exception as exc:  # pinned by its type and message
        return {"raises": _sha(f"{type(exc).__name__}: {exc}".encode())}
    value = result.value
    return {
        "value": _sha(f"{value.dtype}{value.shape}".encode() + value.tobytes()),
        "residuals": _sha(repr(result.residuals).encode()),
    }


def digest(name: str, label: str) -> dict:
    build, call = PAIRS[name], _calls()[label]
    pair, twin = build(), build()
    return {temper: _outcome(call, name, pair, twin) for temper in ("cold", "warm")}


def digests() -> dict:
    return {f"{name} {label}": digest(name, label) for name in PAIRS for label in _calls()}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text(encoding="ascii"))


def test_digests_cover_every_call(recorded):
    assert sorted(recorded) == sorted(f"{name} {label}" for name in PAIRS for label in _calls())


@pytest.mark.parametrize("label", sorted(_calls()))
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_certificates_match_digest(recorded, name, label):
    assert digest(name, label) == recorded[f"{name} {label}"]


def moved(old: dict, new: dict) -> list:
    """The keys whose entry differs between two digest files, or is in one only."""
    return sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))


if __name__ == "__main__":
    old = json.loads(DIGESTS.read_text(encoding="ascii")) if DIGESTS.exists() else {}
    new = digests()
    changed = moved(old, new)
    for key in changed:
        print(f"moved: {key}", file=sys.stderr)
    print(f"{len(changed)} of {len(new)} digests moved", file=sys.stderr)
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n", encoding="ascii")
    sys.exit(0)
