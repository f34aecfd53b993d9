"""The residual rule, residual <= residual_atol * (1 + ||reference||), and the
refusal it leads to live in matcore alone: no other module of the package
reads a tolerance's `residual_atol` or builds a CertificationError. The one
exception is the CLI's `_tol_from`, which builds the ToleranceConfig from the
command line. (The scan parses the sources with `ast`.)

Every certificate is made of one row type, `matcore._Row`: each row that
`matcore._verdicts` judges, for a constructor, a kernel, a decomposition, a
family or the membership test, is a `_Row` whose sides and reference are
arrays or chains (tuples) of them."""

import ast
from pathlib import Path

import numpy as np
import pytest

import wginv
from wginv import matcore, winv
from wginv._gen import random_pair, random_square_with_index
from wginv.decomp import mp_via_blocks, weighted_core_ep_decompose
from wginv.sqinv import core_ep, drazin, m_wgi
from wginv.winv import (
    CATALOG,
    PARAMETRIZED_KINDS,
    compute_kind,
    mrwwd_family,
    mrwwd_right_family,
    w_dmp,
    weak_dmp,
    weak_mpd,
)

SOURCES = sorted(Path(wginv.__file__).parent.glob("*.py"))

# (module, top-level definition) allowed to read residual_atol
RULE_READERS = {("cli.py", "_tol_from")}


def rule_outside_matcore(module: str, source: str) -> list:
    """(line, what) of every read of `.residual_atol` and every call of
    CertificationError in `module` outside matcore and RULE_READERS."""
    if module == "matcore.py":
        return []
    found = []
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "residual_atol"
                and (module, owner) not in RULE_READERS
            ):
                found.append((node.lineno, "residual_atol"))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "CertificationError"
            ):
                found.append((node.lineno, "CertificationError"))
    return sorted(found)


def test_the_scan_sees_the_rule_outside_matcore():
    source = (
        "def _tol_from(ns):\n"
        "    return ns.residual_atol\n"
        "def judge(r, tol):\n"
        "    if r > tol.residual_atol:\n"
        "        raise CertificationError('refused')\n"
    )
    assert rule_outside_matcore("cli.py", source) == [(4, "residual_atol"), (5, "CertificationError")]
    assert rule_outside_matcore("perturb.py", source) == [
        (2, "residual_atol"),
        (4, "residual_atol"),
        (5, "CertificationError"),
    ]
    assert rule_outside_matcore("matcore.py", source) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_matcore_applies_the_residual_rule(path):
    assert rule_outside_matcore(path.name, path.read_text(encoding="utf-8")) == []


def _is_factor(factor) -> bool:
    if isinstance(factor, np.ndarray):
        return True
    return isinstance(factor, tuple) and len(factor) > 0 and all(map(_is_factor, factor))


def _catalog(pair) -> None:
    for kind in CATALOG:
        for m in (1, 2) if kind in PARAMETRIZED_KINDS else (1,):
            compute_kind(pair, kind, m=m)


def _free(pair, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((pair.m, pair.n)) + 1j * rng.standard_normal((pair.m, pair.n))


def _weak(pair) -> None:
    weak_mpd(pair, mrwwd_family(pair).member(_free(pair, 1)))
    weak_dmp(pair, mrwwd_right_family(pair).member(_free(pair, 2)))


def _square(S) -> None:
    drazin(S)
    core_ep(S)
    for m in (1, 2):
        m_wgi(S, m)


def _blocks(pair) -> None:
    mp_via_blocks(weighted_core_ep_decompose(pair))


CALLS = {
    "catalog 7x6": lambda: _catalog(random_pair(7, 6, 2, 5)),
    "catalog 40x36": lambda: _catalog(random_pair(40, 36, 2, 5)),  # probed rows
    "square kernels": lambda: _square(random_square_with_index(6, 2, 7)),
    "decomposition": lambda: _blocks(random_pair(7, 6, 2, 5)),
    "families and weak inverses": lambda: _weak(random_pair(7, 6, 2, 5)),
    "families and weak inverses 40x36": lambda: _weak(random_pair(40, 36, 2, 5)),
    "w_dmp": lambda: w_dmp(random_pair(7, 6, 2, 5)),
}


@pytest.fixture
def certificates(monkeypatch) -> list:
    """The checks of every `_verdicts` call, in order: `_certify` calls
    matcore's, the membership test (`winv._require_member`) winv's."""
    seen = []
    original = matcore._verdicts

    def recording(checks, *args, **kwargs):
        seen.append(dict(checks))
        return original(checks, *args, **kwargs)

    monkeypatch.setattr(matcore, "_verdicts", recording)
    monkeypatch.setattr(winv, "_verdicts", recording)
    return seen


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_every_certificate_row_is_a_row(certificates, call):
    call()
    assert certificates
    for checks in certificates:
        for label, row in checks.items():
            assert type(row) is matcore._Row, label
            factors = [row.lhs, row.rhs] + ([] if row.reference is None else [row.reference])
            assert all(map(_is_factor, factors)), label


def test_w_dmp_certifies_the_dual_kernels_as_rows(certificates):
    # on a fresh pair the dual's two Drazin kernels are the adjoints of the
    # pair's, each certified once on the pair and once on the dual
    w_dmp(random_pair(7, 6, 2, 5))
    kernels = [checks for checks in certificates if checks.keys() == {"outer", "commute", "power"}]
    assert len(kernels) == 4
