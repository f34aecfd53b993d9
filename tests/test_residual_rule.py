"""The residual rule, residual <= residual_atol * (1 + ||reference||), and the
refusal it leads to live in matcore alone: no other module of the package
reads a tolerance's `residual_atol` or builds a CertificationError. The one
exception is the CLI's `_tol_from`, which builds the ToleranceConfig from the
command line. (The scan parses the sources with `ast`.)"""

import ast
from pathlib import Path

import pytest

import wginv

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
