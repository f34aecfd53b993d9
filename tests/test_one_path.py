"""One path per pair quantity: what depends only on B and W (the Drazin and
core-EP kernels, the index, the weighted Drazin, MPD and DMP inverses) is
built once, by the WeightedPair, and read from it. So the checkers, the
perturbation chains and the order laws import no square-matrix inverse and no
index decision, and the checkers and the perturbation chains call no public
constructor of a pair's own inverse: they read its value through
`winv._value`. (The scan parses the sources with `ast`.)"""

import ast
from pathlib import Path

import pytest

import wginv
from wginv import matcore, verify

PACKAGE = Path(wginv.__file__).parent

# names a module must not import, and public constructors it must not call
SECOND_PATHS = {"drazin", "core_ep", "m_wgi", "index_of"}
PAIR_INVERSES = {"w_drazin", "w_mpd", "w_dmp"}
IMPORT_SCAN = ("verify.py", "perturb.py", "orderlaw.py")
CALL_SCAN = ("verify.py", "perturb.py")


def second_paths(source: str, calls: bool) -> list:
    """(line, name) of every import of a name in SECOND_PATHS and, if `calls`,
    every call of a name in PAIR_INVERSES."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name.rsplit(".", 1)[-1] in SECOND_PATHS:
                    found.append((node.lineno, alias.name))
        elif (
            calls
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in PAIR_INVERSES
        ):
            found.append((node.lineno, node.func.id))
    return sorted(found)


def test_the_scan_sees_second_paths():
    source = (
        "from .sqinv import drazin, _drazin\n"
        "from .matcore import index_of as idx\n"
        "from .winv import _value, w_mpd\n"
        "def check(pair, tol):\n"
        "    return _value(pair, w_mpd, tol) - w_mpd(pair, tol).value\n"
    )
    assert second_paths(source, calls=False) == [(1, "drazin"), (2, "index_of")]
    assert second_paths(source, calls=True) == [(1, "drazin"), (2, "index_of"), (5, "w_mpd")]


@pytest.mark.parametrize("module", IMPORT_SCAN)
def test_pair_quantities_have_one_path(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert second_paths(source, calls=module in CALL_SCAN) == []


# The constructors and the membership test decide no rank of, and build no
# projector from, a value or candidate on its own scale: every range they
# judge is read from a staircase form of the pair.
OWN_SCALE = {"rank_of", "projector_onto", "_pinv_rank"}
OWN_SCALE_SCAN = ("winv.py", "sqinv.py")


def own_scale_references(source: str) -> list:
    """(line, name) of every import, name or attribute in OWN_SCALE."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            names = (node.name.rsplit(".", 1)[-1],)
        elif isinstance(node, ast.Name):
            names = (node.id,)
        elif isinstance(node, ast.Attribute):
            names = (node.attr,)
        else:
            continue
        found += [(getattr(node, "lineno", 0), name) for name in names if name in OWN_SCALE]
    return sorted(found)


def test_the_scan_sees_own_scale_decisions():
    source = (
        "from .matcore import rank_of, _pinv_rank as pr\n"
        "def check(X, tol):\n"
        "    return matcore.projector_onto(X, tol), rank_of(X, tol)\n"
    )
    assert own_scale_references(source) == [
        (1, "_pinv_rank"),
        (1, "rank_of"),
        (3, "projector_onto"),
        (3, "rank_of"),
    ]


@pytest.mark.parametrize("module", OWN_SCALE_SCAN)
def test_constructors_decide_no_rank_on_a_values_own_scale(module):
    source = (PACKAGE / module).read_text(encoding="utf-8")
    assert own_scale_references(source) == []


def test_verify_keeps_its_spectral_norm_binding():
    # the benchmark's self-test wraps verify's own binding of spectral_norm
    assert verify.spectral_norm is matcore.spectral_norm


# The constructors read B W and W B as the pair's first powers, the products
# its staircase forms were taken of, instead of forming them again: `winv`
# spells no product of B and W, in either order, and calls neither `bw()`
# nor `wb()`.
FACTOR_NAMES = {"B", "W"}


def _factor(node) -> str | None:
    """"B" or "W" for a name or attribute so called, else None."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name if name in FACTOR_NAMES else None


def pair_products(source: str) -> list:
    """(line, spelling) of every B @ W or W @ B and every call of bw()/wb()."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            left, right = _factor(node.left), _factor(node.right)
            if left and right and left != right:
                found.append((node.lineno, f"{left} @ {right}"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in {"bw", "wb"}
        ):
            found.append((node.lineno, f"{node.func.attr}()"))
    return sorted(found)


def test_the_scan_sees_pair_products():
    source = (
        "def build(pair, val):\n"
        "    B, W = pair.B, pair.W\n"
        "    left = B @ W @ val\n"
        "    right = val @ W @ B\n"
        "    return pair.W @ pair.B @ W, pair.bw(), pair.bw_power(1) @ val, B @ B\n"
    )
    assert pair_products(source) == [(3, "B @ W"), (5, "W @ B"), (5, "bw()")]


def test_constructors_read_the_first_powers_from_the_pair():
    source = (PACKAGE / "winv.py").read_text(encoding="utf-8")
    assert pair_products(source) == []
