"""One tolerance per pair: a WeightedPair carries the ToleranceConfig it was
built at, and every function of a pair, a perturbation scenario or a block
decomposition reads it there (`pair.tol`, `scenario.pair.tol`,
`dec.pair.tol`). None of them takes a `tol` of its own and no memo key holds
one, so each quantity of a pair has one value. Functions of raw matrices and
of an order-law case keep their `tol`: each decides once per call."""

import ast
from pathlib import Path

import wginv

SOURCES = sorted(Path(wginv.__file__).parent.glob("*.py"))
# the first parameter of a function of one of these, and the classes whose
# methods are such functions
HOLDERS = {"pair", "scenario", "dec"}
HOLDER_CLASSES = {"WeightedPair", "PerturbationScenario", "BlockDecomposition"}


def _parameters(function) -> list:
    args = function.args
    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]


def _names_tol(node) -> bool:
    """Whether an expression reads a name or an attribute `tol`."""
    return any(
        getattr(n, "id", None) == "tol" or getattr(n, "attr", None) == "tol"
        for n in ast.walk(node)
    )


def tolerance_leaks(source: str) -> list:
    """[(function, line, what)] of every function whose first parameter is
    `pair`, `scenario` or `dec`, or that is a method of a pair, scenario or
    decomposition class, and takes `tol` ("parameter"), and of every
    `_cached(key, ...)` call whose key reads a `tol` ("memo key")."""
    found = []

    def visit(node, function, holder):
        if isinstance(node, ast.ClassDef):
            holder = node.name in HOLDER_CLASSES
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function, parameters = node.name, _parameters(node)
            of_holder = holder or (parameters and parameters[0] in HOLDERS)
            if of_holder and "tol" in parameters:
                found.append((function, node.lineno, "parameter"))
            holder = False  # a function nested in a method is not a method
        if isinstance(node, ast.Call) and node.args:
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
            if name == "_cached" and _names_tol(node.args[0]):
                found.append((function, node.lineno, "memo key"))
        for child in ast.iter_child_nodes(node):
            visit(child, function, holder)

    visit(ast.parse(source), None, False)
    return found


def test_no_pair_function_takes_a_tolerance_and_no_memo_key_holds_one():
    leaks = [
        (path.name, *leak)
        for path in SOURCES
        for leak in tolerance_leaks(path.read_text(encoding="utf-8"))
    ]
    assert leaks == []


def test_the_scan_sees_each_form_of_a_leak():
    source = (
        "def f(pair, X, tol=DEFAULT_TOL):\n"
        "    return pair._cached(('f', tol), lambda: X)\n"
        "def g(scenario, *, tol):\n"
        "    return scenario.pair._cached(('g', scenario.pair.tol, 2), build)\n"
        "class WeightedPair:\n"
        "    def _pinv(self, tol):\n"
        "        def build(tol):\n"
        "            return tol\n"
        "        return self._cached(('B^+',), build)\n"
        "def h(dec, tol): pass\n"
    )
    assert tolerance_leaks(source) == [
        ("f", 1, "parameter"),
        ("f", 2, "memo key"),
        ("g", 3, "parameter"),
        ("g", 4, "memo key"),
        ("_pinv", 6, "parameter"),
        ("h", 10, "parameter"),
    ]
    clean = (
        "def f(pair, X):\n"
        "    return pair._cached(('f', 2), lambda: mp_inverse(X, pair.tol))\n"
        "def drazin(S, tol=DEFAULT_TOL):\n"
        "    return _drazin(_staircase(S, tol), tol)\n"
        "def _pair(self, name, tol):\n"
        "    return weighted_pair(name, self.W, tol)\n"
    )
    assert tolerance_leaks(clean) == []
