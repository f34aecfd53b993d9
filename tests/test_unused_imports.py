"""No module of the package imports a name at module level that it neither
uses nor re-exports through `__all__`, and no module defines a private
function, class or constant at module level that no module of the package
references. (No linter is a dependency, so the checks parse the sources with
`ast`.)"""

import ast
from pathlib import Path

import pytest

import wginv

SOURCES = sorted(Path(wginv.__file__).parent.glob("*.py"))


def _imported(tree: ast.Module) -> dict:
    """name bound by each module-level import -> its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = _exported(tree)
    return sorted(
        (line, name)
        for name, line in _imported(tree).items()
        if name not in used and name not in exported
    )


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys as system\nfrom a import b, c\n__all__ = ['c']\nprint(os.sep)\n"
    assert unused_imports(source) == [(2, "system"), (3, "b")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _private_definitions(tree: ast.Module) -> dict:
    """private (single underscore) name defined at module level -> its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            found = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in found if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _references(tree: ast.Module) -> set:
    """Names a module reads, reaches as an attribute, or imports."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def unreferenced_private_names(sources: dict) -> list:
    """(module, line, name) of every private module-level definition that no
    module in `sources` ({module: source}) references."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    refs = set().union(*(_references(tree) for tree in trees.values()))
    return sorted(
        (module, line, name)
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in refs
    )


def test_the_check_sees_an_unreferenced_private_name():
    sources = {
        "a": "_USED = 1\n_DEAD = 2\ndef _helper():\n    return _USED\ndef _orphan():\n    pass\n",
        "b": "from a import _helper\nclass _Lonely:\n    pass\n",
    }
    assert unreferenced_private_names(sources) == [("a", 2, "_DEAD"), ("a", 5, "_orphan"), ("b", 2, "_Lonely")]


def test_every_private_module_level_name_is_referenced():
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unreferenced_private_names(sources) == []
