"""No module of the package imports a name at module level that it neither
uses nor re-exports through `__all__`. (No linter is a dependency, so the
check parses the sources with `ast`.)"""

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
