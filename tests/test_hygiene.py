"""Static checks on the package source: no module imports a name it never
uses, and every name in addtree.__all__ resolves, each listed once.

A refactor that deletes the last use of an import (a removed class, a call
routed through another module) leaves the import behind; this catches it
without a linter.
"""

import ast
from pathlib import Path

import pytest

import addtree

MODULES = sorted(Path(addtree.__file__).parent.glob("*.py"))


def imported_names(module: ast.Module):
    """(bound name, line) for every import except __future__ features."""
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(module: ast.Module) -> set:
    """Names read anywhere, plus the strings listed in __all__, which
    re-export what a package imports."""
    used = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    for node in ast.walk(module):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    module = ast.parse(path.read_text(), filename=str(path))
    used = used_names(module)
    unused = [
        f"{name} (line {line})" for name, line in imported_names(module) if name not in used
    ]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_all_names_resolve_once():
    names = addtree.__all__
    assert len(names) == len(set(names)), "a name appears twice in __all__"
    missing = [name for name in names if not hasattr(addtree, name)]
    assert not missing, f"__all__ names that do not resolve: {missing}"
