"""Static checks on the package source: no module imports a name it never
uses or imports inside a function, every module-level function or class is
named somewhere else and, unless it is public, by code that runs outside
the tests, every name in addtree.__all__ resolves, each listed once,
and has a docstring of its own if it is a function or class, no module
but cli.py prints or names sys.stdout, and every console script that
pyproject.toml declares names a callable.

A refactor that deletes the last use of an import (a removed class, a call
routed through another module) leaves the import behind, and one that
deletes the last caller leaves the callee behind; this catches both
without a linter. A checker that only tests call belongs under tests/.
"""

import ast
import importlib
import inspect
import tomllib
from pathlib import Path

import pytest

import addtree

MODULES = sorted(Path(addtree.__file__).parent.glob("*.py"))
ROOT = Path(addtree.__file__).parents[2]


def python_files(*tops):
    return sorted(path for top in tops for path in (ROOT / top).rglob("*.py"))


# Every Python file that may use the package: sources, tests, demos, bench.
USERS = python_files("src", "tests", "demos", "bench")
# The files that run the package outside its tests.
RUNNERS = python_files("src", "demos", "bench")


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


def test_public_names_have_docstrings():
    # A record made by namedtuple without a docstring of its own gets
    # "Name(field, ...)" as its __doc__, as a dataclass gets "Name(field:
    # type, ...)"; neither documents anything the signature does not.
    undocumented = [
        name
        for name in addtree.__all__
        for obj in [getattr(addtree, name)]
        if inspect.isfunction(obj) or inspect.isclass(obj)
        if not (obj.__doc__ or "").strip() or obj.__doc__.startswith(f"{name}(")
    ]
    assert not undocumented, f"public names without a docstring: {undocumented}"


def test_all_names_resolve_once():
    names = addtree.__all__
    assert len(names) == len(set(names)), "a name appears twice in __all__"
    missing = [name for name in names if not hasattr(addtree, name)]
    assert not missing, f"__all__ names that do not resolve: {missing}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_function_local_imports(path):
    module = ast.parse(path.read_text(), filename=str(path))
    local = [
        f"{fn.name} (line {node.lineno})"
        for fn in ast.walk(module)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert not local, f"{path.name} imports inside functions: {local}"


def names_in(node: ast.AST) -> set:
    """Every identifier that node reads, as a name, an attribute or an import."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
    return names


def unnamed_definitions(users) -> list:
    """"module:name" for each module-level function or class of the package
    that no top-level statement of the users names, its own aside."""
    bodies = {path: ast.parse(path.read_text(), filename=str(path)).body for path in users}
    named = [(stmt, names_in(stmt)) for body in bodies.values() for stmt in body]
    return [
        f"{path.name}:{stmt.name}"
        for path in MODULES
        for stmt in bodies[path]
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not any(stmt.name in names for unit, names in named if unit is not stmt)
    ]


def test_every_module_level_definition_is_named_elsewhere():
    unused = unnamed_definitions(USERS)
    assert not unused, f"module-level definitions no file names: {unused}"


def test_every_private_definition_runs_outside_the_tests():
    # A public name is named by the imports of addtree/__init__.py; any
    # other definition must serve src/, demos/ or bench/, not tests alone.
    test_only = unnamed_definitions(RUNNERS)
    assert not test_only, f"definitions only tests name (move them to tests/): {test_only}"


@pytest.mark.parametrize(
    "path", [path for path in MODULES if path.name != "cli.py"], ids=lambda path: path.name
)
def test_only_the_cli_writes_to_stdout(path):
    # cli.main turns a closed stdout into one error line; that covers every
    # byte the package writes only while no other module prints.
    names = names_in(ast.parse(path.read_text(), filename=str(path)))
    assert not names & {"print", "stdout"}, f"{path.name} writes to stdout"


def test_console_scripts_resolve_to_callables():
    # Installing the package writes one launcher per [project.scripts]
    # entry; a renamed module or function would only fail when it runs.
    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"console script {name} = {target!r} is not callable"
