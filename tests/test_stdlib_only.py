"""The library imports nothing outside the standard library, and no module of
it imports a private name from another."""

from __future__ import annotations

import ast
import pathlib
import sys

PACKAGE_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "cgrcode"


def _imports():
    """(file name, node) for every import statement in the package."""
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield path.name, node


def test_runtime_imports_are_stdlib_only():
    foreign = []
    for name, node in _imports():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            top = module.split(".")[0]
            if top != "cgrcode" and top not in sys.stdlib_module_names:
                foreign.append(f"{name}: {module}")
    assert foreign == []


def test_no_module_imports_a_private_name_from_another():
    private = [
        f"{name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for name, node in _imports()
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "cgrcode")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
