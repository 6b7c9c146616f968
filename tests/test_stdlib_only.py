"""The library imports nothing outside the standard library."""

from __future__ import annotations

import ast
import pathlib
import sys

PACKAGE_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "cgrcode"


def test_runtime_imports_are_stdlib_only():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "cgrcode" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}: {name}")
    assert foreign == []
