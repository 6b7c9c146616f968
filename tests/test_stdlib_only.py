"""The library imports nothing outside the standard library, its CLI starts
without the heavy stdlib modules, the package exports a pinned list of
names, no module of it imports a private name
from another, only layout.py makes Cells or reads the Cell view, the
JSON format and dualize never read it, and only cli writes cell records."""

from __future__ import annotations

import ast
import pathlib
import subprocess
import sys

PACKAGE_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "cgrcode"


def _nodes():
    """(file name, node) for every syntax node in the package."""
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def _imports():
    """(file name, node) for every import statement in the package."""
    for name, node in _nodes():
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield name, node


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


def test_cli_imports_none_of_the_heavy_stdlib_modules():
    # Every CLI command pays for what importing cgrcode.cli loads. -S keeps
    # site (which may preload typing) out of the child, so only the package
    # and what it imports can bring these in.
    heavy = ["dataclasses", "inspect", "typing", "fractions", "decimal"]
    script = (
        f"import sys; sys.path.insert(0, {str(PACKAGE_DIR.parent)!r}); import cgrcode.cli; "
        f"print(' '.join(m for m in {heavy!r} if m in sys.modules))"
    )
    child = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == []


PUBLIC_NAMES = [
    "BUILTIN_VECTORS", "BudgetExceededError", "Cell", "CgrGraph", "CgrParams", "CodeArray",
    "ContractShapeError", "DEFAULT_BUDGET", "DecodeReport", "ErasurePattern", "Factorization",
    "Lcg", "MdsResult", "NEG_INF", "OffsetVector", "POS_INF", "SearchSpec", "SearchStats",
    "UnrecoverableError", "build_cgr", "build_code_array", "contract", "decode",
    "decode_complexity", "derive_offsets", "dualize", "encode", "erase", "map_unshifted",
    "params_for_offset_length", "pif_factorize", "puncture", "search", "update_complexity",
    "verify_contracted_mds", "verify_dual_mds", "verify_mds",
]


def test_the_public_surface_is_pinned():
    # The package exports exactly these names, and each one resolves on it.
    import cgrcode

    assert sorted(cgrcode.__all__) == PUBLIC_NAMES
    missing = [name for name in cgrcode.__all__ if not hasattr(cgrcode, name)]
    assert missing == []


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



def _callee(func) -> str | None:
    """The name a call goes through: f for f(...), C for C.m(...)."""
    if isinstance(func, ast.Attribute):
        func = func.value
    return func.id if isinstance(func, ast.Name) else None


def test_only_layout_makes_cells():
    # A code array is its mask grid and cells are a view of it: CodeArray.rows
    # is the one place masks become Cells, so no other module calls Cell or
    # a method of it.
    calls = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if name != "layout.py" and isinstance(node, ast.Call) and _callee(node.func) == "Cell"
    ]
    assert calls == []


def test_codespec_and_dualize_read_no_cell_view():
    # The JSON writer, its loader and dualize work on CodeArray.masks; the
    # rows view of Cells is for library users, and it builds one Cell per cell.
    scopes = [
        node
        for name, node in _nodes()
        if (name == "codespec.py" and isinstance(node, ast.Module))
        or (name == "layout.py" and isinstance(node, ast.FunctionDef) and node.name == "dualize")
    ]
    assert len(scopes) == 2
    reads = [
        node.lineno
        for scope in scopes
        for node in ast.walk(scope)
        if isinstance(node, ast.Attribute) and node.attr == "rows"
    ]
    assert reads == []


def test_no_module_reads_the_cell_view():
    # The text grid renders from layout.cell_members, so only layout.py, which
    # defines it, names CodeArray.rows or Cell.
    names = [
        f"{name}:{node.lineno}"
        for name, node in _nodes()
        if name not in ("layout.py", "__init__.py")
        and (
            (isinstance(node, ast.Attribute) and node.attr == "rows")
            or (isinstance(node, ast.Name) and node.id == "Cell")
            or (isinstance(node, ast.alias) and node.name == "Cell")
        )
    ]
    assert names == []


def test_only_cli_knows_the_cell_record_format():
    # A code file is a header: codespec names no cell member or kind, and
    # cli.mask_records writes the one remaining set of cell records, the
    # columns of contract's JSON.
    names = [
        f"{node.lineno}: {getattr(node, 'name', '')}"
        for name, node in _nodes()
        if name == "codespec.py"
        and (
            (isinstance(node, ast.alias) and node.name in ("cell_members", "KINDS"))
            or (isinstance(node, ast.FunctionDef) and node.name == "mask_records")
        )
    ]
    assert names == []
