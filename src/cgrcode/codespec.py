"""Canonical JSON interchange for code arrays.

A code file is a header: {"version": "2", "v1", "v2", "dual",
"offset_vector"}, in that order, written as json.dumps(obj, indent=2) + "\\n".
A CGR array is fixed by v1 and its offset vector, so loading builds it
(build_code_array) and dualizes it when dual is true, both of which return
the header-only built array, and writing reads CodeArray.built and
is_dual(), which a built array stores: a version 2 file loads and writes
without laying out a grid, which is laid out only when CodeArray.masks is
first read.
Version "1" files, whose "rows" hold every cell as {"kind": "info"|"parity"|
"empty", "vertices": [...]}, still load: their rows must be the array the
header builds, or its dual, record for record. Only integers are read.
"""

from __future__ import annotations

import json

from .graph import CgrParams
from .layout import KINDS, CodeArray, OffsetVector, build_code_array, cell_members, dualize, require_buildable

FORMAT_VERSION = "2"
_HEADER = ("version", "v1", "v2", "dual", "offset_vector")  # a version 2 file, in order


def mask_records(grid, v2: int) -> list[list[dict]]:
    """The JSON records of a mask grid's rows, or of its columns given
    zip(*masks): {"kind": ..., "vertices": cell_members(mask, v2)} per cell."""
    members = [[cell_members(m, v2) for m in line] for line in grid]
    return [[{"kind": KINDS[min(len(ms), 2)], "vertices": ms} for ms in line] for line in members]


def to_obj(array: CodeArray) -> dict:
    """The header of a built array or its dual (CodeArray.built). Any other grid
    (punctured, contracted, or built by hand) raises ValueError: no header describes it."""
    if not array.built:
        raise ValueError("only a built array or its dual can be saved as a code file")
    params, dual = array.params, array.is_dual()
    return dict(zip(_HEADER, (FORMAT_VERSION, params.v1, params.v2, dual, list(array.offsets))))


def to_json(array: CodeArray) -> str:
    """The code file of a built array or its dual. Hand-built grids cannot
    be saved, in this version or in version 1: to_obj raises ValueError."""
    return json.dumps(to_obj(array), indent=2) + "\n"


def from_obj(obj: dict) -> CodeArray:
    """Parse a code object of version 2 (the header alone) or 1 (the header
    and rows that must be the array it builds, or that array's dual)."""
    if not isinstance(obj, dict):
        raise ValueError("code file must be a JSON object")
    version = obj.get("version")
    if version not in ("1", FORMAT_VERSION):
        raise ValueError(f"unsupported format version {version!r} (expected '1' or '2')")
    if version == FORMAT_VERSION and obj.keys() != set(_HEADER):
        fields = ", ".join(map(str, obj))
        raise ValueError(f"a version 2 code file holds exactly {', '.join(_HEADER)}; got {fields}")
    try:
        params, offsets = CgrParams(obj["v1"], obj["v2"]), OffsetVector(obj.get("offset_vector", ()))
    except KeyError as missing:
        raise ValueError(f"missing field {missing}") from None
    except TypeError as exc:
        raise ValueError(f"bad header field: {exc}") from None
    if version == FORMAT_VERSION and type(obj["dual"]) is not bool:
        raise ValueError(f"dual must be true or false, got {obj['dual']!r}")
    if version == FORMAT_VERSION and obj["dual"]:
        require_buildable(params, dual=True)  # before the primal is built
    array = build_code_array(params, offsets)  # checks offsets before any layout
    if version == "1":
        return _check_rows(array, obj.get("rows"))
    return dualize(array) if obj["dual"] else array


def _check_rows(array: CodeArray, rows) -> CodeArray:
    """The built array or its dual, whichever a version 1 file's rows are.
    A bool member is refused (from_json refuses floats as it parses)."""
    params = array.params
    try:  # a dual's first cell is a parity over v1 + 1 edges, a primal's an info cell
        dual = len(rows[0][0]["vertices"]) > 2
    except (TypeError, LookupError):
        dual = False  # malformed: the comparison below rejects it
    if dual:
        array = dualize(array)
    if rows != mask_records(array.masks, params.v2):
        raise ValueError(f"rows match neither the v1={params.v1} offset_vector array nor its dual")
    # Equal records still let a bool pass where it equals an id, 0 or 1.
    for r, row in enumerate(rows):
        if any(type(v) is not int for cell in row for v in cell["vertices"]):
            raise ValueError(f"rows[{r}] holds a vertex id that is not an int")
    return array


def _refuse_float(text: str):
    raise ValueError(f"code files hold integers only, got {text}")


def from_json(text: str) -> CodeArray:
    try:
        obj = json.loads(text, parse_float=_refuse_float)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"invalid JSON: {exc}") from None
    return from_obj(obj)


def load(path: str) -> CodeArray:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())


def dump(array: CodeArray, path: str) -> None:
    text = to_json(array)  # first, so an array that cannot be saved leaves no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
