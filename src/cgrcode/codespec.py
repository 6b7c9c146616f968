"""Canonical JSON interchange for code arrays.

The format is integers-only with a fixed field order (version, v1, v2,
offset_vector, rows); serializing a deserialized document reproduces it
byte for byte. Cell records are {"kind": "info"|"parity"|"empty",
"vertices": [...]}; dual arrays use the same shape with edge-variable ids.
"""

from __future__ import annotations

import json

from .code import dualize
from .graph import CgrParams
from .layout import KINDS, PARITY, CodeArray, OffsetVector, build_code_array, cell_members

FORMAT_VERSION = "1"


def mask_records(grid, v2: int) -> list[list[dict]]:
    """The JSON records of a mask grid's rows, or of its columns given
    zip(*masks): {"kind": ..., "vertices": cell_members(mask, v2)} per cell."""
    members = [[cell_members(m, v2) for m in line] for line in grid]
    return [[{"kind": KINDS[min(len(ms), 2)], "vertices": ms} for ms in line] for line in members]


def to_obj(array: CodeArray) -> dict:
    return {
        "version": FORMAT_VERSION,
        "v1": array.params.v1,
        "v2": array.params.v2,
        "offset_vector": list(array.offsets),
        "rows": mask_records(array.masks, array.params.v2),
    }


def to_json(array: CodeArray) -> str:
    """The text of json.dumps(to_obj(array), indent=2) + "\\n", joined by
    hand: the document holds only ints and the fixed kind strings, and the
    pure-Python indent encoder spent most of the time."""
    v2 = array.params.v2
    rows = [_array([_record_text(cell_members(m, v2)) for m in row], 2) for row in array.masks]
    return (
        '{\n  "version": "' + FORMAT_VERSION + '",\n'
        f'  "v1": {array.params.v1},\n'
        f'  "v2": {v2},\n'
        f'  "offset_vector": {_array([str(a) for a in array.offsets], 1)},\n'
        f'  "rows": {_array(rows, 1)}\n'
        "}\n"
    )


def _array(items: list[str], depth: int) -> str:
    """A JSON array of encoded items, laid out as indent=2 lays it out at
    nesting depth."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


# A cell record inside rows, and its %-templates for zero, one and two members.
_RECORD = '{\n        "kind": "%s",\n        "vertices": %s\n      }'
_TEMPLATES = tuple(_RECORD % (kind, _array(["%d"] * n, 4)) for n, kind in enumerate(KINDS))


def _record_text(members: list[int]) -> str:
    if len(members) < 3:
        return _TEMPLATES[len(members)] % tuple(members)
    return _RECORD % (PARITY, _array(list(map(str, members)), 4))


def from_obj(obj: dict) -> CodeArray:
    """Parse a code object; its rows must be the array that v1 and
    offset_vector build, or that array's dual. A bool member is refused
    (from_json refuses floats as it parses)."""
    if not isinstance(obj, dict):
        raise ValueError("code file must be a JSON object")
    version = obj.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version!r} (expected {FORMAT_VERSION!r})")
    try:
        params = CgrParams(obj["v1"], obj["v2"])
        offsets = OffsetVector(obj.get("offset_vector", ()))
    except KeyError as missing:
        raise ValueError(f"missing field {missing}") from None
    except TypeError as exc:
        raise ValueError(f"bad header field: {exc}") from None
    offsets.validate_for(params)  # before building, so a huge v1 fails fast
    array = build_code_array(params, offsets)
    rows = obj.get("rows")
    try:  # a dual's first cell is a parity over v1 + 1 edges, a primal's an info cell
        dual = len(rows[0][0]["vertices"]) > 2
    except (TypeError, LookupError):
        dual = False  # malformed: the comparison below rejects it
    if dual:
        array = dualize(array)
    if rows != mask_records(array.masks, params.v2):
        raise ValueError(f"rows match neither the v1={params.v1} offset_vector array nor its dual")
    # Equal records still let a bool pass where it equals an id, 0 or 1. Both
    # lie in ring 0's block, ids 0..v2-1, and each row of a built array or its
    # dual holds bits of that block in every cell or in none.
    block = (1 << params.v2) - 1
    for r, row in enumerate(array.masks):
        if row[0] & block and any(type(v) is not int for cell in rows[r] for v in cell["vertices"]):
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(array))
