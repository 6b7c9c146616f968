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
from .layout import Cell, CodeArray, OffsetVector, build_code_array

FORMAT_VERSION = "1"


def cell_record(cell: Cell) -> dict:
    """The JSON record of one cell: {"kind": ..., "vertices": [...]}."""
    return {"kind": cell.kind, "vertices": list(cell.vertices)}


def to_obj(array: CodeArray) -> dict:
    return {
        "version": FORMAT_VERSION,
        "v1": array.params.v1,
        "v2": array.params.v2,
        "offset_vector": list(array.offsets),
        "rows": [list(map(cell_record, row)) for row in array.rows],
    }


def to_json(array: CodeArray) -> str:
    """The text of json.dumps(to_obj(array), indent=2) + "\\n", joined by
    hand: the document holds only ints and the fixed kind strings, and the
    pure-Python indent encoder spent most of the time."""
    rows = [
        _array(
            [
                '{\n        "kind": "' + cell.kind + '",\n        "vertices": '
                + _array([str(v) for v in cell.vertices], 4) + "\n      }"
                for cell in row
            ],
            2,
        )
        for row in array.rows
    ]
    return (
        '{\n  "version": "' + FORMAT_VERSION + '",\n'
        f'  "v1": {array.params.v1},\n'
        f'  "v2": {array.params.v2},\n'
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


def from_obj(obj: dict) -> CodeArray:
    """Parse a code object; its rows must be the array that v1 and
    offset_vector build, or that array's dual."""
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
    if rows != [list(map(cell_record, row)) for row in array.rows]:
        raise ValueError(f"rows match neither the v1={params.v1} offset_vector array nor its dual")
    return array


def from_json(text: str) -> CodeArray:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"invalid JSON: {exc}") from None
    return from_obj(obj)


def load(path: str) -> CodeArray:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())


def dump(array: CodeArray, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(array))
