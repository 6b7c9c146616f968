"""Canonical JSON interchange for code arrays.

A code file is a header: {"version": "2", "v1", "v2", "dual",
"offset_vector"}, in that order, written as json.dumps(obj, indent=2) + "\\n".
A CGR array is fixed by v1 and its offset vector, so loading builds it
(build_code_array) and dualizes it when dual is true, both of which return
the header-only built array, and writing reads CodeArray.built and
is_dual(), which a built array stores: a code file loads and writes
without laying out a grid, which is laid out only when CodeArray.masks is
first read.
A version "1" file, which held every cell as a record, is refused with the
commands that regenerate it from its header. Only integers are read.
"""

from __future__ import annotations

import json

from .graph import CgrParams
from .layout import CodeArray, OffsetVector, build_code_array, dualize

FORMAT_VERSION = "2"
_HEADER = ("version", "v1", "v2", "dual", "offset_vector")  # a version 2 file, in order


def to_obj(array: CodeArray) -> dict:
    """The header of a built array or its dual (CodeArray.built). Any other grid
    (punctured, contracted, or built by hand) raises ValueError: no header describes it."""
    if not array.built:
        raise ValueError("only a built array or its dual can be saved as a code file")
    params, dual = array.params, array.is_dual()
    return dict(zip(_HEADER, (FORMAT_VERSION, params.v1, params.v2, dual, list(array.offsets))))


def to_json(array: CodeArray) -> str:
    """The code file of a built array or its dual. Any other grid cannot be
    saved: to_obj raises ValueError."""
    return json.dumps(to_obj(array), indent=2) + "\n"


def from_obj(obj: dict) -> CodeArray:
    """Parse a version 2 code object, the header alone."""
    if not isinstance(obj, dict):
        raise ValueError("code file must be a JSON object")
    version = obj.get("version")
    if version == "1":
        raise ValueError(_version_1_refusal(obj))
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version!r} (expected '2')")
    if obj.keys() != set(_HEADER):
        fields = ", ".join(map(str, obj))
        raise ValueError(f"a version 2 code file holds exactly {', '.join(_HEADER)}; got {fields}")
    try:
        params, offsets = CgrParams(obj["v1"], obj["v2"]), OffsetVector(obj["offset_vector"])
    except TypeError as exc:
        raise ValueError(f"bad header field: {exc}") from None
    if type(obj["dual"]) is not bool:
        raise ValueError(f"dual must be true or false, got {obj['dual']!r}")
    array = build_code_array(params, offsets)  # it and dualize check sizes before any layout
    return dualize(array) if obj["dual"] else array


def _version_1_refusal(obj: dict) -> str:
    """Why a version "1" object is not loaded: a contract document says what
    it is; a version 1 code file names the commands that regenerate it, with
    v1 and the offsets from its header only where they are ints."""
    if "columns" in obj:
        return "this is a contract document (cgrcode contract --format json), not a code file"
    v1, offsets = obj.get("v1"), obj.get("offset_vector")
    if type(v1) is not int or type(offsets) is not list or any(type(a) is not int for a in offsets):
        v1, offsets = "N", ["…"]
    command = f"cgrcode generate --v1 {v1} --offsets {','.join(map(str, offsets))}"
    try:  # a dual's first cell is a parity over v1 + 1 edges, a primal's an info cell
        if len(obj["rows"][0][0]["vertices"]) > 2:
            command += " --output primal.json && cgrcode dual primal.json"
    except (TypeError, LookupError):
        pass
    return f"version 1 code files are no longer read; regenerate this one with: {command}"


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
