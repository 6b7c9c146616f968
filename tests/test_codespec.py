"""JSON interchange format for code arrays."""

from __future__ import annotations

import importlib
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgrcode import (
    BUILTIN_VECTORS,
    CgrParams,
    CodeArray,
    build_code_array,
    contract,
    derive_offsets,
    dualize,
    pif_factorize,
    puncture,
)
from cgrcode.codespec import (
    FORMAT_VERSION,
    from_json,
    from_obj,
    load,
    to_json,
    to_obj,
)
from cgrcode.cli import mask_records
from conftest import DATA, V1_FILES, V2_MUTATIONS, _canonical, _v1_text, builtin_array, no_layout


def test_object_shape(k2_array):
    obj = to_obj(k2_array)
    assert list(obj) == ["version", "v1", "v2", "dual", "offset_vector"]
    assert obj["version"] == FORMAT_VERSION == "2"
    assert obj["v1"] == 2 and obj["v2"] == 5 and obj["dual"] is False
    assert obj["offset_vector"] == [0, 1, 2, 2, 4]
    assert to_obj(dualize(k2_array)) == dict(obj, dual=True)
    v1_obj = json.loads(_v1_text(k2_array))
    assert list(v1_obj) == ["version", "v1", "v2", "offset_vector", "rows"]
    assert v1_obj["rows"][0][0] == {"kind": "info", "vertices": [0]}
    assert v1_obj["rows"][2][2] == {"kind": "parity", "vertices": [4, 0]}


# k2_c5 and its dual as version 2 code files, byte for byte.
K2_V2_TEXT = """\
{
  "version": "2",
  "v1": 2,
  "v2": 5,
  "dual": false,
  "offset_vector": [
    0,
    1,
    2,
    2,
    4
  ]
}
"""
K2_DUAL_V2_TEXT = K2_V2_TEXT.replace('"dual": false', '"dual": true')


def test_version_2_texts_are_pinned(k2_array):
    assert to_json(k2_array) == K2_V2_TEXT
    assert to_json(dualize(k2_array)) == K2_DUAL_V2_TEXT
    assert from_json(K2_V2_TEXT) == k2_array
    assert from_json(K2_DUAL_V2_TEXT) == dualize(k2_array)


@pytest.mark.parametrize("v1", range(2, 25, 2))
def test_header_round_trips_primal_and_dual_at_every_size(v1):
    primal = _canonical(v1)
    for form in (primal, dualize(primal)):
        text = to_json(form)
        assert from_json(text) == form
        assert to_json(from_json(text)) == text


def _committed_v1_arrays():
    k2, v8 = builtin_array("k2_c5"), _canonical(8)
    return dict(zip(V1_FILES, (k2, dualize(k2), v8, dualize(v8))))


@pytest.mark.parametrize("name", V1_FILES)
def test_committed_version_1_files_load_and_are_reproduced(name):
    # _v1_text stands for the version 1 writer: it must give the committed
    # files byte for byte. Loading one stops at its header and names exactly
    # the commands that rebuild the array it describes.
    array = _committed_v1_arrays()[name]
    assert _v1_text(array) == (DATA / name).read_text(encoding="utf-8")
    command = f"cgrcode generate --v1 {array.params.v1} --offsets {','.join(map(str, array.offsets))}"
    if array.is_dual():
        command += " --output primal.json && cgrcode dual primal.json"
    with pytest.raises(ValueError) as refused:
        load(DATA / name)
    assert str(refused.value) == (
        f"version 1 code files are no longer read; regenerate this one with: {command}"
    )


@pytest.mark.parametrize(
    "mutate, dual",
    [
        (lambda o: o.update(v1=None), False),
        (lambda o: o.update(v1=True), False),
        (lambda o: o["offset_vector"].__setitem__(0, "3"), False),
        (lambda o: o["offset_vector"].__setitem__(0, "3"), True),
    ],
    ids=["v1 null", "v1 true", "offset '3'", "dual"],
)
def test_a_version_1_header_of_non_ints_names_placeholders(mutate, dual):
    # The refusal copies v1 and the offsets into the command it names only
    # when all of them are ints; else it names N and an ellipsis, and a dual
    # (first cell a parity over v1 + 1 edges) still adds the dual step.
    k2 = builtin_array("k2_c5")
    obj = json.loads(_v1_text(dualize(k2) if dual else k2))
    mutate(obj)
    command = "cgrcode generate --v1 N --offsets …"
    if dual:
        command += " --output primal.json && cgrcode dual primal.json"
    with pytest.raises(ValueError) as refused:
        from_obj(obj)
    assert str(refused.value) == (
        f"version 1 code files are no longer read; regenerate this one with: {command}"
    )


@pytest.mark.parametrize("mutate", V2_MUTATIONS)
def test_version_2_validation_rejects_malformed_headers(k2_array, mutate):
    obj = to_obj(k2_array)
    mutate(obj)
    with pytest.raises(ValueError):
        from_obj(obj)


@pytest.mark.parametrize("version", ["3", "0", 2, None])
def test_an_unknown_version_names_the_one_accepted_version(k2_array, version):
    with pytest.raises(ValueError, match=r"unsupported format version .* \(expected '2'\)$"):
        from_obj(dict(to_obj(k2_array), version=version))


def test_to_json_refuses_arrays_no_header_describes(k2_array):
    flipped = [list(row) for row in k2_array.masks]
    flipped[2][0] ^= 1 << 9
    hand_built = CodeArray(k2_array.params, k2_array.offsets, tuple(map(tuple, flipped)))
    for array in (puncture(k2_array), contract(k2_array), hand_built):
        with pytest.raises(ValueError, match="only a built array or its dual"):
            to_json(array)


def test_to_json_refuses_offsets_that_are_no_vector_for_the_params(k2_array):
    # Such a grid is no built array: the one "only a built array" error, not
    # a TypeError from iterating None or the offset-length error.
    for offsets in (None, k2_array.offsets[:-1]):
        grid = CodeArray(k2_array.params, offsets, k2_array.masks)
        with pytest.raises(ValueError, match="only a built array or its dual"):
            to_json(grid)


def _peak_bytes(make):
    tracemalloc.start()
    try:
        result = make()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_to_json_of_a_built_array_lays_nothing_out(monkeypatch):
    # A built array is its header until its masks are read: building,
    # dualizing, writing and loading one lay out no grid, and to_json peaks
    # far below one layout (a first read of masks) at v1 = 24.
    params = CgrParams.from_v1(24)
    offsets = derive_offsets(pif_factorize(24))
    _, layout_peak = _peak_bytes(lambda: build_code_array(params, offsets).masks)
    layout = importlib.import_module("cgrcode.layout")
    no_layout(monkeypatch, layout, ("map_unshifted", "bit_rows"), "laid out a grid for a built array")
    array = build_code_array(params, offsets)
    text, write_peak = _peak_bytes(lambda: to_json(array))
    assert write_peak < layout_peak / 10, (write_peak, layout_peak)
    dual = dualize(array)
    assert json.loads(to_json(dual)) == dict(json.loads(text), dual=True)
    loaded, loaded_dual, again = from_json(text), from_json(to_json(dual)), dualize(dual)
    assert to_json(loaded) == to_json(again) == text and to_json(loaded_dual) == to_json(dual)
    monkeypatch.undo()  # comparing arrays reads their masks
    assert loaded == again == array and loaded_dual == dual


def test_json_round_trip_is_byte_stable(k2_array):
    text = to_json(k2_array)
    assert text.endswith("\n")
    assert from_json(text) == k2_array
    assert to_json(from_json(text)) == text


@pytest.mark.parametrize("name", ["k4_c7_a", "k6_c9_a", "k8_c11"])
def test_json_round_trip_other_sizes(name):
    array = builtin_array(name)
    text = to_json(array)
    assert from_json(text) == array
    assert to_json(from_json(text)) == text


def test_dual_arrays_serialize(k2_array):
    dual = dualize(k2_array)
    text = to_json(dual)
    restored = from_json(text)
    assert restored == dual
    assert restored.is_dual()


@pytest.mark.parametrize("v1", [2, 4, 6])
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_dualize_is_an_involution_that_serializes(v1, data):
    params = CgrParams.from_v1(v1)
    vector = data.draw(
        st.lists(
            st.integers(0, params.v2 - 1), min_size=params.num_rows, max_size=params.num_rows
        ),
        label="offset_vector",
    )
    array = build_code_array(params, vector)
    dual = dualize(array)
    assert dual.is_dual()
    assert dualize(dual) == array
    assert dualize(dualize(dual)) == dual
    punctured = puncture(array)
    assert dualize(dualize(punctured)) == punctured
    assert from_json(to_json(dual)) == dual


def test_file_round_trip(tmp_path, k2_array):
    path = tmp_path / "code.json"
    path.write_text(to_json(k2_array), encoding="utf-8")
    assert load(path) == k2_array


@pytest.mark.parametrize("mutate", V2_MUTATIONS)
def test_validation_rejects_malformed_objects(k2_array, mutate):
    # The dual's header is refused under every mutation the primal's is.
    obj = to_obj(dualize(k2_array))
    mutate(obj)
    with pytest.raises(ValueError):
        from_obj(obj)


# Row mutations of version 1 objects of k2_c5. from_obj refuses a version 1
# object at its header, before it reads any row, so each is refused with the
# unmutated object's line.
V1_ROW_MUTATIONS = [
    lambda o: o["rows"].pop(),
    lambda o: o["rows"][0].pop(),
    lambda o: o["rows"][0][0].update(kind="weird"),
    lambda o: o["rows"][0][0].update(vertices=[1, 2]),
    lambda o: o["rows"][2][0].update(vertices=[3]),
    lambda o: o["rows"][0].__setitem__(0, [0]),
    lambda o: o["rows"][0][0].update(vertices=[999]),
    lambda o: o["rows"][2][0].update(vertices=[0, 0]),
    lambda o: o["rows"][0][0].update(vertices=None),
    lambda o: o["rows"][2][2].update(vertices=[0, 4]),  # the wrap-around edge is [4, 0]
    lambda o: o["rows"][0][1].update(vertices=[True]),
    lambda o: o["rows"][0][0].update(vertices=[False]),
    lambda o: o["rows"][2][2].update(vertices=[4, False]),
]


def _refusal(obj) -> str:
    with pytest.raises(ValueError) as refused:
        from_obj(obj)
    return str(refused.value)


def _assert_v1_rows_are_never_read(form, mutate):
    text = _v1_text(form)
    expected = _refusal(json.loads(text))
    assert expected.startswith("version 1 code files are no longer read")
    obj = json.loads(text)
    mutate(obj)
    assert _refusal(obj) == expected


def test_a_version_1_object_is_refused_whatever_its_rows_hold(k2_array):
    for mutate in V1_ROW_MUTATIONS:
        _assert_v1_rows_are_never_read(k2_array, mutate)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda o: o["rows"][0][0]["vertices"].reverse(),
        lambda o: o["rows"][1][3]["vertices"].append(o["rows"][1][3]["vertices"].pop(0)),
    ],
    ids=["reversed", "rotated"],
)
def test_validation_rejects_a_dual_parity_in_the_wrong_order(k2_array, mutate):
    # A version 1 dual with a parity's members out of order is refused at its
    # header, with the line of the unmutated dual.
    _assert_v1_rows_are_never_read(dualize(k2_array), mutate)


def test_a_bool_is_refused_wherever_it_equals_an_offset():
    # An entry compares equal with a bool in place of offset 0 or 1, so
    # from_obj checks the type of every offset entry.
    for name in BUILTIN_VECTORS:
        for form in (builtin_array(name), dualize(builtin_array(name))):
            offsets = to_obj(form)["offset_vector"]
            spots = [i for i, a in enumerate(offsets) if a in (0, 1)]
            assert len(spots) >= 2
            for i in spots:
                obj = to_obj(form)
                obj["offset_vector"][i] = bool(offsets[i])
                with pytest.raises(ValueError):
                    from_obj(obj)


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        "{",
        "[" * 100_000,
        K2_V2_TEXT.replace("    1,\n", "    true,\n", 1),
        K2_V2_TEXT.replace("    0,\n", "    0.0,\n", 1),
    ],
    ids=["array", "truncated", "deep", "true", "0.0"],
)
def test_from_json_rejects_non_objects_bad_text_and_deep_nesting(text):
    with pytest.raises(ValueError):
        from_json(text)


def test_to_json_writes_the_indent_encoder_bytes():
    arrays = [builtin_array(name) for name in BUILTIN_VECTORS] + [
        _canonical(v1) for v1 in range(2, 25, 2)
    ]
    for array in arrays:
        for form in (array, dualize(array)):
            assert to_json(form) == json.dumps(to_obj(form), indent=2) + "\n", form.params
        with pytest.raises(ValueError):  # no header describes a punctured array
            to_json(puncture(array))


def _kind(cell) -> str:
    return "parity" if cell.is_parity else "info" if cell.vertices else "empty"


def test_mask_records_match_the_cell_view():
    arrays = [builtin_array(name) for name in BUILTIN_VECTORS] + [
        _canonical(v1) for v1 in range(2, 25, 2)
    ]
    for array in arrays:
        # puncture blanks cells to kind "empty" with no vertices.
        for form in (array, dualize(array), puncture(array), contract(array)):
            view = [[{"kind": _kind(c), "vertices": list(c.vertices)} for c in row] for row in form.rows]
            assert mask_records(form.masks, form.params.v2) == view, form.params
