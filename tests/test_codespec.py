"""JSON interchange format for code arrays."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgrcode import (
    BUILTIN_VECTORS,
    CgrParams,
    build_code_array,
    derive_offsets,
    dualize,
    pif_factorize,
    puncture,
)
from cgrcode.codespec import FORMAT_VERSION, dump, from_json, from_obj, load, to_json, to_obj
from conftest import builtin_array


def test_object_shape(k2_array):
    obj = to_obj(k2_array)
    assert list(obj) == ["version", "v1", "v2", "offset_vector", "rows"]
    assert obj["version"] == FORMAT_VERSION == "1"
    assert obj["v1"] == 2 and obj["v2"] == 5
    assert obj["offset_vector"] == [0, 1, 2, 2, 4]
    assert obj["rows"][0][0] == {"kind": "info", "vertices": [0]}
    assert obj["rows"][2][2] == {"kind": "parity", "vertices": [4, 0]}


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
    dump(k2_array, path)
    assert load(path) == k2_array


def _mutated(k2_array, mutate):
    obj = json.loads(to_json(k2_array))
    mutate(obj)
    return obj


@pytest.mark.parametrize(
    "mutate",
    [
        lambda o: o.update(version="2"),
        lambda o: o.update(v1=3),
        lambda o: o.update(v2=6),
        lambda o: o["offset_vector"].__setitem__(0, 9),
        lambda o: o["offset_vector"].pop(),
        lambda o: o["rows"].pop(),
        lambda o: o["rows"][0].pop(),
        lambda o: o["rows"][0][0].update(kind="weird"),
        lambda o: o["rows"][0][0].update(vertices=[1, 2]),
        lambda o: o["rows"][2][0].update(vertices=[3]),
        lambda o: o["rows"][0].__setitem__(0, [0]),
        lambda o: o["rows"][0][0].update(vertices=[999]),
        lambda o: o["rows"][2][0].update(vertices=[0, 0]),
        lambda o: o["rows"][0][0].update(vertices=None),
        lambda o: o.update(v1=None),
        lambda o: o.update(offset_vector=None),
        lambda o: o.update(v1=1e400),
        lambda o: o["offset_vector"].__setitem__(0, 1e400),
        lambda o: o.pop("v1"),
        # Non-int numbers whose truncation to int would match the array.
        lambda o: o.update(v1=2.5),
        lambda o: o.update(v1="2"),
        lambda o: o.update(v2=5.0),
        lambda o: o["offset_vector"].__setitem__(4, 4.9),
        lambda o: o["offset_vector"].__setitem__(0, False),
    ],
)
def test_validation_rejects_malformed_objects(k2_array, mutate):
    with pytest.raises(ValueError):
        from_obj(_mutated(k2_array, mutate))


@pytest.mark.parametrize("text", ["[]", "{", "[" * 100_000], ids=["array", "truncated", "deep"])
def test_from_json_rejects_non_objects_bad_text_and_deep_nesting(text):
    with pytest.raises(ValueError):
        from_json(text)


def test_to_json_writes_the_indent_encoder_bytes():
    arrays = [builtin_array(name) for name in BUILTIN_VECTORS] + [
        build_code_array(CgrParams.from_v1(v1), derive_offsets(pif_factorize(v1)))
        for v1 in range(2, 25, 2)
    ]
    for array in arrays:
        # puncture blanks cells to kind "empty" with no vertices.
        for form in (array, dualize(array), puncture(array)):
            assert to_json(form) == json.dumps(to_obj(form), indent=2) + "\n", form.params
