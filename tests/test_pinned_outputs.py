"""Outputs pinned byte for byte: the version 1 JSON and the text of built and
dual arrays, the contract, verify, metrics, roundtrip and search commands,
text and --json, and how punctured arrays behave.

The digests were taken from the cell-grid implementation that the mask grid
replaced; any change to them is a change in behaviour, not in layout. The
array digests hash each array's version 1 text (conftest._v1_text, the
layout the version 1 writer gave, checked byte for byte against the
committed version 1 files in test_cli) and its text grid.
"""

from __future__ import annotations

import hashlib

import pytest

from cgrcode import ErasurePattern, decode, dualize, encode, erase, puncture, verify_mds
from cgrcode.cli import main, render_array_text
from cgrcode.codespec import to_json
from conftest import _canonical, _v1_text

ARRAY_DIGESTS = {
    2: "d8e690f1e89973a81728f4f2590034beebb6f466658891962389321561662723",
    4: "57e8eeb373d4bee7d4ae4b9a765835d6f6ffe0816ce088c34e2f4ce76db2b5ca",
    6: "81c599981390d99fc3d57a910a030453ee2f7471b0d434c35db3686fb9f9dd39",
    8: "959efc9150bf8ca2ae9781e3a602407ae71e5eecbbb5ef20eb7190943a7ed233",
    10: "12e72dab4cb351f9f1fa1906abf222b5ac220e1e5e631503e4a0fc486e3e12f3",
    12: "c1df0c31f39533354aca0e8c298013293dbf9d8f93730012449ab3e39318c08f",
    14: "18c042dbccc0881fd5ba62334fccd789b8bb0f1fddb8ef7a68b3ad0dfdf610d2",
    16: "b7492f3f14b13806c7255033dadf0190ae694f5897f6ae3ba0e6c8bf1ee49715",
    18: "256202b66bc027e5caabbbcb1ddbe8c7dbca08e10c7a201b7304331eaa763336",
    20: "9936e2b32916e8dfb24d1a208879fe53894b462ce50be379f93775fec4186a0c",
    22: "3e2d8eb73aea4e72f13053457af0d380b08957265f9e20fd90847a20a0dbf56f",
    24: "004eedc9abc59ffe973c0d5dc70225e0701a3380a5e7e77c32df02196a6ea7af",
}

COMMAND_DIGESTS = {
    "contract": "aac01f22f30e66a11d5d82e583eb0e199139a0e72dd6728f3c56b9de052da0c1",
    "verify --json --builtin all": (
        "e957ab4d0bdbc7baa594e51b279ef20cac784e759538bce81d6309bb1d252c6f"
    ),
    "verify --builtin all": "f9173c0a7b4de225af585a8f57d5dad1528e2f50d18f15dcf2fbf722b45dceb0",
    "metrics --v1-range 2:12": "a33af1225bb8355210a5ad298c22b241a33ffe0115e6d985032f8d92a65065ca",
    "metrics --v1-range 2:12 --json": (
        "39534bacf4aeae3095d9f2500b7e8e2e89b12767248dec40944b57d4b67c24c4"
    ),
    "roundtrip --erase 0,2 --data random:7": (
        "6277d2bd0b57073ff4acb2668b7542df395de96dbfdf35b782f75e62f53e70d1"
    ),
    "roundtrip --erase 0,2 --data random:7 --json": (
        "70f7dde2ed288c0dccc0a3bd66a15a94982be381e5d17701a8839dbd749c7261"
    ),
    "search --v1 2 --free-prefix": (
        "e928a006d4b2e766f9177d673853dd8ac8486063db87770339710c307b9e86c2"
    ),
    "search --v1 2 --free-prefix --json": (
        "8881f4df7bad9448bd38c480363f32ca630f92311af4252abfc80c88d63c5c17"
    ),
    "search --v1 4 --strategy random --seed 1 --max-trials 30000": (
        "72e7744c72bb869e1fe29474b0434bf572edf7e9d37c97accfa18d3942abfd1a"
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("v1", sorted(ARRAY_DIGESTS))
def test_primal_and_dual_json_and_text_are_pinned(v1):
    primal = _canonical(v1)
    dual = dualize(primal)
    text = "".join(_v1_text(a) + render_array_text(a) for a in (primal, dual))
    assert _sha256(text) == ARRAY_DIGESTS[v1]


def _command_output(capsys, argv) -> str:
    main(argv)
    captured = capsys.readouterr()
    assert not captured.err, captured.err
    return captured.out


# Commands that read a code file run over the canonical files of these sizes.
FILE_COMMAND_SIZES = {"contract": range(2, 25, 2), "roundtrip": range(2, 13, 2)}


@pytest.mark.parametrize("command", sorted(COMMAND_DIGESTS))
def test_command_outputs_are_pinned(command, capsys, tmp_path):
    name, *flags = command.split()
    if name in FILE_COMMAND_SIZES:
        out = []
        for v1 in FILE_COMMAND_SIZES[name]:
            path = tmp_path / f"v{v1}.json"
            path.write_text(to_json(_canonical(v1)), encoding="utf-8")
            out.append(_command_output(capsys, [name, str(path), *flags]))
        text = "".join(out)
    else:
        text = _command_output(capsys, command.split())
    assert _sha256(text) == COMMAND_DIGESTS[command]


@pytest.mark.parametrize("v1", [2, 4, 6])
def test_punctured_array_round_trips_with_nothing_erased(v1):
    punctured = puncture(_canonical(v1))
    payload = {v: 3 * v + 1 for v in punctured.info_ids()}
    pattern = ErasurePattern.of([])
    codeword = encode(punctured, payload)
    assert decode(punctured, erase(codeword, pattern), pattern).recovered == payload


def test_punctured_array_is_not_mds():
    result = verify_mds(puncture(_canonical(4)))
    assert not result.is_mds
    assert sorted(result.witness.erased_columns) == [1, 3, 4, 5, 6]
    assert result.patterns_checked == 2


@pytest.mark.parametrize("v1", [2, 4, 6])
def test_dualize_twice_restores_a_punctured_array(v1):
    punctured = puncture(_canonical(v1))
    assert dualize(dualize(punctured)) == punctured
