"""Command-line interface: subcommands, formats, exit codes."""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
import time

import pytest

from cgrcode import (
    BUILTIN_VECTORS,
    CgrParams,
    ErasurePattern,
    SearchSpec,
    build_code_array,
    codespec,
    decode,
    decode_complexity,
    derive_offsets,
    encode,
    erase,
    pif_factorize,
    search,
    verify_dual_mds,
)
from cgrcode.cli import _measured_decode_complexity, main
from conftest import DATA, V1_FILES, V2_MUTATIONS, _v1_text, no_layout

K2_TEXT = (
    "offset vector: 0,1,2,2,4\n"
    "0\t1\t2\t3\t4\n"
    "6\t7\t8\t9\t5\n"
    "2 ⊕ 3\t3 ⊕ 4\t4 ⊕ 0\t0 ⊕ 1\t1 ⊕ 2\n"
    "7 ⊕ 8\t8 ⊕ 9\t9 ⊕ 5\t5 ⊕ 6\t6 ⊕ 7\n"
    "4 ⊕ 9\t0 ⊕ 5\t1 ⊕ 6\t2 ⊕ 7\t3 ⊕ 8\n"
)


@pytest.fixture
def k2_file(tmp_path):
    path = tmp_path / "k2.json"
    assert main(["generate", "--builtin", "k2_c5", "--output", str(path)]) == 0
    return str(path)


def test_generate_text(capsys):
    assert main(["generate", "--v1", "2", "--pif", "--format", "text"]) == 0
    assert capsys.readouterr().out == K2_TEXT


def test_generate_json_default(capsys):
    assert main(["generate", "--v1", "2", "--pif"]) == 0
    out = capsys.readouterr().out
    array = codespec.from_json(out)
    assert tuple(array.offsets) == (0, 1, 2, 2, 4)


def test_generate_explicit_offsets(capsys):
    assert main(["generate", "--v1", "2", "--offsets", "0,1,2,2,4", "--format", "text"]) == 0
    assert capsys.readouterr().out == K2_TEXT


def test_generate_with_pi_and_placement(capsys):
    assert main(
        ["generate", "--v1", "4", "--pif", "--pi", "1,3,0,2", "--placement", "0,1,2,3,inf",
         "--format", "text"]
    ) == 0
    first_line = capsys.readouterr().out.splitlines()[0]
    assert first_line == "offset vector: 0,1,2,3,4,4,4,4,2,3,6,6,0,1"


def test_generate_output_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main(["generate", "--builtin", "k2_c5", "--output", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert codespec.load(str(path)).params.v1 == 2


def test_generate_usage_errors(capsys):
    assert main(["generate", "--offsets", "0,1,2,2,4"]) == 2  # missing --v1
    assert main(["generate", "--builtin", "nope"]) == 2
    assert main(["generate", "--v1", "3", "--pif"]) == 2
    err = capsys.readouterr().err
    assert "v1 must be even" in err


def test_verify_builtin_all(capsys):
    assert main(["verify", "--builtin", "all"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 9
    assert lines[0] == "k2_c5: mds=true dual_mds=true"
    assert all("mds=true" in line and "dual_mds=true" in line for line in lines)


def test_verify_json_output(capsys):
    assert main(["verify", "--builtin", "k2_c5", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    (entry,) = payload["results"]
    assert entry["name"] == "k2_c5"
    assert entry["mds"] and entry["dual_mds"]
    assert entry["patterns_checked"] == 10


def test_verify_file(k2_file, capsys):
    assert main(["verify", k2_file]) == 0
    assert "mds=true dual_mds=true" in capsys.readouterr().out


def test_verify_reports_failure(tmp_path, capsys):
    path = tmp_path / "zeros.json"
    assert main(["generate", "--v1", "2", "--offsets", "0,0,0,0,0", "--output", str(path)]) == 0
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "mds=false" in out
    assert "witness=2,3,4" in out


@pytest.mark.parametrize(
    "generate_args",
    [["--v1", "2", "--offsets", "0,0,0,0,0"], ["--v1", "4", "--pi", "0,1,3,2"]],
)
def test_verify_dual_fields_match_verify_dual_mds(generate_args, tmp_path, capsys):
    # verify reads the dual verdict off its one primal sweep; on a failing
    # array the dual witness is the failing survivor pair, as verify_dual_mds
    # reports it.
    path = tmp_path / "code.json"
    assert main(["generate", *generate_args, "--output", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(path), "--json"]) == 1
    (entry,) = json.loads(capsys.readouterr().out)["results"]
    dual = verify_dual_mds(codespec.from_json(path.read_text()))
    assert entry["dual_mds"] is False and dual.is_mds is False
    assert entry["dual_witness"] == sorted(dual.witness.erased_columns)
    assert entry["dual_witness"] != entry["witness"]
    assert entry["dual_patterns_checked"] == dual.patterns_checked


def test_verify_usage_errors(k2_file, tmp_path):
    assert main(["verify"]) == 2
    assert main(["verify", k2_file, "--builtin", "k2_c5"]) == 2
    dual_path = tmp_path / "dual.json"
    assert main(["dual", k2_file, "--output", str(dual_path)]) == 0
    assert main(["verify", str(dual_path)]) == 2  # dual file rejected


def test_roundtrip_reports_recovery(k2_file, capsys):
    assert main(["roundtrip", k2_file, "--erase", "0,1,2", "--data", "random:7"]) == 0
    assert capsys.readouterr().out == (
        "match: true\n"
        "peeling_sufficed: true\n"
        "xor_count: 15\n"
        "elimination_xor_count: 0\n"
        "decode_complexity: 1/2\n"
    )


def test_roundtrip_hex_data(k2_file, capsys):
    assert main(["roundtrip", k2_file, "--erase", "4", "--data", "hex:3ff", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["match"] is True
    assert payload["erased_columns"] == [4]
    assert payload["decode_complexity"] == "1/2"


def test_roundtrip_over_erasure(k2_file, capsys):
    assert main(["roundtrip", k2_file, "--erase", "0,1,2,3"]) == 1
    assert "leaves rank" in capsys.readouterr().err


def test_roundtrip_bad_data_spec(k2_file, capsys):
    for spec in ["decimal:5", "random(5", "random:5)"]:
        assert main(["roundtrip", k2_file, "--data", spec]) == 2, spec
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, spec


def test_roundtrip_reads_both_seed_forms(k2_file):
    for spec in ["random:5", "random(5)", "random:-5", "random(-5)"]:
        assert main(["roundtrip", k2_file, "--data", spec]) == 0, spec


def test_roundtrip_rejects_corrupt_parity_cell(tmp_path, capsys):
    # A version 1 file is refused at its header, so a corrupt parity cell in
    # its rows gives the same one error line as the intact file.
    with open(DATA / "k2_c5_v1.json", encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["rows"][2][0]["vertices"] = [0, 0]
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text(json.dumps(obj), encoding="utf-8")
    intact = _one_error_line(["roundtrip", str(DATA / "k2_c5_v1.json")], capsys)
    assert _one_error_line(["roundtrip", str(corrupt)], capsys) == intact


def test_roundtrip_rejects_hex_data_wider_than_the_code(k2_file, capsys):
    assert main(["roundtrip", k2_file, "--data", "hex:3ff"]) == 0  # all 10 info bits
    capsys.readouterr()
    assert main(["roundtrip", k2_file, "--data", "hex:fffffffffffff"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["metrics", "--v1-range", "4:2"],
        ["search", "--v1", "2", "--strategy", "random", "--max-trials", "-5"],
        ["search", "--v1", "2", "--stop-after", "-1"],
        ["generate", "--v1", "26"],
        ["generate", "--builtin", "k2_c5", "--pi", "1,0"],
        ["generate", "--v1", "2", "--offsets", "0,1,2,2,4", "--placement", "0,1,inf"],
        ["generate", "--v1", "4", "--pi", ""],
        ["generate", "--v1", "4", "--placement", ""],
        ["generate", "--builtin", "k2_c5", "--v1", "4"],
        ["generate", "--pif"],
        ["verify", "--builtin", "nope"],
        # Flags the strategy would ignore, and a negative budget.
        ["search", "--v1", "2", "--strategy", "random", "--budget", "5"],
        ["search", "--v1", "2", "--max-trials", "7"],
        ["search", "--v1", "2", "--seed", "4"],
        ["search", "--v1", "2", "--budget", "-1"],
    ],
)
def test_edge_cases_are_usage_errors(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "header",
    [
        {"v1": 2.5},
        {"v1": "2"},
        {"v1": False},
        {"v2": 5.0},
        {"offset_vector": [0, 1, 2, 2, 4.9]},
        {"offset_vector": [False, 1, 2, 2, 4]},
    ],
)
def test_non_integer_header_is_a_usage_error(k2_file, tmp_path, capsys, header):
    with open(k2_file, encoding="utf-8") as fh:
        obj = json.load(fh)
    obj.update(header)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "roundtrip", "dual", "contract"])
def test_too_deeply_nested_code_file_is_a_usage_error(command, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_metrics_table(capsys):
    assert main(["metrics"]) == 0
    assert capsys.readouterr().out == (
        "v1=2 v2=5 code=(5,2) update_complexity=3/10 decode_complexity=1/2\n"
        "v1=4 v2=7 code=(7,2) update_complexity=5/28 decode_complexity=1/2\n"
        "v1=6 v2=9 code=(9,2) update_complexity=7/54 decode_complexity=1/2\n"
        "v1=8 v2=11 code=(11,2) update_complexity=9/88 decode_complexity=1/2\n"
        "v1=10 v2=13 code=(13,2) update_complexity=11/130 decode_complexity=1/2\n"
    )


def test_metrics_prints_finished_rows_before_a_failing_size(capsys):
    assert main(["metrics", "--v1-range", "2:26"]) == 2  # no factorization for v1 = 26
    captured = capsys.readouterr()
    assert [line.split()[0] for line in captured.out.splitlines()] == [
        f"v1={v1}" for v1 in range(2, 25, 2)
    ]
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_metrics_range_and_json(capsys):
    assert main(["metrics", "--v1-range", "2:4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["v1"] for row in payload["metrics"]] == [2, 4]
    assert main(["metrics", "--v1-range", "3:4"]) == 2


def test_dual_round_trips_through_cli(k2_file, tmp_path, capsys):
    dual_path = tmp_path / "dual.json"
    assert main(["dual", k2_file, "--output", str(dual_path)]) == 0
    assert codespec.load(str(dual_path)).is_dual()
    assert main(["dual", str(dual_path)]) == 0
    restored = capsys.readouterr().out
    with open(k2_file, encoding="utf-8") as fh:
        assert restored == fh.read()


@pytest.mark.parametrize("mutate", V2_MUTATIONS)
def test_bad_version_2_header_is_a_usage_error(mutate, k2_file, tmp_path, capsys):
    with open(k2_file, encoding="utf-8") as fh:
        obj = json.load(fh)
    mutate(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    assert main(["dual", str(path)]) == 2  # dual takes a primal or a dual file
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def _one_error_line(argv, capsys) -> str:
    """The single error: line of a command that must exit 2 and print nothing else."""
    capsys.readouterr()
    assert main(argv) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err
    return captured.err


CODE_FILE_COMMANDS = ("verify", "roundtrip", "dual", "contract")


@pytest.mark.parametrize("name", V1_FILES)
def test_version_1_files_work_in_every_command(name, tmp_path, monkeypatch, capsys):
    # Every command refuses the file with the same line; running the commands
    # it names rebuilds the array whose version 1 text is the committed file.
    path = str(DATA / name)
    lines = {_one_error_line([command, path], capsys) for command in CODE_FILE_COMMANDS}
    assert len(lines) == 1
    commands = lines.pop().rstrip("\n").split("regenerate this one with: ")[1].split(" && ")
    assert len(commands) == (2 if "dual" in name else 1)
    monkeypatch.chdir(tmp_path)
    for command in commands:
        program, *argv = command.split()
        assert program == "cgrcode" and main(argv) == 0, command
    regenerated = codespec.from_json(capsys.readouterr().out)
    assert _v1_text(regenerated) == (DATA / name).read_text(encoding="utf-8")


def test_a_contract_document_is_refused_as_one(k2_file, tmp_path, capsys):
    document = tmp_path / "contract.json"
    assert main(["contract", k2_file, "--output", str(document)]) == 0
    for command in CODE_FILE_COMMANDS:
        line = _one_error_line([command, str(document)], capsys)
        assert "contract document" in line and "offset vector length" not in line


def test_dual_text(k2_file, capsys):
    assert main(["dual", k2_file, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "offset vector: 0,1,2,2,4"
    assert out.splitlines()[1] == "0 ⊕ 4 ⊕ 10\t0 ⊕ 1 ⊕ 11\t1 ⊕ 2 ⊕ 12\t2 ⊕ 3 ⊕ 13\t3 ⊕ 4 ⊕ 14"
    assert out.splitlines()[5] == "14\t10\t11\t12\t13"


def test_contract_text_and_exit(tmp_path, capsys):
    path = tmp_path / "k4.json"
    assert main(
        ["generate", "--v1", "4", "--offsets", "0,1,2,3,4,4,4,4,2,3,6,6,0,1", "--output", str(path)]
    ) == 0
    assert main(["contract", str(path), "--order", "0,6,5,4,1", "--format", "text"]) == 0
    assert capsys.readouterr().out == (
        "source columns: 0,6,5,4,1\n"
        "0\t7\t14\t21\t0 ⊕ 21\n"
        "7 ⊕ 21\t14 ⊕ 21\t0 ⊕ 7\t0 ⊕ 14\t7 ⊕ 14\n"
        "mds: true\n"
    )


def test_contract_json(k2_file, capsys):
    assert main(["contract", k2_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["source_columns"] == [0, 1, 4]
    assert payload["mds"] is True
    assert payload["columns"][1] == [{"kind": "parity", "vertices": [0, 5]}]


def test_contract_empty_order_is_a_usage_error(k2_file, capsys):
    # An empty --order is an order that permutes no column, not the default.
    assert main(["contract", k2_file, "--order", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: column_order must permute the nonempty parent columns [0, 1, 4], got []\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["contract", "K2", "--order", "1,,2"], "bad --order '1,,2': '' is not an integer"),
        (["roundtrip", "K2", "--erase", "1,a"], "bad --erase '1,a': 'a' is not an integer"),
        (["roundtrip", "K2", "--data", "hex:zz"], "bad --data 'hex:zz': 'zz' is not a hex integer"),
        (
            ["generate", "--v1", "2", "--offsets", "0,1,2,,4"],
            "bad --offsets '0,1,2,,4': '' is not an integer",
        ),
        (["generate", "--v1", "4", "--pi", "0,1,x,2"], "bad --pi '0,1,x,2': 'x' is not an integer"),
        (
            ["generate", "--v1", "4", "--placement", "0,1,2,3,x"],
            "bad --placement '0,1,2,3,x': 'x' is not an integer",
        ),
        (["metrics", "--v1-range", "4:2:1"], "bad --v1-range '4:2:1': '2:1' is not an integer"),
    ],
    ids=["order", "erase", "data", "offsets", "pi", "placement", "v1-range"],
)
def test_malformed_integer_lists_name_the_flag_and_entry(argv, message, k2_file, capsys):
    argv = [k2_file if arg == "K2" else arg for arg in argv]
    assert _one_error_line(argv, capsys) == f"error: {message}\n"


def test_contract_shape_error(tmp_path, capsys):
    path = tmp_path / "zeros.json"
    assert main(["generate", "--v1", "2", "--offsets", "0,0,0,0,0", "--output", str(path)]) == 0
    assert main(["contract", str(path)]) == 1
    assert "expected 3 columns" in capsys.readouterr().err


def test_search_fixed_prefix(capsys):
    assert main(["search", "--v1", "2"]) == 0
    assert capsys.readouterr().out == "trials: 5\nhits: 1\nspace: 5\nvector: 0,1,2,2,4\n"


def test_search_json(capsys):
    assert main(["search", "--v1", "2", "--free-prefix", "--stop-after", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["trials"], payload["hits"], payload["space"]) == (3125, 50, 3125)
    assert 0 < payload["nodes"] < payload["trials"]
    assert len(payload["vectors"]) == 2


def test_search_budget_exceeded(capsys):
    assert main(["search", "--v1", "4", "--free-prefix"]) == 2
    assert "exceeds budget" in capsys.readouterr().err


def test_search_checks_the_budget_before_laying_out_the_code(capsys):
    # 83^3160 has over 6,000 digits: the message names it by base and exponent.
    assert main(["search", "--v1", "80"]) == 2
    err = capsys.readouterr().err
    assert err == "error: exhaustive space 83^3160 exceeds budget 10000000\n"


def test_search_budget_fails_fast_on_a_huge_space(capsys):
    start = time.perf_counter()
    assert main(["search", "--v1", "3000"]) == 2
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_random_search_fails_fast_on_a_huge_size(capsys):
    assert main(["search", "--v1", "3000", "--strategy", "random", "--max-trials", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--v1", "196", "--offsets", "0"],
        ["generate", "--v1", "196"],
        ["generate", "--v1", "3000"],
        ["metrics", "--v1-range", "196:196"],
        ["verify", "HEADER"],
    ],
)
def test_oversize_grids_fail_fast(argv, tmp_path, capsys):
    # Each would lay out a grid of about 19 GB (v1 = 196) or far more.
    if argv[-1] == "HEADER":
        path = tmp_path / "big.json"
        header = {"version": "2", "v1": 196, "v2": 199, "dual": False, "offset_vector": [0] * 19502}
        path.write_text(json.dumps(header), encoding="utf-8")
        argv = ["verify", str(path)]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_oversize_duals_fail_fast(monkeypatch, tmp_path, capsys):
    # v1 = 60 builds, but its dual is over MAX_LAYOUT_BITS: dual of the primal
    # file and verify of a dual header are refused before the dual's layout.
    primal, dual = tmp_path / "p60.json", tmp_path / "d60.json"
    assert main(["generate", "--v1", "60", "--output", str(primal)]) == 0
    dual.write_text(json.dumps(dict(json.loads(primal.read_text()), dual=True)), encoding="utf-8")
    layout = importlib.import_module("cgrcode.layout")
    primal_rows = layout.bit_rows

    def primal_layout_only(nbits, v2):
        assert nbits <= 60 * 63, "laid out a dual over the bound"
        return primal_rows(nbits, v2)

    monkeypatch.setattr(layout, "bit_rows", primal_layout_only)
    for argv in (["dual", str(primal)], ["verify", str(dual)]):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a v1 = 60 dual lays out over 12000000000 mask bits\n"


def test_code_file_commands_read_headers_without_layout(monkeypatch, tmp_path, capsys):
    # A built array is its header until a command reads its grid: generate
    # at v1 = 100 (a 0.5 GB grid) writes its header, and at v1 = 58 (the
    # largest dual under the bound, 0.8 GB) verify, roundtrip and contract
    # refuse the dual header, and dual writes the primal's, laying out nothing.
    layout = importlib.import_module("cgrcode.layout")
    no_layout(monkeypatch, layout, ("bit_rows", "map_unshifted"), "laid out a grid")
    big = tmp_path / "p100.json"
    assert main(["generate", "--v1", "100", "--output", str(big)]) == 0
    assert json.loads(big.read_text())["v1"] == 100
    primal, dual, back = (str(tmp_path / name) for name in ("p58.json", "d58.json", "back.json"))
    assert main(["generate", "--v1", "58", "--output", primal]) == 0
    with open(primal, encoding="utf-8") as fh:
        primal_text = fh.read()
    with open(dual, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(dict(json.loads(primal_text), dual=True), indent=2) + "\n")
    for argv in (["verify", dual], ["roundtrip", dual, "--erase", "0,1"], ["contract", dual]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {dual} holds a dual array; this command needs a primal one\n"
    assert main(["dual", dual, "--output", back]) == 0
    with open(back, encoding="utf-8") as fh:
        assert fh.read() == primal_text


def test_verify_lays_out_no_grid(monkeypatch, tmp_path, capsys):
    # verify reads a code file's header, and each built-in vector's, with
    # no grid laid out: v1 = 100 is a 0.5 GB grid.
    layout = importlib.import_module("cgrcode.layout")
    path = str(tmp_path / "p100.json")
    assert main(["generate", "--v1", "100", "--output", path]) == 0
    names = ("map_unshifted", "dual_unshifted", "rotate_rows")
    no_layout(monkeypatch, layout, names, "verify laid out a grid")
    assert main(["verify", path, "--json"]) == 0
    [entry] = json.loads(capsys.readouterr().out)["results"]
    assert (entry["mds"], entry["dual_mds"], entry["patterns_checked"], entry["pairs_swept"]) == (True, True, 5253, 51)
    assert main(["verify", "--builtin", "all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(BUILTIN_VECTORS) and all("mds=true dual_mds=true" in line for line in lines)


@pytest.mark.parametrize("v1", range(2, 13, 2))
def test_measured_decode_complexity_matches_every_column(v1):
    # metrics decodes column 0 alone: the canonical array rotates, so each
    # single-column erasure costs as many XORs as every other.
    params = CgrParams.from_v1(v1)
    array = build_code_array(params, derive_offsets(pif_factorize(v1)))
    codeword = encode(array, {v: 0 for v in array.info_ids()})
    ratios = set()
    for c in range(params.v2):
        pattern = ErasurePattern.of([c])
        ratios.add(decode_complexity(decode(array, erase(codeword, pattern), pattern), params, pattern))
    assert ratios == {_measured_decode_complexity(params)}


def test_search_budget_option(capsys):
    assert main(["search", "--v1", "2", "--free-prefix", "--budget", "10"]) == 2
    assert "exceeds budget 10" in capsys.readouterr().err
    assert main(["search", "--v1", "2", "--free-prefix", "--budget", "5000"]) == 0


def test_random_search_flags_keep_their_defaults_when_absent(capsys):
    assert main(["search", "--v1", "4", "--strategy", "random", "--json"]) == 0
    spec = SearchSpec(CgrParams.from_v1(4), strategy="random", seed=0, max_trials=1000)
    vectors, stats = search(spec)
    payload = json.loads(capsys.readouterr().out)
    assert payload["vectors"] == [list(v) for v in vectors]
    assert payload["trials"] == stats.trials == 1000 and payload["hits"] == stats.hits


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cgrcode", "generate", "--v1", "2", "--pif", "--format", "text"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == K2_TEXT
