"""Command-line interface: subcommands, formats, exit codes."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from cgrcode import codespec, verify_dual_mds
from cgrcode.cli import main

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


def test_roundtrip_bad_data_spec(k2_file):
    assert main(["roundtrip", k2_file, "--data", "decimal:5"]) == 2


def test_roundtrip_rejects_corrupt_parity_cell(k2_file, tmp_path, capsys):
    with open(k2_file, encoding="utf-8") as fh:
        obj = json.load(fh)
    obj["rows"][2][0]["vertices"] = [0, 0]
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text(json.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    assert main(["roundtrip", str(corrupt)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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
    ],
)
def test_edge_cases_are_usage_errors(argv, capsys):
    assert main(argv) == 2
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
    assert len(payload["vectors"]) == 2


def test_search_budget_exceeded(capsys):
    assert main(["search", "--v1", "4", "--free-prefix"]) == 2
    assert "exceeds budget" in capsys.readouterr().err


def test_search_checks_the_budget_before_laying_out_the_code(capsys):
    # 83^3160 has over 6,000 digits: the message names it by base and exponent.
    assert main(["search", "--v1", "80"]) == 2
    err = capsys.readouterr().err
    assert err == "error: exhaustive space 83^3160 exceeds budget 10000000\n"


def test_search_budget_option(capsys):
    assert main(["search", "--v1", "2", "--free-prefix", "--budget", "10"]) == 2
    assert "exceeds budget 10" in capsys.readouterr().err
    assert main(["search", "--v1", "2", "--free-prefix", "--budget", "5000"]) == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cgrcode", "generate", "--v1", "2", "--pif", "--format", "text"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == K2_TEXT
