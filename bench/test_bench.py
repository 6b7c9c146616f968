"""Tests of the benchmark's own metric arithmetic, inputs and output format.

Run from the root of the checkout:  python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from measure import (  # noqa: E402
    Gates,
    Recorder,
    layer_summary,
    mbps,
    normalized_cost,
    percentile,
    self_times,
    stretch_costs,
    stripe_info_bytes,
    typical_cost,
)
from workloads import ROOT, WORK, StripeRun, load_cgrcode  # noqa: E402


# --- percentile rule ----------------------------------------------------------


def test_percentile_is_nearest_rank():
    samples = list(range(1000, 0, -1))
    assert percentile(samples, 50) == 500
    assert percentile(samples, 99) == 990


def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(1000)), 99) == 989
    with pytest.raises(ValueError, match="9 beyond"):
        percentile(list(range(999)), 99)
    assert percentile(list(range(20)), 50) == 9
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)


# --- MB/s base ------------------------------------------------------------------


def test_stripe_bytes_count_information_only():
    assert stripe_info_bytes(4, 7, 4096) == 112 * 1024
    assert stripe_info_bytes(12, 15, 8) == 1440
    cg = load_cgrcode()
    params = cg.CgrParams.from_v1(4)
    array = cg.build_code_array(params, cg.derive_offsets(cg.pif_factorize(4)))
    cells = sum(1 for row in array.rows for _ in row)
    assert len(array.info_ids()) * 4096 == stripe_info_bytes(4, 7, 4096)
    assert cells * 4096 > stripe_info_bytes(4, 7, 4096)  # parity cells are left out


def test_mbps_is_decimal_megabytes_per_second():
    assert mbps(stripe_info_bytes(4, 7, 4096) * 1000, 1.0) == pytest.approx(114.688)
    assert mbps(2_000_000, 0.5) == pytest.approx(4.0)


def test_normalized_cost_divides_each_stretch_by_its_own_references():
    # 100 ns of work bracketed by 10 ns references, then 200 ns by 10 and 30
    assert normalized_cost([(0, 10), (100, 10), (300, 30)]) == pytest.approx(20.0)
    # a host twice as slow doubles both work and references: same cost
    assert normalized_cost([(0, 20), (200, 20), (600, 60)]) == pytest.approx(20.0)


def test_typical_cost_sums_the_median_of_each_step():
    units = [[1.0, 10.0], [2.0, 30.0], [9.0, 20.0]]
    assert typical_cost(units) == pytest.approx(2.0 + 20.0)
    assert stretch_costs([(0, 10), (100, 10), (300, 30)]) == pytest.approx([10.0, 10.0])


# --- spans and self time ----------------------------------------------------


def test_self_time_subtracts_nested_children():
    spans = [
        (1, None, 1, "bench.op", 0, 100),
        (2, 1, 1, "code.decode", 10, 30),
        (3, 2, 1, "gf2.solve", 15, 20),
        (4, 1, 1, "code.encode", 40, 60),
    ]
    assert self_times(spans) == {1: 60, 2: 15, 3: 5, 4: 20}


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [
        (1, None, 1, "bench.op", 0, 100),
        (2, 1, 1, "a.x", 10, 40),
        (3, 1, 1, "a.y", 30, 50),
        (4, 1, 1, "a.z", 90, 120),
    ]
    assert self_times(spans)[1] == 100 - 40 - 10


def test_layer_summary_per_call_per_tag_and_per_unit():
    spans = [
        (1, None, 1, "bench.sweep", 0, 10_000_000),
        (2, 1, 1, "code.verify_mds", 0, 4_000_000),
        (3, None, 3, "bench.sweep", 10_000_000, 20_000_000),
        (4, 3, 3, "code.verify_mds", 10_000_000, 12_000_000),
    ]
    out = layer_summary(spans, {1: "v1_2", 3: "v1_4"}, units=2)
    assert out["code.verify_mds_ms"] == pytest.approx(3.0)
    assert out["code.verify_mds_ms.v1_2"] == pytest.approx(4.0)
    assert out["code.verify_mds_ms.v1_4"] == pytest.approx(2.0)
    assert out["code.total_ms"] == pytest.approx(3.0)
    assert out["bench.total_ms"] == pytest.approx(10.0)
    assert out["bench.self_ms"] == pytest.approx(7.0)


def test_recorder_spans_share_their_operation_id():
    rec = Recorder()
    rec.tracing = True
    with rec.op("bench.stripe", tag="t"):
        assert rec.call("code.encode", sum, [1, 2]) == 3
        rec.call("code.decode", len, "ab")
    rec.call("code.erase", len, "")
    op = next(s for s in rec.spans if s[3] == "bench.stripe")
    calls = [s for s in rec.spans if s[3] in ("code.encode", "code.decode")]
    assert [s[1] for s in calls] == [op[0], op[0]]
    assert [s[2] for s in calls] == [op[0], op[0]]
    assert rec.op_tags == {op[0]: "t"}
    assert rec.spans[-1][1] is None
    assert len(rec.calls["code.encode"]) == 1 and rec.busy_ns > 0


def test_untraced_recorder_keeps_no_spans():
    rec = Recorder()
    with rec.op("bench.stripe"):
        rec.call("code.encode", sum, [1])
    assert rec.spans == [] and len(rec.calls["code.encode"]) == 1


# --- seeded inputs and exact counts -----------------------------------------------

def small(seed):
    return StripeRun("test_small", 2, 3, seed)


def _columns(run_, n=256):
    # each set-up re-imports cgrcode, so compare plain column sets, not
    # ErasurePattern objects of two different class objects
    return [run_.next_pattern().erased_columns for _ in range(n)]


def _counts_after(run_, units):
    gates = Gates()
    for u in range(units):
        run_.run_unit(u, Recorder(), gates)
    assert gates.failed == 0
    return run_.counts(), gates.attempted


def test_same_seed_gives_identical_inputs_and_counts():
    a, b = small(7), small(7)
    assert a.payloads == b.payloads and _columns(a) == _columns(b)
    assert _counts_after(a, 16) == _counts_after(b, 16)


def test_different_seed_gives_different_payloads_and_patterns():
    a, b = small(7), small(8)
    assert a.payloads != b.payloads
    assert _columns(a) != _columns(b)
    sizes = {len(columns) for columns in _columns(a)}
    assert sizes == {1, 2, 3}  # 1..v1+1 erased columns


def test_decode_gate_catches_a_wrong_answer(monkeypatch):
    run_ = small(7)
    real = run_.cg.decode

    def corrupt(*args, **kwargs):
        report = real(*args, **kwargs)
        first = next(iter(report.recovered))
        report.recovered[first] ^= 1
        return report

    monkeypatch.setattr(run_.cg, "decode", corrupt)
    gates = Gates()
    run_.run_unit(0, Recorder(), gates)
    assert gates.failed == gates.attempted == 9 and gates.fail_frac == 1.0


# --- declared metrics and output contract -------------------------------------


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_declares_what_the_run_emits():
    spec = _declared()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace,declared", [("0", "end_to_end"), ("1", "per_layer")])
def test_last_line_holds_every_declared_metric(trace, declared):
    proc = _run_bench(
        ROOT, "--workload", "stripe_wide", "--seed", "3", "--seconds", "0.1", "--trace", trace
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    names = [m["name"] for m in _declared()[declared]]
    assert list(result["metrics"]) == names


def test_fails_without_printing_a_result_when_src_is_missing():
    bare = os.path.join(WORK, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("out"))
        proc = _run_bench(bare, "--workload", "stripe_wide", "--seconds", "1")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""
    assert "cgrcode" in proc.stderr
