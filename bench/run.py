"""Benchmark for cgrcode, run from the root of a checkout.

    python3 bench/run.py --workload stripe_wide --seed 1 --seconds 10 --trace 0

Workloads: stripe_wide, stripe_narrow, design_sweep, cli_session, or all.
The library is imported from the checkout's src/, never from an installed
copy. Every output is checked; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones (unit_cost, setup_s); with --trace 1 they are
the per-layer ones, taken from spans around each public call. The lines
before it give the run's metadata and the workload's named metrics with
their units. Exit status: 0 all gates passed, 1 a gate failed, 2 cgrcode
could not be imported from src/, 3 the run passed its deadline.
See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import faulthandler
import gc
import json
import os
import signal
import subprocess
import sys
import time
import traceback
from statistics import median

from measure import (
    REFERENCE_S,
    Gates,
    Recorder,
    layer_summary,
    normalized_cost,
    reference_ns,
    stretch_costs,
    typical_cost,
)
from workloads import ROOT, SWEEP_SIZES, WORK, WORKLOADS

SETUP_REPS = 11
DEADLINE_S = 150

END_TO_END = [
    ("unit_cost", "refs", "lower"),
    ("setup_s", "s", "lower"),
]

_CALLS = [
    ("code.encode_ms", "ms", "lower"),
    ("code.erase_ms", "ms", "lower"),
    ("code.decode_ms", "ms", "lower"),
    ("code.decode_elim_ms", "ms", "lower"),
    ("graph.pif_factorize_ms", "ms", "lower"),
    ("layout.derive_offsets_ms", "ms", "lower"),
    ("layout.build_code_array_ms", "ms", "lower"),
    ("code.verify_mds_ms", "ms", "lower"),
    ("code.verify_dual_mds_ms", "ms", "lower"),
    ("code.dualize_ms", "ms", "lower"),
    ("bcode.contract_ms", "ms", "lower"),
    ("bcode.verify_contracted_mds_ms", "ms", "lower"),
    ("codespec.to_json_ms", "ms", "lower"),
    ("codespec.from_json_ms", "ms", "lower"),
    ("search.exhaustive_ms", "ms", "lower"),
    ("search.random_ms", "ms", "lower"),
] + [
    (f"cli.{step}_ms", "ms", "lower")
    for step in (
        "import", "generate", "verify", "roundtrip", "dual",
        "contract", "metrics", "search", "verify_builtin",
    )
]
_COUNTS = [
    ("code.encode.xor_ops", "count/stripe", "lower"),
    ("code.encode.xor_bytes", "B/stripe", "lower"),
    ("code.decode.xor_count", "count/stripe", "lower"),
    ("code.decode.peeled_frac", "ratio", "higher"),
    ("gf2.elim_row_ops", "count/stripe", "lower"),
    ("code.verify_mds.patterns", "count", "lower"),
    ("code.verify_dual_mds.patterns", "count", "lower"),
    ("search.trials", "count", "lower"),
    ("search.hits", "count", "higher"),
]
_PER_SIZE = [
    (f"{name}.v1_{v1}", unit, "lower")
    for name, unit in (
        ("graph.pif_factorize_ms", "ms"),
        ("layout.build_code_array_ms", "ms"),
        ("code.verify_mds_ms", "ms"),
        ("code.verify_dual_mds_ms", "ms"),
        ("code.verify_mds.patterns", "count"),
        ("code.verify_dual_mds.patterns", "count"),
    )
    for v1 in SWEEP_SIZES
]
_MODULES = [
    (f"{module}.{kind}_ms", "ms", "lower")
    for module in ("bench", "graph", "layout", "code", "bcode", "codespec", "search", "cli")
    for kind in ("total", "self")
]
PER_LAYER = _CALLS + _COUNTS + _PER_SIZE + _MODULES + [
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.overhead_cost", "refs", "lower"),
    ("trace.wall_overhead_ms", "ms", "lower"),
]


class NoResult(Exception):
    """No unit of work finished, so there is nothing to report."""


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM; derives from BaseException so no gate swallows it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded(f"run exceeded its {DEADLINE_S} s deadline")


def metadata(cgrcode_file: str) -> dict:
    return {
        "commit": _commit(),
        "cgrcode": os.path.relpath(cgrcode_file, ROOT),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
    }


def _commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(name: str, seed: int, seconds: float, trace: bool):
    """Set up SETUP_REPS times, then run units of work for `seconds`.

    Each set-up starts from a collected heap and is bracketed by two timings
    of the reference task; setup_s is the median set-up in reference tasks,
    scaled to seconds by REFERENCE_S, so the host's drifting speed cancels
    as it does in unit_cost. In a traced run every second unit is traced
    and the others are not, so the tracing overhead is measured under the
    same conditions.
    """
    setup_cost, setup_ns = [], []
    run = None
    for _ in range(SETUP_REPS):
        if run is not None:
            run.close()
            run = None
        gc.collect()
        ref = reference_ns()
        start = time.perf_counter_ns()
        run = WORKLOADS[name](seed)
        setup_ns.append(time.perf_counter_ns() - start)
        setup_cost.append(normalized_cost([(0, ref), (setup_ns[-1], reference_ns())]))
    recorders = {False: Recorder(run.reference), True: Recorder(run.reference)}
    recorders[True].tracing = True
    figures: dict[bool, list[int]] = {False: [], True: []}
    costs: dict[bool, list[list[float]]] = {False: [], True: []}
    walls: dict[bool, list[int]] = {False: [], True: []}
    gates = Gates()
    min_units = max(run.min_units, 2 if trace else 1)
    try:
        start = time.perf_counter()
        u = 0
        while u < min_units or time.perf_counter() - start < seconds:
            traced = trace and u % 2 == 1
            rec = recorders[traced]
            first = len(rec.marks)
            wall = time.perf_counter_ns()
            try:
                run.run_unit(u, rec, gates)
            except Exception:
                gates.check(False, f"unit {u}: {traceback.format_exc(limit=4)}")
            else:
                walls[traced].append(time.perf_counter_ns() - wall)
                marks = rec.marks[first:]
                figures[traced].append(marks[-1][0] - marks[0][0])
                costs[traced].append(stretch_costs(marks))
            u += 1
    finally:
        run.close()
    if not figures[False] or (trace and not figures[True]):
        raise NoResult(gates.messages)

    named = []
    if trace:
        spans = recorders[True].spans
        metrics = {m: 0.0 for m, _, _ in PER_LAYER}
        found = layer_summary(spans, recorders[True].op_tags, len(figures[True]))
        found.update(run.counts())
        found["trace.overhead_ms"] = (median(figures[True]) - median(figures[False])) / 1e6
        found["trace.overhead_cost"] = typical_cost(costs[True]) - typical_cost(costs[False])
        found["trace.wall_overhead_ms"] = (median(walls[True]) - median(walls[False])) / 1e6
        metrics.update({m: v for m, v in found.items() if m in metrics})
        units = {m: u for m, u, _ in PER_LAYER}
        _write_spans(name, seed, spans)
    else:
        metrics = {
            "unit_cost": typical_cost(costs[False]),
            "setup_s": median(setup_cost) * REFERENCE_S,
        }
        units = {m: u for m, u, _ in END_TO_END}
        named = [
            ("unit_ms", median(figures[False]) / 1e6, "ms"),
            ("setup_raw_s", median(setup_ns) / 1e9, "s"),
            *run.report(recorders[False]),
        ]
        named.append(("fail_frac", gates.fail_frac, "ratio"))
    result = {
        "correct": gates.failed == 0,
        "attempted": gates.attempted,
        "failed": gates.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    return result, named, gates.messages, run.cg.__file__, len(figures[False]) + len(figures[True])


def _write_spans(name: str, seed: int, spans) -> None:
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"spans-{name}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for sid, parent, op, span_name, start, end in spans:
            fh.write(
                json.dumps(
                    {"id": sid, "parent": parent, "op": op, "name": span_name,
                     "start_ns": start, "end_ns": end}
                )
                + "\n"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    faulthandler.dump_traceback_later(DEADLINE_S + 20, exit=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {}
        for name in names:
            result, named, messages, cgrcode_file, units = measure(
                name, args.seed, args.seconds, bool(args.trace)
            )
            results[name] = result
            meta = {"workload": name, "seed": args.seed, "trace": args.trace,
                    "units": units, **metadata(cgrcode_file)}
            print("# meta " + json.dumps(meta))
            for what in messages:
                print(f"# gate failed: {what}", file=sys.stderr)
            for metric, value, unit in named:
                print(f"{name} {metric} = {value:.6g} {unit}")
            for metric, m in result["metrics"].items():
                print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoResult as exc:
        for what in exc.args[0]:
            print(f"# gate failed: {what}", file=sys.stderr)
        print("error: no unit of work finished", file=sys.stderr)
        return 1
    except DeadlineExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        faulthandler.cancel_dump_traceback_later()

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{m}": v for name, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
