"""The four benchmark workloads and the inputs they generate from a seed.

Each workload is a closed loop with one caller: a unit of work is issued
only after the previous one has finished, from one thread, and CLI children
run one at a time. Every random choice comes from ``random.Random`` seeded
with the workload name and the ``--seed`` value; cgrcode receives only the
generated inputs.

``WORKLOADS[name](seed)`` is the set-up: it imports cgrcode afresh from
this checkout's ``src/`` and returns a run. ``run_unit(index, recorder,
gates)`` does one unit of work and calls ``recorder.calibrate()`` at the
start and end of the part of it that the unit's figure covers, and between
its longer steps; ``reference()`` is the run's reference task (ns);
``report()`` gives the workload's named end-to-end metrics and ``counts()``
exact per-layer counts, identical for identical seeds.
"""

from __future__ import annotations

import importlib
import os
import random
import shutil
import subprocess
import sys
import time
from functools import partial
from statistics import median

from measure import (
    Gates,
    Recorder,
    mbps,
    percentile,
    reference_ns,
    stripe_info_bytes,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "bench", "out")

CHILD_TIMEOUT_S = 60


def load_cgrcode():
    """Import cgrcode from this checkout's src/, discarding any earlier import.

    Re-executing the package on every set-up makes import cost and the cold
    lru_cache of the factorization search part of each measured set-up.
    """
    for name in [m for m in sys.modules if m == "cgrcode" or m.startswith("cgrcode.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        cg = importlib.import_module("cgrcode")
    except ImportError as exc:
        raise ImportError(f"cannot import cgrcode from {SRC}: {exc}") from exc
    if not os.path.abspath(cg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"cgrcode was imported from {cg.__file__}, not from {SRC}")
    return cg


class Run:
    min_units = 1

    def reference(self) -> int:
        return reference_ns()

    def counts(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


# --- stripe_wide / stripe_narrow -------------------------------------------

UNIT_STRIPES = 8  # the first stripe of each unit is also read by forced elimination
PAYLOAD_POOL = 16
COUNT_STRIPES = 1024  # exact counts come from the first stripes of a run


class StripeRun(Run):
    """Stripes of one code: a seeded pool of payloads, and for each stripe an
    erasure pattern drawn from the seeded generator when the stripe needs it
    (1..v1+1 columns, the count and the columns uniform). Drawing on demand
    never repeats a fixed schedule, however many stripes a run does."""

    min_units = COUNT_STRIPES // UNIT_STRIPES

    def __init__(self, name: str, v1: int, width: int, seed: int):
        self.cg = cg = load_cgrcode()
        self.v1, self.width = v1, width
        params = cg.CgrParams.from_v1(v1)
        self.array = cg.build_code_array(params, cg.derive_offsets(cg.pif_factorize(v1)))
        self.rng = rng = random.Random(f"{name}:{seed}")
        ids = self.array.info_ids()
        self.payloads = [
            {v: int.from_bytes(rng.randbytes(width), "little") for v in ids}
            for _ in range(PAYLOAD_POOL)
        ]
        self.stripe_bytes = stripe_info_bytes(v1, params.v2, width)
        self.window: list[tuple[int, bool, int]] = []
        self._stripe(0, Recorder(), Gates(), record=False)  # warm-up

    def next_pattern(self):
        v2 = self.array.params.v2
        return self.cg.ErasurePattern.of(
            self.rng.sample(range(v2), self.rng.randint(1, self.v1 + 1))
        )

    def _stripe(self, i: int, rec: Recorder, gates, record: bool = True) -> None:
        cg, array = self.cg, self.array
        info = self.payloads[i % PAYLOAD_POOL]
        pattern = self.next_pattern()
        with rec.op("bench.stripe"):
            word = rec.call("code.encode", cg.encode, array, info)
            grid = rec.call("code.erase", cg.erase, word, pattern)
            report = rec.call("code.decode", cg.decode, array, grid, pattern)
            gates.check(report.recovered == info, f"stripe {i}: decode mismatch")
            elim_ops = report.elimination_xor_count
            if i % UNIT_STRIPES == 0:
                forced = rec.call(
                    "code.decode_elim", cg.decode, array, grid, pattern, force_elimination=True
                )
                gates.check(forced.recovered == info, f"stripe {i}: elimination decode mismatch")
                elim_ops += forced.elimination_xor_count
        if record and i < COUNT_STRIPES:
            self.window.append((report.xor_count, report.peeling_sufficed, elim_ops))

    def run_unit(self, u: int, rec: Recorder, gates) -> None:
        rec.calibrate()
        for k in range(UNIT_STRIPES):
            self._stripe(u * UNIT_STRIPES + k, rec, gates)
        rec.calibrate()

    def report(self, rec: Recorder) -> list[tuple[str, float, str]]:
        b = self.stripe_bytes
        enc, dec, elim = rec.calls["code.encode"], rec.calls["code.decode"], rec.calls["code.decode_elim"]
        reads_ms = [d / 1e6 for d in dec]
        return [
            ("write_MBps", mbps(b * len(enc), sum(enc) / 1e9), "MB/s"),
            ("read_MBps", mbps(b * len(dec), sum(dec) / 1e9), "MB/s"),
            ("read_elim_MBps", mbps(b * len(elim), sum(elim) / 1e9), "MB/s"),
            ("read_p50_ms", percentile(reads_ms, 50), "ms"),
            ("read_p99_ms", percentile(reads_ms, 99), "ms"),
            ("read_samples", len(reads_ms), "count"),
        ]

    def counts(self) -> dict[str, float]:
        xor_ops = sum(
            len(cell.vertices) - 1 for row in self.array.rows for cell in row if cell.is_parity
        )
        n = len(self.window)
        return {
            "code.encode.xor_ops": xor_ops,
            "code.encode.xor_bytes": xor_ops * self.width,
            "code.decode.xor_count": sum(x for x, _, _ in self.window) / n,
            "code.decode.peeled_frac": sum(p for _, p, _ in self.window) / n,
            "gf2.elim_row_ops": sum(e for _, _, e in self.window) / n,
        }


# --- design_sweep -----------------------------------------------------------

# v1 = 14 and v1 = 20 are left out on purpose: pif_factorize does not finish
# at those sizes. Adding them is a separate change to the benchmark.
SWEEP_SIZES = (2, 4, 6, 8, 10, 12, 16, 18)
RANDOM_SEARCH_V1 = 4
RANDOM_SEARCH_TRIALS = 1000
EXHAUSTIVE_SPACE = 3125  # v1 = 2 with a free prefix: 5**5 candidates
EXHAUSTIVE_HITS = 50


class SweepRun(Run):
    def __init__(self, seed: int):
        self.cg = cg = load_cgrcode()
        self.codespec = importlib.import_module("cgrcode.codespec")
        rng = random.Random(f"design_sweep:{seed}")
        self.search_seeds = [rng.getrandbits(63) for _ in range(1024)]
        for v1 in SWEEP_SIZES:
            cg.pif_factorize(v1)  # the cold, cached backtracking (v1 = 8) belongs to set-up
        self.sweep_ns: list[int] = []
        self.search_ns = 0
        self.search_trials = 0
        self.unit_counts: dict[str, int] | None = None

    def run_unit(self, u: int, rec: Recorder, gates) -> None:
        cg, codespec = self.cg, self.codespec
        counts: dict[str, int] = {}
        rec.calibrate()
        start = rec.busy_ns
        for v1 in SWEEP_SIZES:
            params = cg.CgrParams.from_v1(v1)
            with rec.op("bench.sweep", tag=f"v1_{v1}"):
                fact = rec.call("graph.pif_factorize", cg.pif_factorize, v1)
                offsets = rec.call("layout.derive_offsets", cg.derive_offsets, fact)
                array = rec.call("layout.build_code_array", cg.build_code_array, params, offsets)
                primal = rec.call("code.verify_mds", cg.verify_mds, array)
                dual = rec.call("code.verify_dual_mds", cg.verify_dual_mds, array)
                dual_array = rec.call("code.dualize", cg.dualize, array)
                again = rec.call("code.dualize", cg.dualize, dual_array)
                contracted = rec.call("bcode.contract", cg.contract, array)
                contracted_ok = rec.call(
                    "bcode.verify_contracted_mds", cg.verify_contracted_mds, contracted
                )
                text = rec.call("codespec.to_json", codespec.to_json, array)
                back = rec.call("codespec.from_json", codespec.from_json, text)
                gates.check(primal.is_mds, f"v1={v1}: verify_mds false")
                gates.check(dual.is_mds, f"v1={v1}: verify_dual_mds false")
                gates.check(contracted_ok, f"v1={v1}: verify_contracted_mds false")
                gates.check(again == array, f"v1={v1}: dualize(dualize(a)) != a")
                gates.check(codespec.to_json(back) == text, f"v1={v1}: JSON round trip differs")
            rec.calibrate()
            for key, result in (("code.verify_mds", primal), ("code.verify_dual_mds", dual)):
                counts[f"{key}.patterns"] = counts.get(f"{key}.patterns", 0) + result.patterns_checked
                counts[f"{key}.patterns.v1_{v1}"] = result.patterns_checked
        searched = rec.busy_ns
        self.sweep_ns.append(searched - start)

        p2 = cg.CgrParams.from_v1(2)
        with rec.op("bench.search"):
            found, stats = rec.call(
                "search.exhaustive", cg.search, cg.SearchSpec(p2, fix_prefix=False)
            )
        gates.check(
            stats.trials == stats.space == EXHAUSTIVE_SPACE and stats.hits == EXHAUSTIVE_HITS,
            f"exhaustive v1=2 search: {stats}",
        )
        gates.check(
            len(found) == EXHAUSTIVE_HITS
            and all(cg.verify_mds(cg.build_code_array(p2, vec)) for vec in found),
            "exhaustive v1=2 search returned a vector that is not MDS",
        )
        trials, hits = stats.trials, stats.hits
        rec.calibrate()

        p4 = cg.CgrParams.from_v1(RANDOM_SEARCH_V1)
        spec = cg.SearchSpec(
            p4,
            strategy="random",
            seed=self.search_seeds[u % len(self.search_seeds)],
            max_trials=RANDOM_SEARCH_TRIALS,
        )
        with rec.op("bench.search"):
            found, stats = rec.call("search.random", cg.search, spec)
        gates.check(stats.trials == RANDOM_SEARCH_TRIALS, f"random search: {stats}")
        gates.check(
            all(cg.verify_mds(cg.build_code_array(p4, vec)) for vec in found),
            "random search returned a vector that is not MDS",
        )
        rec.calibrate()
        trials += stats.trials
        hits += stats.hits
        self.search_ns += rec.busy_ns - searched
        self.search_trials += trials
        if self.unit_counts is None:
            self.unit_counts = {**counts, "search.trials": trials, "search.hits": hits}

    def report(self, rec: Recorder) -> list[tuple[str, float, str]]:
        return [
            ("sweep_s", median(self.sweep_ns) / 1e9, "s"),
            ("search_candidates_per_s", self.search_trials / (self.search_ns / 1e9), "1/s"),
            ("sweeps", len(self.sweep_ns), "count"),
        ]

    def counts(self) -> dict[str, float]:
        return dict(self.unit_counts or {})


# --- cli_session ------------------------------------------------------------

CLI_V1 = 6


class CliRun(Run):
    def __init__(self, seed: int):
        self.cg = load_cgrcode()
        rng = random.Random(f"cli_session:{seed}")
        v2 = CLI_V1 + 3
        self.sessions = [
            (sorted(rng.sample(range(v2), rng.randint(1, CLI_V1 + 1))), rng.getrandbits(31))
            for _ in range(256)
        ]
        self.workdir = os.path.join(WORK, f"cli-{os.getpid()}")
        shutil.rmtree(self.workdir, ignore_errors=True)
        os.makedirs(self.workdir)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
        self.session_ns: list[int] = []

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _child(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args],
            cwd=self.workdir,
            env=self.env,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )

    def steps(self, u: int) -> list[tuple[str, list[str]]]:
        erase, data_seed = self.sessions[u % len(self.sessions)]
        return [
            ("generate", ["generate", "--v1", str(CLI_V1), "--output", "code.json"]),
            ("verify", ["verify", "code.json"]),
            (
                "roundtrip",
                [
                    "roundtrip",
                    "code.json",
                    "--erase",
                    ",".join(map(str, erase)),
                    "--data",
                    f"random:{data_seed}",
                ],
            ),
            ("dual", ["dual", "code.json", "--output", "dual.json"]),
            ("contract", ["contract", "code.json", "--output", "contracted.json"]),
            ("metrics", ["metrics", "--v1-range", "2:12"]),
            ("search", ["search", "--v1", "2", "--free-prefix"]),
            ("verify_builtin", ["verify", "--builtin", "all"]),
        ]

    def reference(self) -> int:
        """A bare interpreter start: process creation, not library work,
        is what the CLI commands share with it."""
        start = time.perf_counter_ns()
        self._child(["-c", "pass"])
        return time.perf_counter_ns() - start

    def run_unit(self, u: int, rec: Recorder, gates) -> None:
        # the import probe runs before the first mark, so it is left out of
        # the unit's figure and warms the files every command reads
        with rec.op("bench.cli"):
            probe = rec.call("cli.import", self._child, ["-c", "import cgrcode"])
        gates.check(probe.returncode == 0, f"import cgrcode: {probe.stderr.strip()[-200:]}")
        rec.calibrate()
        start = rec.busy_ns
        for name, argv in self.steps(u):
            with rec.op("bench.cli"):
                proc = rec.call(f"cli.{name}", self._child, ["-m", "cgrcode", *argv])
            gates.check(
                proc.returncode == 0,
                f"cgrcode {' '.join(argv)}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}",
            )
            if name == "roundtrip":
                gates.check("match: true" in proc.stdout.splitlines(), "roundtrip did not match")
            rec.calibrate()
        self.session_ns.append(rec.busy_ns - start)

    def report(self, rec: Recorder) -> list[tuple[str, float, str]]:
        return [
            ("cli_session_s", median(self.session_ns) / 1e9, "s"),
            ("sessions", len(self.session_ns), "count"),
        ]


WORKLOADS = {
    "stripe_wide": partial(StripeRun, "stripe_wide", 4, 4096),
    "stripe_narrow": partial(StripeRun, "stripe_narrow", 12, 8),
    "design_sweep": SweepRun,
    "cli_session": CliRun,
}
