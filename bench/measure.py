"""Timing, spans and the metric arithmetic the benchmark reports.

Everything here is stdlib-only and free of cgrcode imports, so the metric
rules can be tested on their own (see test_bench.py).
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager
from operator import itemgetter
from statistics import median

MB = 1_000_000
MIN_BEYOND = 10
REFERENCE_S = 1e-3  # set-up times are reported as if reference_work took this long


class Recorder:
    """Times every public call the benchmark makes into cgrcode.

    Untraced, a call costs two clock reads and a list append: its duration
    goes to ``calls[name]`` and to ``busy_ns``, the running total of time
    spent inside calls. With ``tracing`` on, each call also leaves a span
    ``(span_id, parent_id, op_id, name, start_ns, end_ns)`` whose parent is
    the enclosing operation span; spans stay in memory until the run ends.

    ``calibrate()`` marks ``(busy_ns, reference ns)``; a unit of work marks
    its start, its end and the gaps between its longer steps, and its cost
    is computed from those marks by ``stretch_costs`` and ``typical_cost``.
    """

    def __init__(self, reference=None) -> None:
        self.tracing = False
        self.spans: list[tuple[int, int | None, int | None, str, int, int]] = []
        self.op_tags: dict[int, str] = {}
        self.calls: dict[str, list[int]] = defaultdict(list)
        self.busy_ns = 0
        self.marks: list[tuple[int, int]] = []
        self.reference = reference or reference_ns
        self._next_id = 0
        self._op: int | None = None

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @contextmanager
    def op(self, name: str, tag: str | None = None):
        """One operation (a stripe, one v1 of the sweep, one CLI command):
        the parent span of the calls made inside it, sharing their op id."""
        if not self.tracing:
            yield
            return
        sid = self._new_id()
        if tag is not None:
            self.op_tags[sid] = tag
        self._op = sid
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans.append((sid, None, sid, name, start, time.perf_counter_ns()))
            self._op = None

    def calibrate(self) -> None:
        """Time the reference task once, between two steps of a unit."""
        self.marks.append((self.busy_ns, self.reference()))

    def call(self, name: str, fn, *args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self.busy_ns += end - start
            self.calls[name].append(end - start)
            if self.tracing:
                self.spans.append((self._new_id(), self._op, self._op, name, start, end))


def reference_work() -> int:
    """Fixed pure-Python work (dict updates, int arithmetic, a sort), about
    1 ms, that never touches cgrcode: the reference task of the in-process
    workloads.

    A shared host's speed drifts by tens of percent over seconds to minutes,
    so a unit's cost is reported relative to a reference task timed right
    beside each of its steps.
    """
    table: dict[int, int] = {}
    acc = 0
    for i in range(3000):
        k = (i * 7919) % 1009
        table[k] = table.get(k, 0) ^ i
        acc ^= k * len(table)
    return acc ^ len(sorted(table.items(), key=itemgetter(1)))


def reference_ns() -> int:
    start = time.perf_counter_ns()
    reference_work()
    return time.perf_counter_ns() - start


def stretch_costs(marks) -> list[float]:
    """Cost of each stretch of busy time between two calibration marks, in
    reference tasks: the stretch divided by the mean of the two reference
    times that bracket it."""
    return [
        (busy1 - busy0) / ((ref0 + ref1) / 2)
        for (busy0, ref0), (busy1, ref1) in zip(marks, marks[1:])
    ]


def normalized_cost(marks) -> float:
    """Cost of the work between the first and last calibration mark."""
    return sum(stretch_costs(marks))


def typical_cost(units) -> float:
    """Cost of a typical unit from the stretch costs of many units: the
    median cost of each step across units, summed over the unit's steps."""
    return sum(median(step) for step in zip(*units))


class Gates:
    """Correctness checks; each one counts as an attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def percentile(samples, p: float):
    """Nearest-rank p-th percentile of samples.

    Raises ValueError unless at least MIN_BEYOND samples lie beyond the
    reported one, so p99 needs 1000 samples and p50 needs 20.
    """
    n = len(samples)
    rank = max(1, math.ceil(p / 100 * n))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {n} samples has {n - rank} beyond it; need {MIN_BEYOND}"
        )
    return sorted(samples)[rank - 1]


def stripe_info_bytes(v1: int, v2: int, width: int) -> int:
    """Information bytes in one stripe: v1*v2 info symbols of width bytes.
    Parity cells are not counted."""
    return v1 * v2 * width


def mbps(info_bytes: int, seconds: float) -> float:
    """Information megabytes (10**6 bytes) per second."""
    return info_bytes / seconds / MB


def self_times(spans) -> dict[int, int]:
    """Span id -> its duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _sid, parent, _op, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = {}
    for sid, _parent, _op, _name, start, end in spans:
        covered = 0
        reach = start
        for cs, ce in sorted(children.get(sid, ())):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        result[sid] = end - start - covered
    return result


def layer_summary(spans, op_tags, units: int) -> dict[str, float]:
    """Per-layer figures from the spans of `units` traced units of work.

    Operation spans are named bench.<op>; every other span is a call.

    <module>.<fn>_ms          mean duration of one call, ms
    <module>.<fn>_ms.<tag>    the same for calls inside ops tagged <tag>
    <module>.total_ms         time in the module's spans per unit, ms
    <module>.self_ms          the same minus time covered by child spans
    """
    selfs = self_times(spans)
    per_call: dict[str, list[int]] = defaultdict(list)
    total: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    for sid, _parent, op, name, start, end in spans:
        module = name.split(".", 1)[0]
        total[module] += end - start
        self_ns[module] += selfs[sid]
        if module == "bench":
            continue
        per_call[f"{name}_ms"].append(end - start)
        tag = op_tags.get(op)
        if tag is not None:
            per_call[f"{name}_ms.{tag}"].append(end - start)
    out = {metric: sum(d) / len(d) / 1e6 for metric, d in per_call.items()}
    for module in total:
        out[f"{module}.total_ms"] = total[module] / units / 1e6
        out[f"{module}.self_ms"] = self_ns[module] / units / 1e6
    return out
