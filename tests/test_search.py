"""Offset-vector search and the built-in fixture set."""

from __future__ import annotations

import importlib
import itertools
import re
import time

import pytest

from cgrcode import (
    BUILTIN_VECTORS,
    BudgetExceededError,
    CgrParams,
    SearchSpec,
    SearchStats,
    build_code_array,
    search,
    verify_mds,
)
from cgrcode.rng import MASK64, Lcg, jump
from cgrcode.search import DEFAULT_BUDGET, params_for_offset_length
from conftest import no_layout


def test_params_for_offset_length():
    assert params_for_offset_length(5) == CgrParams.from_v1(2)
    assert params_for_offset_length(14) == CgrParams.from_v1(4)
    assert params_for_offset_length(27) == CgrParams.from_v1(6)
    assert params_for_offset_length(44) == CgrParams.from_v1(8)
    with pytest.raises(ValueError):
        params_for_offset_length(6)


def test_builtin_vector_lengths():
    assert set(BUILTIN_VECTORS) == {
        "k2_c5",
        "k4_c7_a",
        "k4_c7_b",
        "k4_c7_c",
        "k4_c7_d",
        "k6_c9_a",
        "k6_c9_b",
        "k6_c9_c",
        "k8_c11",
    }
    for vector in BUILTIN_VECTORS.values():
        params_for_offset_length(len(vector))  # every length maps to a size


def test_exhaustive_search_fixed_prefix():
    spec = SearchSpec(params=CgrParams.from_v1(2))
    vectors, stats = search(spec)
    assert (stats.trials, stats.hits, stats.space) == (5, 1, 5)
    assert [tuple(v) for v in vectors] == [(0, 1, 2, 2, 4)]


def test_exhaustive_search_free_prefix():
    spec = SearchSpec(params=CgrParams.from_v1(2), fix_prefix=False)
    vectors, stats = search(spec)
    assert (stats.trials, stats.hits, stats.space) == (3125, 50, 3125)
    assert len(vectors) == 50
    assert (0, 1, 2, 2, 4) in {tuple(v) for v in vectors}


def test_free_search_hits_are_closed_under_adding_a_constant():
    # The free search walks only the vectors that start with 0 and shifts
    # them: every hit plus c, mod v2, must itself pass verify_mds.
    params = CgrParams.from_v1(2)
    vectors, _ = search(SearchSpec(params, fix_prefix=False))
    for c in range(params.v2):
        shifted = {tuple((a + c) % params.v2 for a in vec) for vec in vectors}
        assert shifted == set(vectors)
        assert all(verify_mds(build_code_array(params, vec)) for vec in shifted)


def test_free_search_walks_one_rotation_class():
    # A walk of every first value visits 1,655 nodes, 331 per class.
    _, stats = search(SearchSpec(params=CgrParams.from_v1(2), fix_prefix=False))
    assert stats.nodes == 331


def test_exhaustive_search_v1_4_fixed_prefix():
    # 7^6 candidates; the rank-pruned search visits a few hundred nodes.
    vectors, stats = search(SearchSpec(CgrParams.from_v1(4)))
    prefix = (0, 1, 2, 3, 4, 4, 4, 4)
    assert [tuple(v) for v in vectors] == [
        prefix + (2, 3, 6, 6, 0, 1),
        prefix + (2, 6, 1, 3, 6, 0),
        prefix + (3, 1, 6, 6, 2, 0),
        prefix + (3, 6, 2, 0, 6, 1),
        prefix + (6, 1, 2, 3, 0, 6),
        prefix + (6, 3, 1, 0, 2, 6),
    ]
    assert (stats.trials, stats.hits, stats.space) == (117649, 6, 117649)
    assert 0 < stats.nodes < stats.trials


def test_exhaustive_stop_after_truncates_list_only():
    spec = SearchSpec(params=CgrParams.from_v1(2), fix_prefix=False, stop_after=3)
    vectors, stats = search(spec)
    assert len(vectors) == 3
    assert (stats.trials, stats.hits) == (3125, 50)  # stats still cover the full scan


def test_random_search_is_reproducible():
    spec = SearchSpec(params=CgrParams.from_v1(2), strategy="random", seed=9, max_trials=50)
    first = search(spec)
    second = search(spec)
    assert first == second
    vectors, stats = first
    assert stats.trials == 50
    assert stats.hits == len(vectors) > 0


def test_random_search_stop_after():
    spec = SearchSpec(
        params=CgrParams.from_v1(2), strategy="random", seed=9, max_trials=50, stop_after=1
    )
    vectors, stats = search(spec)
    assert len(vectors) == 1
    assert stats.nodes == stats.trials < 50


@pytest.mark.parametrize(
    "spec",
    [
        SearchSpec(params=CgrParams.from_v1(2), fix_prefix=False),
        SearchSpec(
            params=CgrParams.from_v1(2),
            fix_prefix=False,
            strategy="random",
            seed=3,
            max_trials=2000,
        ),
        SearchSpec(params=CgrParams.from_v1(4), strategy="random", seed=50, max_trials=1000),
        SearchSpec(params=CgrParams.from_v1(6), strategy="random", seed=6, max_trials=300),
        SearchSpec(
            params=CgrParams.from_v1(4), strategy="random", seed=50, max_trials=1000, stop_after=1
        ),
        # Class 0 holds the first 10 hits of 50, so 12 reaches into class 1.
        SearchSpec(params=CgrParams.from_v1(2), fix_prefix=False, stop_after=0),
        SearchSpec(params=CgrParams.from_v1(2), fix_prefix=False, stop_after=10),
        SearchSpec(params=CgrParams.from_v1(2), fix_prefix=False, stop_after=12),
        SearchSpec(params=CgrParams.from_v1(4), strategy="random", seed=50, max_trials=1),
        SearchSpec(params=CgrParams.from_v1(8), strategy="random", seed=8, max_trials=300),
    ],
)
def test_search_matches_a_reference_scan(spec):
    # The reference builds and verifies a full code array per candidate, and
    # a random trial draws all nfree offsets before it checks any; seed 50
    # gives the v1 = 4 run one hit in its 1,000 draws. An exhaustive search
    # covers the whole space and lists the first stop_after hits.
    params = spec.params
    v2 = params.v2
    prefix = tuple(range(params.v1)) + (params.v1,) * params.v1 if spec.fix_prefix else ()
    nfree = params.num_rows - len(prefix)
    if spec.strategy == "exhaustive":
        candidates = [prefix + combo for combo in itertools.product(range(v2), repeat=nfree)]
        space = len(candidates)
    else:
        rng = Lcg(spec.seed)
        candidates = [
            prefix + tuple(rng.randint(v2) for _ in range(nfree)) for _ in range(spec.max_trials)
        ]
        space = None
    valid = []
    trials = 0
    for vec in candidates:
        if spec.strategy == "random" and spec.stop_after is not None:
            if len(valid) >= spec.stop_after:
                break
        trials += 1
        if verify_mds(build_code_array(params, vec)):
            valid.append(vec)
    vectors, stats = search(spec)
    assert [tuple(v) for v in vectors] == valid[: spec.stop_after]
    assert stats == SearchStats(trials, len(valid), space)
    if spec.strategy == "random":
        assert stats.nodes == trials


@pytest.mark.parametrize("steps", range(9))
def test_lcg_jump_equals_that_many_steps(steps):
    for seed in (0, 1, 50, MASK64):
        rng = Lcg(seed)
        for _ in range(steps):
            rng.next_u64()
        multiplier, increment = jump(steps)
        assert (seed * multiplier + increment) & MASK64 == rng.state


@pytest.mark.parametrize("limits", [{"strategy": "random", "max_trials": -5}, {"stop_after": -1}])
def test_negative_limits_are_rejected(limits):
    with pytest.raises(ValueError):
        search(SearchSpec(params=CgrParams.from_v1(2), **limits))


@pytest.mark.parametrize(
    "field, value",
    [("max_trials", 2.5), ("max_trials", True), ("seed", 1.5), ("stop_after", 1.5), ("budget", 10.0)],
    ids=["max_trials float", "max_trials bool", "seed", "stop_after", "budget"],
)
def test_limits_that_are_not_ints_are_rejected(field, value):
    # Unchecked, stop_after=1.5 failed inside _exhaustive's slicing,
    # max_trials=2.5 ran 3 trials, max_trials=True ran 1, and seed=1.5
    # failed inside Lcg. A bool counts as no int.
    strategy = "random" if field in ("max_trials", "seed") else "exhaustive"
    limits = {"budget": DEFAULT_BUDGET, field: value}
    budget = limits.pop("budget")
    spec = SearchSpec(CgrParams.from_v1(2), fix_prefix=False, strategy=strategy, **limits)
    with pytest.raises(ValueError, match=f"^{field} must be an int, got {re.escape(repr(value))}$"):
        search(spec, budget)


def test_unknown_strategy_is_rejected_before_any_layout(monkeypatch):
    # The package's search attribute is the function, so reach the module.
    module = importlib.import_module("cgrcode.search")
    no_layout(monkeypatch, module, ("map_unshifted",), "search laid out a grid for a spec it rejects")
    with pytest.raises(ValueError, match="unknown strategy"):
        search(SearchSpec(params=CgrParams.from_v1(60), strategy="bogus"))


def test_budget_guard():
    spec = SearchSpec(params=CgrParams.from_v1(4), fix_prefix=False)
    with pytest.raises(BudgetExceededError):
        search(spec)
    with pytest.raises(BudgetExceededError):
        search(SearchSpec(params=CgrParams.from_v1(2), fix_prefix=False), budget=100)


def test_search_refuses_a_grid_over_the_size_limit(monkeypatch):
    module = importlib.import_module("cgrcode.search")
    no_layout(monkeypatch, module, ("map_unshifted",), "search laid out a grid over the size limit")
    for v1 in (42, 3000):
        spec = SearchSpec(CgrParams.from_v1(v1), strategy="random", max_trials=1)
        with pytest.raises(ValueError, match=rf"search at v1 = {v1} lays out over \d+ mask bits"):
            search(spec)
    monkeypatch.undo()
    # v1 = 24 stays under the limit.
    _, stats = search(SearchSpec(CgrParams.from_v1(24), strategy="random", max_trials=1))
    assert stats.trials == 1


def test_budget_guard_fails_fast_on_a_huge_space():
    # 3003^4498500 candidates: the guard stops multiplying once past the budget.
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r"3003\^4498500 exceeds budget 10000000"):
        search(SearchSpec(CgrParams.from_v1(3000)))
    assert time.perf_counter() - start < 2


def _verdict(vec):
    return verify_mds(build_code_array(params_for_offset_length(len(vec)), vec)).is_mds


def test_validate_fixture_set_defaults():
    # Every built-in vector lays out an MDS code.
    assert {name: _verdict(vec) for name, vec in BUILTIN_VECTORS.items()} == dict.fromkeys(
        BUILTIN_VECTORS, True
    )


def test_validate_fixture_set_flags_bad_vector():
    assert not _verdict((0, 0, 0, 0, 0))
