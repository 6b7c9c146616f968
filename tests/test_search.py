"""Offset-vector search and the built-in fixture set."""

from __future__ import annotations

import importlib
import itertools

import pytest

from cgrcode import (
    BUILTIN_VECTORS,
    BudgetExceededError,
    CgrParams,
    SearchSpec,
    SearchStats,
    build_code_array,
    search,
    validate_fixture_set,
    verify_mds,
)
from cgrcode.rng import Lcg
from cgrcode.search import params_for_offset_length


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
    ],
)
def test_search_matches_a_reference_scan(spec):
    # The reference builds and verifies a full code array per candidate; seed
    # 50 gives the v1 = 4 run one hit in its 1,000 draws.
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
    valid = [vec for vec in candidates if verify_mds(build_code_array(params, vec))]
    vectors, stats = search(spec)
    assert [tuple(v) for v in vectors] == valid
    assert stats == SearchStats(len(candidates), len(valid), space)


@pytest.mark.parametrize("limits", [{"strategy": "random", "max_trials": -5}, {"stop_after": -1}])
def test_negative_limits_are_rejected(limits):
    with pytest.raises(ValueError):
        search(SearchSpec(params=CgrParams.from_v1(2), **limits))


def test_unknown_strategy_is_rejected_before_any_layout(monkeypatch):
    def no_layout(params):
        raise AssertionError("search laid out a grid for a spec it rejects")

    # The package's search attribute is the function, so reach the module.
    monkeypatch.setattr(importlib.import_module("cgrcode.search"), "map_unshifted", no_layout)
    with pytest.raises(ValueError, match="unknown strategy"):
        search(SearchSpec(params=CgrParams.from_v1(60), strategy="bogus"))


def test_budget_guard():
    spec = SearchSpec(params=CgrParams.from_v1(4), fix_prefix=False)
    with pytest.raises(BudgetExceededError):
        search(spec)
    with pytest.raises(BudgetExceededError):
        search(SearchSpec(params=CgrParams.from_v1(2), fix_prefix=False), budget=100)


def test_validate_fixture_set_defaults():
    results = validate_fixture_set()
    assert set(results) == set(BUILTIN_VECTORS)
    assert all(res.is_mds for res in results.values())


def test_validate_fixture_set_flags_bad_vector():
    results = validate_fixture_set({"zeros": (0, 0, 0, 0, 0)})
    assert not results["zeros"].is_mds
