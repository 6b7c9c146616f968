"""CGR graph construction and perfect one-factorizations."""

from __future__ import annotations

import itertools

import pytest

from cgrcode import (
    NEG_INF,
    POS_INF,
    CgrParams,
    build_cgr,
    pif_factorize,
)


def test_params_validation():
    with pytest.raises(ValueError):
        CgrParams.from_v1(3)
    with pytest.raises(ValueError):
        CgrParams.from_v1(0)
    with pytest.raises(ValueError):
        CgrParams(2, 6)
    with pytest.raises(ValueError):
        CgrParams(4.0, 7.0)
    params = CgrParams.from_v1(4)
    assert (params.v1, params.v2) == (4, 7)
    assert params.num_vertices == 28
    assert params.num_rows == 14


def test_two_ring_graph_layout():
    graph = build_cgr(CgrParams.from_v1(2))
    assert graph.vertex_sets == ((0, 1, 2, 3, 4), (5, 6, 7, 8, 9))
    assert graph.ring_edges[0] == ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0))
    assert graph.ring_edges[1] == ((5, 6), (6, 7), (7, 8), (8, 9), (9, 5))
    assert list(graph.inter_ring_edges) == [(0, 1)]
    assert graph.inter_ring_edges[(0, 1)] == ((0, 5), (1, 6), (2, 7), (3, 8), (4, 9))


def test_edge_list_order_and_counts():
    graph = build_cgr(CgrParams.from_v1(2))
    edges = graph.edge_list()
    assert len(edges) == 15  # 2 rings * 5 + 1 pair * 5
    assert edges[0] == (0, 1)
    assert edges[4] == (4, 0)
    assert edges[10] == (0, 5)


def test_graph_is_regular():
    params = CgrParams.from_v1(4)
    graph = build_cgr(params)
    degree: dict[int, int] = {}
    for a, b in graph.edge_list():
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    assert set(degree) == set(range(params.num_vertices))
    assert set(degree.values()) == {params.v1 + 1}


def test_wheel_factorization_for_four_rings():
    factorization = pif_factorize(4)
    assert list(vars(factorization)) == ["factors"]
    assert factorization.order == 6
    assert factorization.factors == (
        ((NEG_INF, 0), (1, POS_INF), (2, 3)),
        ((NEG_INF, 1), (0, 2), (3, POS_INF)),
        ((NEG_INF, 2), (1, 3), (0, POS_INF)),
        ((NEG_INF, 3), (2, POS_INF), (0, 1)),
        ((NEG_INF, POS_INF), (0, 3), (1, 2)),
    )
    assert [factor[0][1] for factor in factorization.factors] == [0, 1, 2, 3, POS_INF]


def _unions_to_one_cycle(f1, f2, order: int) -> bool:
    """True iff the union of two perfect matchings is a single cycle through
    all order vertices."""
    adjacency: dict = {}
    for a, b in itertools.chain(f1, f2):
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    assert all(len(nbrs) == 2 for nbrs in adjacency.values())
    start = next(iter(adjacency))
    prev, cur, steps = None, start, 0
    while True:
        a, b = adjacency[cur]
        prev, cur = cur, b if a == prev else a
        steps += 1
        if cur == start:
            return steps == order


def _check_perfect(v1: int) -> None:
    factorization = pif_factorize(v1)
    labels = set(range(v1)) | {NEG_INF, POS_INF}
    assert factorization.order == v1 + 2
    assert len(factorization.factors) == v1 + 1
    # Every factor is a perfect matching over all v1 + 2 labels.
    for factor in factorization.factors:
        seen = [v for edge in factor for v in edge]
        assert set(seen) == labels
        assert len(seen) == len(labels)
    # Every factor pair unions to one Hamiltonian cycle.
    for f1, f2 in itertools.combinations(factorization.factors, 2):
        assert _unions_to_one_cycle(f1, f2, len(labels))


@pytest.mark.parametrize("v1", [2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24])
def test_factorization_is_perfect(v1):
    _check_perfect(v1)


def test_wheel_is_perfect_exactly_when_v1_plus_one_is_prime():
    # pif_factorize uses the wheel whenever v1 + 1 is prime and never checks
    # it at run time, so the theorem it relies on is checked here, on a wheel
    # built independently: factor p of Z_n plus a point at infinity holds
    # (inf, p) and the pairs {p - k, p + k}.
    for v1 in range(2, 41, 2):
        n = v1 + 1
        wheel = [
            [("inf", p)] + [((p - k) % n, (p + k) % n) for k in range(1, v1 // 2 + 1)]
            for p in range(n)
        ]
        perfect = all(
            _unions_to_one_cycle(f1, f2, v1 + 2) for f1, f2 in itertools.combinations(wheel, 2)
        )
        prime = all(n % d for d in range(2, n))
        assert perfect == prime, v1


def test_factorization_respects_placement():
    placement = (2, 0, POS_INF, 1, 3)
    factorization = pif_factorize(4, placement)
    # Factor p holds the center edge for the label at cycle position p.
    assert [factor[0] for factor in factorization.factors] == [
        (NEG_INF, 2), (NEG_INF, 0), (NEG_INF, POS_INF), (NEG_INF, 1), (NEG_INF, 3)
    ]
    # Still a cover of all 15 edges of K_6, each edge once.
    edges = [frozenset(edge) for factor in factorization.factors for edge in factor]
    assert len(edges) == len(set(edges)) == 15


def test_placement_validation():
    with pytest.raises(ValueError):
        pif_factorize(4, (0, 1, 2, 3))  # wrong length
    with pytest.raises(ValueError):
        pif_factorize(4, (0, 1, 2, 3, 3))  # not a bijection
    with pytest.raises(ValueError):
        pif_factorize(4, (0, 1, 2, 3, 4))  # missing the sentinel
    with pytest.raises(ValueError):
        pif_factorize(3)


@pytest.mark.parametrize(
    "placement, entry",
    [((False, True, POS_INF), "False"), ((0, 1.0, POS_INF), "1.0"), ((0, "1", POS_INF), "'1'")],
)
def test_a_placement_entry_that_is_not_an_int_is_named(placement, entry):
    # Bools and floats equal to a label once came back as factor labels;
    # only an int or POS_INF labels a cycle position.
    with pytest.raises(ValueError, match=rf"^placement entry {entry} is neither an int nor POS_INF$"):
        pif_factorize(2, placement)


@pytest.mark.parametrize("v1", [4.0, 6.0])
def test_a_float_size_is_a_value_error(v1):
    # CgrParams owns the v1 rule: a float is rejected, not passed on to
    # range() as a TypeError.
    with pytest.raises(ValueError, match="must be ints"):
        pif_factorize(v1)


def test_searched_fallback_keeps_center_convention():
    # The order-10 wheel is not perfect, so this exercises the frozen table;
    # the factor-to-center convention must be preserved.
    factorization = pif_factorize(8)
    assert [factor[0][1] for factor in factorization.factors] == list(range(8)) + [POS_INF]


def test_searched_fallback_fails_fast_without_a_result():
    # The order-28 wheel is not perfect (27 is not prime) and the frozen
    # table has no entry for v1 = 26; it must raise rather than search.
    with pytest.raises(ValueError, match="order 28"):
        pif_factorize(26)

