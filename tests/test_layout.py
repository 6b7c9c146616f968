"""Array layout: unshifted mapping, offset application, offset derivation."""

from __future__ import annotations

import pytest

from cgrcode import (
    NEG_INF,
    POS_INF,
    Cell,
    CgrParams,
    CodeArray,
    Factorization,
    OffsetVector,
    apply_offsets,
    build_cgr,
    build_code_array,
    contract,
    derive_offsets,
    dualize,
    map_unshifted,
    pif_factorize,
    puncture,
)
from cgrcode.layout import canonical_prefix
from conftest import placements_and_pis


def test_cell_constructors():
    info = Cell.info(7)
    assert info.is_info and info.vertices == (7,)
    parity = Cell.parity((4, 0))
    assert parity.is_parity and parity.vertex_set == {0, 4}
    empty = Cell.empty()
    assert empty.is_empty and empty.vertices == ()
    with pytest.raises(ValueError):
        Cell.parity((3,))


def test_value_types_hold_only_their_data():
    assert list(vars(Cell((3, 4)))) == ["vertices"]
    kinds = [Cell(members).kind for members in [(), (3,), (3, 4), (1, 2, 3)]]
    assert kinds == ["empty", "info", "parity", "parity"]
    vector = OffsetVector((0, 1, 2, 2, 4))
    assert isinstance(vector, tuple) and not hasattr(vector, "offsets")
    assert vector == (0, 1, 2, 2, 4) and repr(vector) == "(0, 1, 2, 2, 4)"


def test_lazy_views_are_computed_once_and_change_no_comparison():
    # rows, plan and the info ids are computed on first read and stored on
    # the instance; reading them leaves ==, hash and repr as they were.
    array = build_code_array(CgrParams.from_v1(4), derive_offsets(pif_factorize(4)))
    twin = CodeArray(array.params, array.offsets, array.masks)
    before = (repr(array), hash(array))
    assert array.plan is array.plan and array.rows is array.rows
    assert array.info_ids() == list(range(28)) and array.info_ids() is not array.info_ids()
    assert (repr(array), hash(array)) == before == (repr(twin), hash(twin))
    assert array == twin and twin == array
    assert CodeArray.plan.__doc__.startswith("The mask grid compiled for the codec")


@pytest.mark.parametrize("v1", [2, 4, 6])
def test_plan_row_groups_hold_the_single_and_two_bit_cells(v1):
    array = build_code_array(CgrParams.from_v1(v1), derive_offsets(pif_factorize(v1)))
    for view in (array, dualize(array), puncture(array), contract(array)):
        plan = view.plan
        units = [(r, c, p) for r, cells in plan.unit_rows for c, p in enumerate(cells) if p is not None]
        pairs = [(r, c, *pq) for r, cells in plan.pair_rows for c, pq in enumerate(cells) if pq]
        assert units == list(plan.units) and pairs == list(plan.pairs)
        for _, cells in plan.unit_rows + plan.pair_rows:
            assert len(cells) == view.num_columns and cells.count(None) < len(cells)
        assert [r for r, _ in plan.pair_rows] == sorted({r for r, *_ in plan.pairs})


def test_repeated_info_cells_count_once():
    # A hand-built grid may carry one variable in several single-bit cells.
    grid = CodeArray(CgrParams.from_v1(2), None, ((1, 2, 1), (4, 3, 2), (4, 0, 5)))
    assert grid.info_ids() == [0, 1, 2]
    assert grid.plan.unit_rows == ((0, (0, 1, 0)), (1, (2, None, 1)), (2, (2, None, None)))
    assert grid.plan.pair_rows == ((1, (None, (0, 1), None)), (2, (None, None, (0, 2))))


def test_unshifted_two_ring_layout():
    array = map_unshifted(CgrParams.from_v1(2))
    assert array.num_rows == 5
    assert array.num_columns == 5
    assert [cell.vertices[0] for cell in array.rows[0]] == [0, 1, 2, 3, 4]
    assert [cell.vertices[0] for cell in array.rows[1]] == [5, 6, 7, 8, 9]
    assert [cell.vertices for cell in array.rows[2]] == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    assert [cell.vertices for cell in array.rows[4]] == [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
    assert array.info_ids() == list(range(10))
    assert not array.is_dual()


@pytest.mark.parametrize("v1", range(2, 25, 2))
def test_variable_ids_are_bit_positions(v1):
    # Each cell's members are exactly its mask's bits, so a variable's id is
    # its bit position: the vertex ids in the primal, and in the dual the
    # edge indices in edge_list order, the edge at unshifted parity position
    # (r, u) being number (r - v1) * v2 + u.
    params = CgrParams.from_v1(v1)
    v2 = params.v2
    primal = build_code_array(params, derive_offsets(pif_factorize(v1)))
    dual = dualize(primal)
    edges = build_cgr(params).edge_list()
    incident = {v: set() for v in range(params.num_vertices)}
    for e, edge in enumerate(edges):
        for v in edge:
            incident[v].add(e)
    assert primal.info_ids() == list(range(params.num_vertices))
    assert dual.info_ids() == list(range(len(edges)))
    for array in (primal, dual):
        for cells, masks in zip(array.rows, array.masks):
            assert [sum(1 << v for v in cell.vertices) for cell in cells] == list(masks)
    for r, k in enumerate(primal.offsets):
        for c in range(v2):
            u = (c + k) % v2
            primal_cell, dual_cell = primal.rows[r][c], dual.rows[r][c]
            if r < v1:
                assert primal_cell.vertices == (r * v2 + u,)
                assert dual_cell.vertex_set == incident[r * v2 + u]
            else:
                e = (r - v1) * v2 + u
                assert primal_cell.vertex_set == set(edges[e])
                assert dual_cell.vertices == (e,)


def test_apply_offsets_rotates_left():
    base = map_unshifted(CgrParams.from_v1(2))
    shifted = apply_offsets(base, (0, 1, 0, 0, 0))
    assert [cell.vertices[0] for cell in shifted.rows[1]] == [6, 7, 8, 9, 5]
    assert tuple(shifted.offsets) == (0, 1, 0, 0, 0)


def test_apply_offsets_composes_additively():
    base = map_unshifted(CgrParams.from_v1(2))
    once = apply_offsets(apply_offsets(base, (0, 1, 2, 2, 4)), (1, 1, 1, 1, 1))
    combined = apply_offsets(base, (1, 2, 3, 3, 0))
    assert once == combined


def test_offset_vector_validation():
    params = CgrParams.from_v1(2)
    with pytest.raises(ValueError):
        OffsetVector((0, 1, 2)).validate_for(params)
    with pytest.raises(ValueError):
        OffsetVector((0, 1, 2, 2, 5)).validate_for(params)
    for entry in (4.0, True):
        with pytest.raises(ValueError):
            OffsetVector((0, 1, 2, 2, entry)).validate_for(params)
    zeros = OffsetVector.zeros(params)
    assert tuple(zeros) == (0, 0, 0, 0, 0)
    assert len(zeros) == 5 and zeros[3] == 0


def test_build_code_array_places_cells():
    array = build_code_array(CgrParams.from_v1(2), (0, 1, 2, 2, 4))
    assert [cell.vertices[0] for cell in array.rows[1]] == [6, 7, 8, 9, 5]
    assert array.rows[2][2].vertices == (4, 0)  # wrap edge keeps construction order
    assert [cell.vertices for cell in array.rows[4]] == [(4, 9), (0, 5), (1, 6), (2, 7), (3, 8)]
    assert array.column(0) == [row[0] for row in array.rows]


def test_derive_offsets_prefix_and_two_ring_vector():
    vector = derive_offsets(pif_factorize(2))
    assert tuple(vector) == (0, 1, 2, 2, 4)
    vector4 = derive_offsets(pif_factorize(4))
    assert tuple(vector4)[:8] == canonical_prefix(4) == (0, 1, 2, 3, 4, 4, 4, 4)


def test_derive_offsets_known_assignments():
    factorization = pif_factorize(4)
    assert tuple(derive_offsets(factorization, (1, 3, 0, 2))) == (
        0, 1, 2, 3, 4, 4, 4, 4, 2, 3, 6, 6, 0, 1,
    )
    assert tuple(derive_offsets(factorization)) == (
        0, 1, 2, 3, 4, 4, 4, 4, 3, 1, 6, 6, 2, 0,
    )


def test_derive_offsets_validates_pi():
    factorization = pif_factorize(4)
    with pytest.raises(ValueError):
        derive_offsets(factorization, (0, 1, 2))
    with pytest.raises(ValueError):
        derive_offsets(factorization, (0, 1, 2, 2))
    with pytest.raises(ValueError):
        derive_offsets(factorization, (1, 2, 3, 4))


def test_derive_offsets_needs_each_center_edge_first():
    factors = list(pif_factorize(4).factors)
    first, *rest = factors[1]
    factors[1] = (*rest, first)
    with pytest.raises(ValueError, match="factor 1 does not start with its center edge"):
        derive_offsets(Factorization(tuple(factors)))


def test_derive_offsets_names_a_ring_pair_no_factor_holds():
    factors = list(pif_factorize(4).factors)
    factors[0] = factors[0][:-1]  # drops the edge (2, 3)
    with pytest.raises(ValueError, match=r"no factor holds ring pair \(2, 3\)"):
        derive_offsets(Factorization(tuple(factors)))


def test_derive_offsets_reads_edges_either_way_round():
    factorization = pif_factorize(6)
    flipped = Factorization(
        tuple((center, *((b, a) for a, b in edges)) for center, *edges in factorization.factors)
    )
    assert derive_offsets(flipped) == derive_offsets(factorization)


def _reference_offsets(factorization, pi=None):
    """Offset derivation as first written: a map from each edge, as a label
    set, to its factor, then a scan of that factor for the label paired
    with NEG_INF."""
    v1 = factorization.order - 2
    pi = tuple(range(v1)) if pi is None else tuple(pi)
    factor_of = {
        frozenset(edge): idx for idx, factor in enumerate(factorization.factors) for edge in factor
    }

    def center_of(idx):
        for a, b in factorization.factors[idx]:
            if NEG_INF in (a, b):
                return b if a == NEG_INF else a

    entries = list(range(v1)) + [v1] * v1
    for i in range(v1):
        for j in range(i + 1, v1):
            center = center_of(factor_of[frozenset((i, j))])
            entries.append(v1 + 2 if center == POS_INF else pi[int(center)])
    return tuple(entries)


@pytest.mark.parametrize("v1", range(2, 25, 2))
def test_derive_offsets_matches_the_edge_lookup_reference(v1):
    for placement, pi in placements_and_pis(v1):
        factorization = pif_factorize(v1, placement)
        assert tuple(derive_offsets(factorization, pi)) == _reference_offsets(factorization, pi)
