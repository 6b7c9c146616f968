"""Array layout: unshifted mapping, offset application, offset derivation."""

from __future__ import annotations

import importlib
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgrcode import (
    NEG_INF,
    POS_INF,
    Cell,
    CgrParams,
    CodeArray,
    Factorization,
    OffsetVector,
    build_cgr,
    build_code_array,
    contract,
    derive_offsets,
    dualize,
    map_unshifted,
    pif_factorize,
    puncture,
)
from cgrcode.cli import mask_records
from cgrcode.codespec import from_json, from_obj, to_json
from cgrcode.layout import (
    MAX_LAYOUT_BITS,
    bits_of,
    canonical_prefix,
    cell_members,
    require_buildable,
    rotate_rows,
)
from conftest import mislabelled_v1_4_grids, no_layout, placements_and_pis


def test_cell_constructors():
    info = Cell((7,))
    assert not info.is_parity and info.vertices == (7,)
    parity = Cell((4, 0))
    assert parity.is_parity and set(parity.vertices) == {0, 4}
    empty = Cell(())
    assert not empty.is_parity and empty.vertices == ()


def test_value_types_hold_only_their_data():
    assert list(vars(Cell((3, 4)))) == ["vertices"]
    # A cell's kind is no field of it: the CLI's cell records derive it
    # from the member count.
    records = mask_records([[0, 1 << 3, 1 << 3 | 1 << 4, 0b1110]], 5)[0]
    assert [record["kind"] for record in records] == ["empty", "info", "parity", "parity"]
    vector = OffsetVector((0, 1, 2, 2, 4))
    assert isinstance(vector, tuple) and not hasattr(vector, "offsets")
    assert vector == (0, 1, 2, 2, 4) and repr(vector) == "(0, 1, 2, 2, 4)"


def test_lazy_views_are_computed_once_and_change_no_comparison():
    # rows, plan and the info ids are computed on first read and stored on
    # the instance; reading them leaves ==, hash and repr as they were.
    params = CgrParams.from_v1(4)
    array = build_code_array(params, derive_offsets(pif_factorize(4)))
    twin = CodeArray(array.params, array.offsets, array.masks)
    before = (repr(array), hash(array))
    assert array.plan is array.plan and array.rows is array.rows
    assert array.info_ids() == list(range(28)) and array.info_ids() is not array.info_ids()
    assert (repr(array), hash(array)) == before == (repr(twin), hash(twin))
    assert array == twin and twin == array
    assert CodeArray.plan.__doc__.startswith("The mask grid compiled for the codec")
    # built: stored by build_code_array, dualize and from_json; any other
    # grid checks it on first read, so a field-equal copy reads True, its
    # rows held as lists or as tuples.
    dual = dualize(array)
    for stored in (array, dual, dualize(dual), from_json(to_json(array)), from_json(to_json(dual))):
        assert vars(stored)["built"] is True
    dual_twin = CodeArray(params, dual.offsets, dual.masks)
    flipped = [list(row) for row in array.masks]
    flipped[2][0] ^= 1 << 9  # as in test_to_json_refuses_arrays_no_header_describes
    hand_built = CodeArray(params, array.offsets, tuple(map(tuple, flipped)))
    plus_one = tuple((k + 1) % params.v2 for k in array.offsets)
    at_sum = CodeArray(params, plus_one, rotate_rows(array.masks, [1] * params.num_rows))
    as_lists = CodeArray(params, array.offsets, [list(row) for row in array.masks])
    expected = [(twin, True), (dual_twin, True), (at_sum, True), (as_lists, True)]
    expected += [(hand_built, False), (puncture(array), False), (contract(array), False)]
    for grid, built in expected:
        assert "built" not in vars(grid)
        before = (repr(grid), hash(grid))
        assert grid.built is built and vars(grid)["built"] is built
        assert (repr(grid), hash(grid)) == before
    assert twin == array and hash(twin) == hash(array) and dual_twin == dual and hand_built != array
    assert to_json(twin) == to_json(array) and to_json(dual_twin) == to_json(dual)


def _reference_dual_masks(params, offsets):
    """The dual grid derived from the graph alone, as a reference for dualize:
    edge e = (r - v1)*v2 + c, its index in edge_list, at unshifted parity
    position (r, c), and each vertex cell the OR of the bits of its incident
    edges, every row rotated left by its offset."""
    v1, v2 = params.v1, params.v2
    incident = [0] * params.num_vertices
    for e, edge in enumerate(build_cgr(params).edge_list()):
        for v in edge:
            incident[v] |= 1 << e
    rows = [incident[j * v2 : (j + 1) * v2] for j in range(v1)]
    rows += [[1 << (t * v2 + c) for c in range(v2)] for t in range(params.num_rows - v1)]
    return tuple(tuple(row[k:] + row[:k]) for row, k in zip(rows, offsets))


@st.composite
def _headers(draw):
    params = CgrParams.from_v1(draw(st.sampled_from(range(2, 13, 2))))
    n = params.num_rows
    vector = draw(st.lists(st.integers(0, params.v2 - 1), min_size=n, max_size=n))
    return params, tuple(vector), draw(st.booleans())


def _built_array(header):
    params, vector, dual = header
    array = build_code_array(params, vector)
    return dualize(array) if dual else array


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(header=_headers(), other=_headers(), same=st.sampled_from(["all", "offsets", "none"]))
def test_header_only_arrays_lay_out_the_grid_they_describe(header, other, same):
    # A built array holds its header until masks is read; the grid it then
    # lays out, and how it compares, must match references that no lazy read
    # computes: the unshifted layout rotated, the graph's dual, a hand-built copy.
    params, vector, dual = header
    if same == "all":
        other = header
    elif same == "offsets":
        other = (params, vector, not dual)
    array, twin = _built_array(header), _built_array(other)
    assert array.is_dual() is dual and (array.num_rows, array.num_columns) == (params.num_rows, params.v2)
    again = dualize(dualize(array))
    assert all("masks" not in vars(built) for built in (array, twin, again))
    if dual:
        assert array.masks == _reference_dual_masks(params, vector)
    else:
        assert array.masks == tuple(map(tuple, rotate_rows(map_unshifted(params), vector)))
    assert (array.masks == twin.masks) is (header == other)
    assert (array == twin) is (header == other) and (twin == array) is (header == other)
    assert again.masks == array.masks and again == array
    copy = CodeArray(params, array.offsets, array.masks)
    fresh = _built_array(header)
    for built in (array, fresh):
        assert built == copy and copy == built and hash(built) == hash(copy)
    assert copy.is_dual() is dual and (copy.num_rows, copy.num_columns) == (array.num_rows, array.num_columns)


@pytest.mark.parametrize("v1", [2, 4, 6])
def test_plan_row_groups_hold_the_single_and_two_bit_cells(v1):
    # The row groups and pair_ids hold the grid's single-bit and two-bit
    # cells, wides its wider ones, each in row-major order, and gather picks
    # for each cell, row-major, its own entry of the values, the pair
    # values, the wide values and the trailing 0.
    array = build_code_array(CgrParams.from_v1(v1), derive_offsets(pif_factorize(v1)))
    for view in (array, dualize(array), puncture(array), contract(array)):
        plan = view.plan
        nonempty = [(r, c, m) for r, row in enumerate(view.masks) for c, m in enumerate(row) if m]
        units = [(r, c, m.bit_length() - 1) for r, c, m in nonempty if m.bit_count() == 1]
        pairs = [(r, c, *bits_of(m)) for r, c, m in nonempty if m.bit_count() == 2]
        assert [(r, c, p) for r, cells in plan.unit_rows for c, p in enumerate(cells) if p is not None] == units
        assert [(r, c, *pq) for r, cells in plan.pair_rows for c, pq in enumerate(cells) if pq] == pairs
        assert list(plan.pair_ids) == [(p, q) for _, _, p, q in pairs]
        assert list(plan.wides) == [tuple(bits_of(m)) for _, _, m in nonempty if m.bit_count() > 2]
        for _, cells in plan.unit_rows + plan.pair_rows:
            assert len(cells) == view.num_columns and cells.count(None) < len(cells)
        assert [r for r, _ in plan.pair_rows] == sorted({r for r, *_ in pairs})
        assert plan.ids == set(view.info_ids()) and plan.span == range(max(view.info_ids()) + 1)
        source = [("unit", p) for p in plan.span] + [("pair", pq) for pq in plan.pair_ids]
        source += [("wide", ids) for ids in plan.wides] + [("empty", ())]
        kinds = ("empty", "unit", "pair", "wide")
        expected = [
            (kinds[min(m.bit_count(), 3)], m.bit_length() - 1 if m.bit_count() == 1 else tuple(bits_of(m)))
            for row in view.masks
            for m in row
        ]
        assert list(plan.gather(source)) == expected


@pytest.mark.parametrize("dual", [False, True])
def test_a_copy_with_list_rows_equals_its_built_twin(dual):
    # Rows compare as tuples: a hand-built copy whose rows are lists equals
    # the built array, hashes like it, and dualize twice gives it back.
    params = CgrParams.from_v1(4)
    built = build_code_array(params, derive_offsets(pif_factorize(4)))
    built = dualize(built) if dual else built
    copy = CodeArray(params, built.offsets, [list(row) for row in built.masks])
    assert copy.built and copy.is_dual() is dual
    assert copy == built and built == copy and hash(copy) == hash(built)
    # Offsets given as a list are stored as an OffsetVector: once such a copy
    # read built yet compared unequal, and could not be hashed.
    listed = CodeArray(params, list(built.offsets), built.masks)
    assert listed.built and listed == built and built == listed and hash(listed) == hash(built)
    assert dualize(dualize(copy)) == copy and dualize(copy) == dualize(built)
    flipped = [list(row) for row in built.masks]
    flipped[0][0], flipped[0][1] = flipped[0][1], flipped[0][0]
    assert CodeArray(params, built.offsets, flipped) != built


def test_built_arrays_compare_by_header_with_no_layout(monkeypatch):
    # Two built arrays are equal exactly when their headers and dual flags
    # agree, so comparing them, dualize twice included, lays out no grid.
    params = CgrParams.from_v1(24)
    offsets = derive_offsets(pif_factorize(24))
    layout = importlib.import_module("cgrcode.layout")
    message = "laid out a grid to compare built arrays"
    no_layout(monkeypatch, layout, ("map_unshifted", "bit_rows"), message)
    primal = build_code_array(params, offsets)
    dual = dualize(primal)
    twin = build_code_array(params, offsets)
    assert primal == twin and hash(primal) == hash(twin)
    assert primal != dual and dual != primal
    assert dualize(dualize(primal)) == primal and dualize(dualize(dual)) == dual


@pytest.mark.parametrize(
    "masks", [(), [], ((),), ((1, 2), (4,)), ((1,), (2, 4)), [[1, 2], [4, 8], []]], ids=repr
)
def test_a_grid_must_be_rows_of_one_nonzero_length(masks):
    # Checked once, when the array is made, so verify_mds, encode and decode
    # never read an empty or ragged grid.
    with pytest.raises(ValueError, match="^masks must be one or more rows of the same nonzero length$"):
        CodeArray(CgrParams.from_v1(2), None, masks)


def test_repeated_info_cells_count_once():
    # A hand-built grid may carry one variable in several single-bit cells.
    grid = CodeArray(CgrParams.from_v1(2), None, ((1, 2, 1), (4, 3, 2), (4, 0, 5)))
    assert grid.info_ids() == [0, 1, 2]
    assert grid.plan.unit_rows == ((0, (0, 1, 0)), (1, (2, None, 1)), (2, (2, None, None)))
    assert grid.plan.pair_rows == ((1, (None, (0, 1), None)), (2, (None, None, (0, 2))))


def test_unshifted_two_ring_layout():
    rows = map_unshifted(CgrParams.from_v1(2))
    assert [len(row) for row in rows] == [5] * 5
    members = [[cell_members(m, 5) for m in row] for row in rows]
    assert members[0] == [[0], [1], [2], [3], [4]]
    assert members[1] == [[5], [6], [7], [8], [9]]
    assert members[2] == [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]
    assert members[4] == [[0, 5], [1, 6], [2, 7], [3, 8], [4, 9]]


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
                assert set(dual_cell.vertices) == incident[r * v2 + u]
            else:
                e = (r - v1) * v2 + u
                assert set(primal_cell.vertices) == set(edges[e])
                assert dual_cell.vertices == (e,)


def test_build_code_array_checks_the_vector_before_any_layout(monkeypatch):
    # A v1 = 196 grid would take about 19 GB.
    layout = importlib.import_module("cgrcode.layout")
    message = "build_code_array laid out a grid for a vector it rejects"
    no_layout(monkeypatch, layout, ("map_unshifted",), message)
    with pytest.raises(ValueError, match="offset vector length 1 != row count 19502"):
        build_code_array(CgrParams.from_v1(196), (0,))


def test_oversize_grids_are_refused_before_any_layout():
    # v1 = 116 builds in about 1 s at 1 GB peak RSS; v1 = 118 is over the bound.
    require_buildable(CgrParams.from_v1(116))
    start = time.perf_counter()
    for v1 in (118, 196, 3000):
        params = CgrParams.from_v1(v1)
        assert params.num_rows * params.v2 * params.num_vertices > MAX_LAYOUT_BITS
        with pytest.raises(ValueError, match=rf"a v1 = {v1} array lays out over \d+ mask bits"):
            map_unshifted(params)
    params = CgrParams.from_v1(196)
    with pytest.raises(ValueError, match="lays out over"):
        build_code_array(params, OffsetVector((0,) * params.num_rows))
    assert time.perf_counter() - start < 2


def test_oversize_duals_are_refused_before_any_layout(monkeypatch):
    # A dual is num_rows * v2 masks of (num_rows - v1) * v2 bits: v1 = 58 is
    # the largest size under the bound, and v1 = 60 the first over it.
    require_buildable(CgrParams.from_v1(58), dual=True)
    params = CgrParams.from_v1(60)
    primal = build_code_array(params, OffsetVector((0,) * params.num_rows))
    header = {"version": "2", "v1": 60, "v2": 63, "dual": True, "offset_vector": list(primal.offsets)}
    layout = importlib.import_module("cgrcode.layout")
    no_layout(monkeypatch, layout, ("bit_rows",), "laid out a grid for a dual over the bound")
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"a v1 = 60 dual lays out over \d+ mask bits"):
        dualize(primal)
    with pytest.raises(ValueError, match=r"a v1 = 60 dual lays out over \d+ mask bits"):
        from_obj(header)  # before it lays the dual out
    assert time.perf_counter() - start < 2


def test_dualize_refuses_a_full_grid_its_offsets_do_not_describe():
    # A built grid is read by its header, so the header must describe the
    # grid: a 3-entry vector for a 5-row v1 = 2 grid once gave a dual whose
    # num_rows read 5 while its masks held 3 rows, and a grid laid out at
    # other offsets than its header's once gave a dual that was not its own.
    params = CgrParams.from_v1(2)
    built = build_code_array(params, (0, 1, 2, 2, 4))
    cases = [
        ((0, 1, 2), built.masks, "offset vector length 3 != row count 5"),
        (None, built.masks, "offset vector length 0 != row count 5"),
        (built.offsets, built.masks[:3], "dualize expects a grid its header describes"),
    ]
    grids = [(CodeArray(params, offsets, masks), message) for offsets, masks, message in cases]
    mislabelled = mislabelled_v1_4_grids().values()
    grids += [(grid, "dualize expects a grid its header describes") for grid in mislabelled]
    for grid, message in grids:
        assert not grid.built
        with pytest.raises(ValueError, match=message):
            dualize(grid)
        with pytest.raises(ValueError, match="only a built array or its dual"):
            to_json(grid)
    dual = dualize(CodeArray(params, list(built.offsets), built.masks))
    assert dual == dualize(built) and dual.num_rows == len(dual.masks) == 5


def test_offset_vector_validation():
    params = CgrParams.from_v1(2)
    with pytest.raises(ValueError):
        OffsetVector((0, 1, 2)).validate_for(params)
    with pytest.raises(ValueError):
        OffsetVector((0, 1, 2, 2, 5)).validate_for(params)
    for entry in (4.0, True):
        with pytest.raises(ValueError):
            OffsetVector((0, 1, 2, 2, entry)).validate_for(params)


def test_build_code_array_places_cells():
    array = build_code_array(CgrParams.from_v1(2), (0, 1, 2, 2, 4))
    assert [cell.vertices[0] for cell in array.rows[1]] == [6, 7, 8, 9, 5]
    assert array.rows[2][2].vertices == (4, 0)  # wrap edge keeps construction order
    assert [cell.vertices for cell in array.rows[4]] == [(4, 9), (0, 5), (1, 6), (2, 7), (3, 8)]


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


@pytest.mark.parametrize(
    "pi, entry", [((1.0, 0.0, 2.0, 3.0), "1.0"), ((0, True, 2, 3), "True"), ((0, 1, "2", 3), "'2'")]
)
def test_derive_offsets_names_a_pi_entry_that_is_not_an_int(pi, entry):
    # A float pi once gave offsets such as 3.0, which build_code_array then
    # refused as an offset entry, not as an entry of pi.
    with pytest.raises(ValueError, match=rf"^pi entry {entry} is not an int$"):
        derive_offsets(pif_factorize(4), pi)


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
