"""Puncturing and contraction to the low-density compact form."""

from __future__ import annotations

import importlib
import itertools

import pytest

from cgrcode import (
    BUILTIN_VECTORS,
    CgrParams,
    CodeArray,
    ContractShapeError,
    ErasurePattern,
    OffsetVector,
    UnrecoverableError,
    build_code_array,
    contract,
    decode,
    derive_offsets,
    dualize,
    encode,
    erase,
    pif_factorize,
    puncture,
    verify_contracted_mds,
    verify_dual_mds,
)
from cgrcode.cli import render_array_text, render_cell
from cgrcode.rng import Lcg
from conftest import builtin_array, mislabelled_v1_4_grids, no_layout, placements_and_pis


def test_puncture_two_ring_array(k2_array):
    punctured = puncture(k2_array)
    assert punctured.num_rows == 5 and punctured.num_columns == 5
    survivors = {
        (r, c): render_cell(cell.vertices)
        for r, row in enumerate(punctured.rows)
        for c, cell in enumerate(row)
        if cell.vertices
    }
    assert survivors == {(0, 0): "0", (1, 4): "5", (4, 1): "0 ⊕ 5"}


def test_punctured_grid_renders_blank_cells_as_dashes(k2_array):
    assert render_array_text(puncture(k2_array)).splitlines() == [
        "offset vector: 0,1,2,2,4",
        "0\t-\t-\t-\t-",
        "-\t-\t-\t-\t5",
        "-\t-\t-\t-\t-",
        "-\t-\t-\t-\t-",
        "-\t0 ⊕ 5\t-\t-\t-",
    ]


def test_puncture_rejects_dual(k2_array):
    with pytest.raises(ValueError):
        puncture(dualize(k2_array))


def test_contract_rejects_dual(k2_array):
    with pytest.raises(ValueError, match="contract expects a primal array"):
        contract(dualize(k2_array))


def _reference_contract(array):
    """Contraction as first written: puncture, then group the nonempty
    cells of the punctured copy by column. Returns the columns and their
    parent indices, or the ContractShapeError message."""
    v1 = array.params.v1
    groups = {}
    for row in puncture(array).rows:
        for c, cell in enumerate(row):
            if cell.vertices:
                groups.setdefault(c, []).append(cell)
    shape = {c: len(groups[c]) for c in sorted(groups)}
    if len(shape) != v1 + 1 or set(shape.values()) != {v1 // 2}:
        return f"expected {v1 + 1} columns of {v1 // 2} cells, got {shape}"
    return tuple(tuple(groups[c]) for c in sorted(groups)), tuple(sorted(groups))


def _scan_path_inputs(array):
    """Grids contract scans, not built (CodeArray.built is False): the
    punctured array, and hand-built copies with a ring-edge row, which
    keeps no cell, or the last inter-ring row turned one more column."""
    v1, masks = array.params.v1, list(array.masks)
    grids = [puncture(array)]
    for r in (v1, len(masks) - 1):
        turned = masks[:r] + [masks[r][1:] + masks[r][:1]] + masks[r + 1 :]
        grids.append(CodeArray(array.params, array.offsets, tuple(turned)))
    assert not any(grid.built for grid in grids)
    return grids


def _contract_outcome(array):
    try:
        contracted = contract(array)
    except ContractShapeError as exc:
        return str(exc)
    return tuple(zip(*contracted.rows)), contracted.source_columns


@pytest.mark.parametrize("v1", range(2, 25, 2))
def test_contract_matches_the_puncture_then_group_reference(v1):
    # Every derived vector, under each placement and pi, contracts; copies
    # with one entry redrawn mostly do not, so shape errors are compared too.
    params = CgrParams.from_v1(v1)
    rng = Lcg(v1)
    vectors = [
        derive_offsets(pif_factorize(v1, placement), pi) for placement, pi in placements_and_pis(v1)
    ]
    for vector in vectors[:6]:
        vector = list(vector)
        vector[rng.randint(params.num_rows)] = rng.randint(params.v2)
        vectors.append(vector)
    arrays = [build_code_array(params, vector) for vector in vectors]
    arrays += [grid for array in arrays[:2] for grid in _scan_path_inputs(array)]
    for array in arrays:
        assert _contract_outcome(array) == _reference_contract(array)


def test_contract_matches_the_reference_on_builtins_and_zero_offsets(k2_params):
    arrays = [builtin_array(name) for name in BUILTIN_VECTORS]
    arrays += [grid for name in BUILTIN_VECTORS for grid in _scan_path_inputs(builtin_array(name))]
    arrays.append(build_code_array(k2_params, OffsetVector((0,) * k2_params.num_rows)))
    outcomes = [_contract_outcome(array) for array in arrays]
    assert outcomes == [_reference_contract(array) for array in arrays]
    assert isinstance(outcomes[-1], str)  # a shape error


def test_contract_two_ring_array(k2_array):
    contracted = contract(k2_array)
    assert contracted.source_columns == (0, 1, 4)
    assert [[render_cell(cell.vertices) for cell in col] for col in zip(*contracted.rows)] == [
        ["0"],
        ["0 ⊕ 5"],
        ["5"],
    ]
    assert contracted.info_ids() == [0, 5]
    assert verify_contracted_mds(contracted)


def test_contract_explicit_column_order(k2_array):
    contracted = contract(k2_array, (4, 0, 1))
    assert contracted.source_columns == (4, 0, 1)
    assert [render_cell(col[0].vertices) for col in zip(*contracted.rows)] == ["5", "0", "0 ⊕ 5"]


def test_contract_validates_column_order(k2_array):
    with pytest.raises(ValueError):
        contract(k2_array, (0, 1))
    with pytest.raises(ValueError):
        contract(k2_array, (0, 1, 2))


@pytest.mark.parametrize("order", [(0, True, 4), (0.0, 1.0, 4.0), (0, 1, 4.0), ("0", 1, 4)])
def test_contract_refuses_column_order_entries_that_are_not_ints(k2_array, order):
    # Each entry but the string compares equal to a column index; none may
    # reach source_columns, on the header path or the scan path.
    for array in (k2_array, puncture(k2_array)):
        with pytest.raises(ValueError, match=r"column_order entry .* is not an int"):
            contract(array, order)


def test_contract_of_a_built_array_lays_nothing_out(monkeypatch):
    # A built array's survivors follow from its header: contracting one,
    # with or without a column_order, good or bad, or with offsets that
    # break the shape, lays out no grid. A punctured grid is scanned as it
    # is: its empty cells show it is not built, so no primal is laid out
    # to compare it with.
    params = CgrParams.from_v1(24)
    offsets = derive_offsets(pif_factorize(24))
    laid = build_code_array(params, offsets)
    want = _reference_contract(laid)
    punctured = puncture(laid)
    layout = importlib.import_module("cgrcode.layout")
    no_layout(monkeypatch, layout, ("map_unshifted", "bit_rows"), "laid out a grid for a built array")
    array = build_code_array(params, offsets)
    assert _contract_outcome(array) == _contract_outcome(punctured) == want
    backwards = contract(array, want[1][::-1])
    assert backwards.source_columns == want[1][::-1]
    assert backwards.masks == tuple(row[::-1] for row in contract(array).masks)
    for order in (want[1][1:], (*want[1][1:], params.v2), (True, *want[1][1:])):
        with pytest.raises(ValueError, match="column_order"):
            contract(array, order)
    with pytest.raises(ContractShapeError, match="expected 25 columns of 12 cells"):
        contract(build_code_array(params, OffsetVector((0,) * params.num_rows)))


def test_contract_shape_error_on_degenerate_offsets(k2_params):
    array = build_code_array(k2_params, OffsetVector((0,) * k2_params.num_rows))
    with pytest.raises(ContractShapeError):
        contract(array)


@pytest.mark.parametrize("v1", [2, 4, 6])
def test_contracted_derived_arrays_are_mds(v1):
    params = CgrParams.from_v1(v1)
    array = build_code_array(params, derive_offsets(pif_factorize(v1)))
    contracted = contract(array)
    assert contracted.num_columns == v1 + 1
    assert all(len(col) == v1 // 2 for col in zip(*contracted.rows))
    assert verify_contracted_mds(contracted)


def test_verify_contracted_needs_two_columns(k2_array):
    contracted = contract(k2_array)
    lone = type(contracted)(
        contracted.params,
        contracted.offsets,
        tuple(row[:1] for row in contracted.masks),
        contracted.source_columns[:1],
    )
    with pytest.raises(ValueError):
        verify_contracted_mds(lone)



@pytest.mark.parametrize(
    "transform",
    [
        dualize,
        puncture,
        contract,
        verify_dual_mds,
    ],
    ids=["dualize", "puncture", "contract", "verify_dual_mds"],
)
def test_cgr_layout_transforms_reject_a_contracted_array(k4a_array, transform):
    # Each reads rows by the CGR layout, which a contracted grid has lost.
    with pytest.raises(ValueError, match="not a contracted one"):
        transform(contract(k4a_array))


def test_verify_dual_mds_rejects_a_punctured_array(k4a_array):
    # Its column pairs hold fewer than v1 * v2 cells, so the dual's verdict
    # cannot be read off the primal's. A punctured grid is not built, and
    # neither is one whose header does not describe it.
    punctured = puncture(k4a_array)
    for grid in (punctured, dualize(punctured), *mislabelled_v1_4_grids().values()):
        assert not grid.built
        with pytest.raises(ValueError, match="expects a full grid that its header describes"):
            verify_dual_mds(grid)


@pytest.mark.parametrize("v1", range(2, 25, 2))
def test_contracted_array_round_trips_every_tolerated_erasure(v1):
    # contract(canonical) is a (v1 + 1, 2) code over v1 bits: any v1 - 1
    # erased columns are recovered by peeling (every size up to v1 - 1 at
    # v1 <= 8, the largest above), and one surviving column is too few.
    params = CgrParams.from_v1(v1)
    contracted = contract(build_code_array(params, derive_offsets(pif_factorize(v1))))
    payload = {v: 3 * v + 1 for v in contracted.info_ids()}
    codeword = encode(contracted, payload)
    columns = range(contracted.num_columns)
    for k in range(v1) if v1 <= 8 else [v1 - 1]:
        for erased in itertools.combinations(columns, k):
            pattern = ErasurePattern.of(erased)
            report = decode(contracted, erase(codeword, pattern), pattern)
            assert report.recovered == payload and report.peeling_sufficed, erased
    for erased in itertools.combinations(columns, v1):
        pattern = ErasurePattern.of(erased)
        with pytest.raises(UnrecoverableError):
            decode(contracted, erase(codeword, pattern), pattern)
