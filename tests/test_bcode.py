"""Puncturing and contraction to the low-density compact form."""

from __future__ import annotations

import pytest

from cgrcode import (
    Cell,
    CgrParams,
    ContractedArray,
    ContractShapeError,
    OffsetVector,
    build_code_array,
    contract,
    derive_offsets,
    dualize,
    pif_factorize,
    puncture,
    verify_contracted_mds,
)
from cgrcode.cli import render_cell


def test_puncture_two_ring_array(k2_array):
    punctured = puncture(k2_array)
    assert punctured.num_rows == 5 and punctured.num_columns == 5
    survivors = {
        (r, c): render_cell(cell)
        for r, row in enumerate(punctured.rows)
        for c, cell in enumerate(row)
        if not cell.is_empty
    }
    assert survivors == {(0, 0): "0", (1, 4): "5", (4, 1): "0 ⊕ 5"}


def test_puncture_rejects_dual(k2_array):
    with pytest.raises(ValueError):
        puncture(dualize(k2_array))


def test_contract_two_ring_array(k2_array):
    contracted = contract(k2_array)
    assert contracted.source_column_index == (0, 1, 4)
    assert [[render_cell(cell) for cell in col] for col in contracted.columns] == [
        ["0"],
        ["0 ⊕ 5"],
        ["5"],
    ]
    assert contracted.retained_ids() == [0, 5]
    assert verify_contracted_mds(contracted)


def test_contract_explicit_column_order(k2_array):
    contracted = contract(k2_array, (4, 0, 1))
    assert contracted.source_column_index == (4, 0, 1)
    assert [render_cell(col[0]) for col in contracted.columns] == ["5", "0", "0 ⊕ 5"]


def test_contract_validates_column_order(k2_array):
    with pytest.raises(ValueError):
        contract(k2_array, (0, 1))
    with pytest.raises(ValueError):
        contract(k2_array, (0, 1, 2))


def test_contract_shape_error_on_degenerate_offsets(k2_params):
    array = build_code_array(k2_params, OffsetVector.zeros(k2_params))
    with pytest.raises(ContractShapeError):
        contract(array)


@pytest.mark.parametrize("v1", [2, 4, 6])
def test_contracted_derived_arrays_are_mds(v1):
    params = CgrParams.from_v1(v1)
    array = build_code_array(params, derive_offsets(pif_factorize(v1)))
    contracted = contract(array)
    assert len(contracted.columns) == v1 + 1
    assert all(len(col) == v1 // 2 for col in contracted.columns)
    assert verify_contracted_mds(contracted)


def test_verify_contracted_needs_two_columns(k2_array):
    contracted = contract(k2_array)
    lone = type(contracted)(contracted.params, contracted.columns[:1], contracted.source_column_index[:1])
    with pytest.raises(ValueError):
        verify_contracted_mds(lone)


def test_verify_contracted_reads_a_short_column_as_empty_cells(k2_params):
    # Every column pair spans both bits only if the longer columns' second
    # cells count; cutting every column to the shortest one loses (0, 2).
    first, second = Cell.info(0), Cell.info(5)
    both = Cell.parity((0, 5))
    columns = ((first,), (second, both), (first, both))
    assert verify_contracted_mds(ContractedArray(k2_params, columns, (0, 1, 2)))
