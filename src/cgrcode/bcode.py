"""Contraction of a CGR array to a lowest-density B-code array.

Only the first vertex of each ring (ids j*v2) and the inter-ring edges
joining two such vertices survive; everything else is punctured. Compacting
the survivors column-wise yields v1+1 columns of v1/2 cells each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .code import sweep_pairs
from .layout import Cell, CodeArray, CgrParams, cell_mask


class ContractShapeError(Exception):
    """Punctured cells do not balance into (v1+1) columns of v1/2 cells."""


@dataclass(frozen=True)
class ContractedArray:
    """Compacted survivor columns, each tagged with its parent column index."""

    params: CgrParams
    columns: tuple[tuple[Cell, ...], ...]
    source_column_index: tuple[int, ...]

    def retained_ids(self) -> list[int]:
        ids = {v for col in self.columns for cell in col for v in cell.vertices}
        return sorted(ids)


def puncture(array: CodeArray) -> CodeArray:
    """Blank every cell not supported on the first-vertex set {j*v2}."""
    if array.is_dual():
        raise ValueError("puncture expects a primal array")
    outside = ~sum(1 << (j * array.params.v2) for j in range(array.params.v1))
    masks = tuple(tuple(0 if m & outside else m for m in row) for row in array.masks)
    return CodeArray(array.params, array.offsets, masks)


def contract(array: CodeArray, column_order=None) -> ContractedArray:
    """Group the cells puncture keeps by parent column; drop empty columns.

    Columns come out in ascending parent-column order unless column_order
    (a permutation of the nonempty parent column indices) rearranges them;
    cells within a column keep ascending parent-row order. Raises
    ValueError on a dual array and ContractShapeError if the survivors do
    not form v1+1 columns of v1/2 cells.
    """
    if array.is_dual():
        raise ValueError("contract expects a primal array")
    v1, v2 = array.params.v1, array.params.v2
    groups: dict[int, list[int]] = {}
    for row in puncture(array).masks:
        for c, m in enumerate(row):
            if m:
                groups.setdefault(c, []).append(m)
    nonempty = sorted(groups)
    if len(nonempty) != v1 + 1 or any(len(groups[c]) != v1 // 2 for c in nonempty):
        shape = {c: len(groups[c]) for c in nonempty}
        raise ContractShapeError(
            f"expected {v1 + 1} columns of {v1 // 2} cells, got {shape}"
        )
    if column_order is None:
        order = nonempty
    else:
        order = list(column_order)
        if sorted(order) != nonempty:
            raise ValueError(
                f"column_order must permute the nonempty parent columns {nonempty}, got {order}"
            )
    return ContractedArray(
        array.params,
        tuple(tuple(Cell.from_mask(m, v2) for m in groups[c]) for c in order),
        tuple(order),
    )


def verify_contracted_mds(contracted: ContractedArray) -> bool:
    """True iff every 2 surviving columns recover all retained bits."""
    ncols = len(contracted.columns)
    if ncols < 2:
        raise ValueError("contracted array needs at least 2 columns to verify")
    pos = {v: i for i, v in enumerate(contracted.retained_ids())}
    columns = [[cell_mask(cell, pos) for cell in col] for col in contracted.columns]
    # A short column reads as empty (0) cells below its last one.
    masks = list(itertools.zip_longest(*columns, fillvalue=0))
    return sweep_pairs(masks, len(pos)).is_mds
