"""Contraction of a CGR array to a lowest-density B-code array.

Only the first vertex of each ring (ids j*v2) and the inter-ring edges
joining two such vertices survive; everything else is punctured. Compacting
the survivors column-wise yields a CodeArray of v1+1 columns of v1/2 cells
each, whose ids stay sparse (0, v2, 2*v2, ...): the shared codec encodes
and decodes it, and verify_mds sweeps it. A built array is contracted from
its header: each survivor's column follows from its row's offset, so no
grid is laid out or scanned.
"""

from __future__ import annotations

import itertools

from .code import verify_mds
from .layout import CodeArray, require_cgr_layout


class ContractShapeError(Exception):
    """Punctured cells do not balance into (v1+1) columns of v1/2 cells."""


def puncture(array: CodeArray) -> CodeArray:
    """Blank every cell not supported on the first-vertex set {j*v2}.
    Raises ValueError on a dual or contracted array."""
    require_cgr_layout(array, "puncture")
    if array.is_dual():
        raise ValueError("puncture expects a primal array")
    first = sum(1 << (j * array.params.v2) for j in range(array.params.v1))
    outside = ((1 << array.params.num_vertices) - 1) ^ first
    masks = tuple(tuple(0 if m & outside else m for m in row) for row in array.masks)
    return CodeArray(array.params, array.offsets, masks)


def _kept_cells(array: CodeArray) -> list[tuple[int, int]]:
    """(column, mask) of each cell puncture keeps, in row-major order.

    A built array (CodeArray.built) keeps one cell in each vertex row j,
    1 << j*v2, and one in each inter-ring row (i, j), 1 << i*v2 | 1 << j*v2:
    the cells at unshifted column 0, which a ring-edge row never keeps
    (its two bits are adjacent on a ring of v2 > 2). Row r rotates left by
    offsets[r], so its kept cell lands in column -offsets[r] % v2. Any
    other grid is punctured and scanned.
    """
    if not array.built:
        return [(c, m) for row in puncture(array).masks for c, m in enumerate(row) if m]
    v1, v2 = array.params.v1, array.params.v2
    first = [1 << j * v2 for j in range(v1)]
    kept = first + [a | b for a, b in itertools.combinations(first, 2)]
    rows = itertools.chain(range(v1), range(2 * v1, array.params.num_rows))
    return [(-array.offsets[r] % v2, m) for r, m in zip(rows, kept)]


def contract(array: CodeArray, column_order=None) -> CodeArray:
    """Group the cells puncture keeps by parent column; drop empty columns.

    The result is a CodeArray with the parent's params and offsets, v1/2
    rows by v1+1 columns, and source_columns naming each column's parent.
    Columns come out in ascending parent-column order unless column_order
    (a permutation of the nonempty parent column indices, each an int)
    rearranges them; cells within a column keep ascending parent-row order.
    A built array is read by its header (_kept_cells). Raises ValueError on
    a dual or contracted array or a bad column_order, and
    ContractShapeError if the survivors do not form v1+1 columns of v1/2
    cells.
    """
    if array.is_dual():
        raise ValueError("contract expects a primal array")
    v1 = array.params.v1
    groups: dict[int, list[int]] = {}
    for c, m in _kept_cells(array):
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
        for c in order:
            if type(c) is not int:  # rejects bools and floats that equal an index
                raise ValueError(f"column_order entry {c!r} is not an int")
        if sorted(order) != nonempty:
            raise ValueError(
                f"column_order must permute the nonempty parent columns {nonempty}, got {order}"
            )
    masks = tuple(zip(*(groups[c] for c in order)))
    return CodeArray(array.params, array.offsets, masks, tuple(order))


def verify_contracted_mds(contracted: CodeArray) -> bool:
    """True iff every 2 surviving columns recover all retained bits."""
    if contracted.num_columns < 2:
        raise ValueError("contracted array needs at least 2 columns to verify")
    return verify_mds(contracted).is_mds
