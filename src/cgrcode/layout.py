"""Array layout: mapping a CGR graph into a grid and applying offsets.

The unshifted array stacks vertex rows, ring-edge rows, and inter-ring edge
rows; the offset vector then rotates each row left by its entry. In a primal
array, info cells carry vertex ids and parity cells carry edges (2 vertex
ids); a dual array reuses the same grid with edge-variable ids instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .graph import NEG_INF, POS_INF, CgrGraph, CgrParams, Factorization, build_cgr

INFO = "info"
PARITY = "parity"
EMPTY = "empty"


@dataclass(frozen=True)
class Cell:
    """One grid entry: an info bit, a parity over several bits, or empty.

    The kind follows from the member count: none is empty, one is an info
    bit, two or more a parity. Members are kept in construction order (ring
    wrap-around edges stay as (largest, smallest)); use vertex_set for
    order-free comparisons.
    """

    vertices: tuple[int, ...]

    @classmethod
    def info(cls, vertex: int) -> Cell:
        return cls((vertex,))

    @classmethod
    def parity(cls, vertices: tuple[int, ...]) -> Cell:
        if len(vertices) < 2:
            raise ValueError("parity cell needs at least 2 members")
        return cls(tuple(vertices))

    @classmethod
    def empty(cls) -> Cell:
        return cls(())

    @property
    def kind(self) -> str:
        return (EMPTY, INFO, PARITY)[min(len(self.vertices), 2)]

    @property
    def is_info(self) -> bool:
        return len(self.vertices) == 1

    @property
    def is_parity(self) -> bool:
        return len(self.vertices) > 1

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @property
    def vertex_set(self) -> set[int]:
        return set(self.vertices)


class OffsetVector(tuple):
    """Per-row left cyclic shift amounts; the code's sole free parameter."""

    __slots__ = ()

    def validate_for(self, params: CgrParams) -> None:
        if len(self) != params.num_rows:
            raise ValueError(f"offset vector length {len(self)} != row count {params.num_rows}")
        for a in self:
            if type(a) is not int:  # rejects bools too
                raise ValueError(f"offset entry {a!r} is not an int")
            if not 0 <= a < params.v2:
                raise ValueError(f"offset entry {a} out of range [0, {params.v2 - 1}]")

    @classmethod
    def zeros(cls, params: CgrParams) -> OffsetVector:
        return cls((0,) * params.num_rows)


class CodecPlan(NamedTuple):  # not a frozen dataclass, whose creation adds 0.5 ms to import
    """An array's nonempty cells sorted by width, each list in row-major order.

    units holds (row, col, pos) for single-bit cells, pairs (row, col, p, q)
    for two-bit cells with p < q, and wides (row, col, positions) for wider
    cells (dual parities), positions ascending. rebuild[c] is the number of
    XORs that rebuild column c from the variables: the sum of popcount - 1
    over its cells.
    """

    units: tuple[tuple[int, int, int], ...]
    pairs: tuple[tuple[int, int, int, int], ...]
    wides: tuple[tuple[int, int, tuple[int, ...]], ...]
    rebuild: tuple[int, ...]


def cell_mask(cell: Cell, positions: dict[int, int]) -> int:
    """The cell as a GF(2) row: one bit per member variable, 0 when empty."""
    mask = 0
    for v in cell.vertices:
        mask |= 1 << positions[v]
    return mask


@dataclass(frozen=True)
class CodeArray:
    """The code definition: a grid of cells plus the offsets that shaped it."""

    params: CgrParams
    rows: tuple[tuple[Cell, ...], ...]
    offsets: OffsetVector

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def num_columns(self) -> int:
        return self.params.v2

    def column(self, c: int) -> list[Cell]:
        return [row[c] for row in self.rows]

    @cached_property
    def positions(self) -> dict[int, int]:
        """Variable id -> bit position, in ascending id order (shared: do not mutate)."""
        ids = sorted({cell.vertices[0] for row in self.rows for cell in row if cell.is_info})
        return {v: i for i, v in enumerate(ids)}

    @cached_property
    def masks(self) -> tuple[tuple[int, ...], ...]:
        """The grid as GF(2) bitmasks over positions, 0 for an empty cell."""
        pos = self.positions
        return tuple(tuple(cell_mask(cell, pos) for cell in row) for row in self.rows)

    @cached_property
    def plan(self) -> CodecPlan:
        """The mask grid compiled for the codec, in one pass over masks."""
        units, pairs, wides = [], [], []
        rebuild = [0] * self.params.v2
        for r, row in enumerate(self.masks):
            for c, m in enumerate(row):
                rest = m & (m - 1)
                if not rest:
                    if m:
                        units.append((r, c, m.bit_length() - 1))
                    continue
                if rest & (rest - 1):
                    bits = [i for i in range(m.bit_length()) if m >> i & 1]
                    wides.append((r, c, tuple(bits)))
                else:
                    pairs.append((r, c, (m ^ rest).bit_length() - 1, rest.bit_length() - 1))
                rebuild[c] += m.bit_count() - 1
        return CodecPlan(tuple(units), tuple(pairs), tuple(wides), tuple(rebuild))

    def info_ids(self) -> list[int]:
        """All variable ids carried by info cells, ascending."""
        return list(self.positions)

    def is_dual(self) -> bool:
        """True when parity cells are wider than 2 (vertex/edge roles swapped)."""
        return self._dual

    @cached_property
    def _dual(self) -> bool:
        return any(len(cell.vertices) > 2 for row in self.rows for cell in row)


def map_unshifted(graph: CgrGraph) -> CodeArray:
    """Lay the graph out with zero shifts: the V_j rows, then the edge list
    cut into rows of v2 (each ring and each ring pair has exactly v2 edges),
    so the parity rows are the E_j rows, then the inter-ring rows
    lexicographically."""
    v2 = graph.params.v2
    edges = graph.edge_list()
    rows = [tuple(Cell.info(v) for v in verts) for verts in graph.vertex_sets]
    rows += [tuple(Cell.parity(e) for e in edges[k:k + v2]) for k in range(0, len(edges), v2)]
    return CodeArray(graph.params, tuple(rows), OffsetVector.zeros(graph.params))


def rotate_rows(rows, offsets) -> tuple:
    """Rotate row r left by offsets[r], whatever the rows hold (cells or masks)."""
    return tuple(row[k:] + row[:k] for row, k in zip(rows, offsets))


def apply_offsets(array: CodeArray, offsets) -> CodeArray:
    """Rotate row r left by offsets[r]; composes additively mod v2."""
    off = OffsetVector(offsets)
    off.validate_for(array.params)
    v2 = array.params.v2
    rows = rotate_rows(array.rows, off)
    combined = OffsetVector((a + b) % v2 for a, b in zip(array.offsets, off))
    return CodeArray(array.params, rows, combined)


def build_code_array(params: CgrParams, offsets) -> CodeArray:
    """Full pipeline: build the graph, lay it out, apply the offset vector."""
    return apply_offsets(map_unshifted(build_cgr(params)), offsets)


def canonical_prefix(v1: int) -> tuple[int, ...]:
    """The offsets of the vertex rows, 0..v1-1, then v1 for every ring-edge row."""
    return tuple(range(v1)) + (v1,) * v1


def derive_offsets(factorization: Factorization, pi=None) -> OffsetVector:
    """Assemble an offset vector from a perfect one-factorization.

    The vertex and ring-edge rows take canonical_prefix(v1). Each factor
    must start with its center edge (NEG_INF, c), else ValueError; the
    inter-ring row for ring pair (i, j) takes pi(c), or v1+2 when c is
    POS_INF, from the factor holding edge (i, j). pi must be a permutation
    of 0..v1-1 (default: identity); edges touching a sentinel are ignored.
    """
    v1 = factorization.order - 2
    if pi is None:
        pi = tuple(range(v1))
    pi = tuple(pi)
    if sorted(pi) != list(range(v1)):
        raise ValueError(f"pi must be a permutation of 0..{v1 - 1}, got {pi}")
    offset_of = dict(enumerate(pi)) | {POS_INF: v1 + 2}
    offset = {}  # ring pair, both ways round -> offset
    for p, ((neg, c), *edges) in enumerate(factorization.factors):
        if neg != NEG_INF:
            raise ValueError(f"factor {p} does not start with its center edge (NEG_INF, c)")
        for a, b in edges:
            offset[a, b] = offset[b, a] = offset_of[c]
    inter = tuple(offset[i, j] for i in range(v1) for j in range(i + 1, v1))
    return OffsetVector(canonical_prefix(v1) + inter)
