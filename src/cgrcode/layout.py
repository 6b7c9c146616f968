"""Array layout: the code array as a GF(2) mask grid, and its row rotation.

A cell is an int mask over the variables it XORs (0 when empty), so a
variable's id is its bit position. The unshifted grid stacks the vertex,
ring-edge and inter-ring edge rows of the CGR graph; the offset vector
rotates each row left by its entry. CodeArray.rows shows the grid as Cells.
A contracted array (bcode.contract) is a narrower grid of the same type.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .graph import NEG_INF, POS_INF, CgrParams, Factorization, Value

INFO = "info"
PARITY = "parity"
EMPTY = "empty"
KINDS = (EMPTY, INFO, PARITY)  # by member count, capped at 2


class Cell(Value):
    """One grid entry: an info bit, a parity over several bits, or empty.

    The kind follows from the member count: none is empty, one is an info
    bit, two or more a parity. Members are kept in construction order (see
    cell_members for the order a code array shows); use vertex_set for
    order-free comparisons.
    """

    def __init__(self, vertices: tuple[int, ...]) -> None:
        object.__setattr__(self, "vertices", vertices)

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

    @classmethod
    def from_mask(cls, mask: int, v2: int) -> Cell:
        return cls(tuple(cell_members(mask, v2)))

    @property
    def kind(self) -> str:
        return KINDS[min(len(self.vertices), 2)]

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


# collections.namedtuple, not typing.NamedTuple: typing would add to every
# CLI command's start-up, as a frozen dataclass would.
class CodecPlan(namedtuple("CodecPlan", "units pairs wides rebuild unit_rows pair_rows")):
    """An array's nonempty cells sorted by width, each list in row-major order.

    units holds (row, col, id) for single-bit cells, pairs (row, col, p, q)
    for two-bit cells with ids p < q, and wides (row, col, ids) for wider
    cells (dual parities), ids ascending. rebuild[c] is the number of
    XORs that rebuild column c from the variables: the sum of popcount - 1
    over its cells. unit_rows and pair_rows hold (row, cells) for each row
    with a single-bit, resp. two-bit, cell: cells[c] is the id, resp. the
    (p, q) pair, at column c, and None where column c holds another kind.
    """

    __slots__ = ()


def bits_of(mask: int) -> list[int]:
    """The set bits of mask, ascending, one step per set bit."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


def cell_members(mask: int, v2: int) -> list[int]:
    """A mask's cell members: its bits ascending, except a ring's wrap-around
    edge (bits v2 - 1 apart), listed (largest, smallest) as build_cgr has it."""
    rest = mask & (mask - 1)
    if not rest:
        return [mask.bit_length() - 1] if mask else []
    if rest & (rest - 1):
        return bits_of(mask)
    p, q = (mask ^ rest).bit_length() - 1, rest.bit_length() - 1
    return [q, p] if q - p == v2 - 1 else [p, q]


class computed_once:
    """functools.cached_property without its instance __dict__ store, which
    costs CPython's fast attribute reads (see graph.Value): the first read
    runs the method and stores the result with object.__setattr__."""

    def __init__(self, method) -> None:
        self.method, self.__doc__ = method, method.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = self.method(instance)
        object.__setattr__(instance, self.method.__name__, value)
        return value


class CodeArray(Value):
    """The code definition: a GF(2) mask grid plus the offsets that shaped it.

    Bit i of masks[r][c] is set when variable i is in cell (r, c). Ids are
    the vertex ids in a primal array, the edge indices in CgrGraph.edge_list
    order in a dual, and 0, v2, 2*v2, ... in a punctured or contracted one.
    The column count is the grid's: v2 for a built array, v1 + 1 for a
    contracted one, whose source_columns gives each column's parent column
    (None for every other array).
    """

    def __init__(self, params: CgrParams, offsets, masks, source_columns=None) -> None:
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "source_columns", source_columns)

    @property
    def num_rows(self) -> int:
        return len(self.masks)

    @property
    def num_columns(self) -> int:
        return len(self.masks[0])

    def column(self, c: int) -> list[Cell]:
        return [row[c] for row in self.rows]

    @computed_once
    def rows(self) -> tuple[tuple[Cell, ...], ...]:
        """The grid as Cells (see Cell.from_mask), built once from masks."""
        v2 = self.params.v2
        return tuple(tuple(Cell.from_mask(m, v2) for m in row) for row in self.masks)

    @computed_once
    def plan(self) -> CodecPlan:
        """The mask grid compiled for the codec, in one pass over masks.
        Raises ValueError at the first cell, in row-major order, that holds
        a bit no info cell carries."""
        ids = sum(1 << i for i in self._ids)
        units, pairs, wides, unit_rows, pair_rows = [], [], [], [], []
        width = self.num_columns
        rebuild, empty = [0] * width, [None] * width
        for r, row in enumerate(self.masks):
            unit_row, pair_row = [None] * width, [None] * width
            for c, m in enumerate(row):
                rest = m & (m - 1)
                if not rest:
                    if m:
                        unit_row[c] = p = m.bit_length() - 1
                        units.append((r, c, p))
                    continue
                if m & ids != m:
                    raise ValueError(f"cell ({r}, {c}) holds a bit that no info cell carries")
                if rest & (rest - 1):
                    wides.append((r, c, tuple(bits_of(m))))
                else:
                    p, q = pair_row[c] = (m ^ rest).bit_length() - 1, rest.bit_length() - 1
                    pairs.append((r, c, p, q))
                rebuild[c] += m.bit_count() - 1
            for grouped, cells in ((unit_rows, unit_row), (pair_rows, pair_row)):
                if cells != empty:
                    grouped.append((r, tuple(cells)))
        return CodecPlan(*map(tuple, (units, pairs, wides, rebuild, unit_rows, pair_rows)))

    def info_ids(self) -> list[int]:
        """All variable ids carried by info cells, ascending."""
        return list(self._ids)

    @computed_once
    def _ids(self) -> tuple[int, ...]:
        singles = {m for row in self.masks for m in row if m and not m & (m - 1)}
        return tuple(sorted(m.bit_length() - 1 for m in singles))

    def is_dual(self) -> bool:
        """True when parity cells are wider than 2 (vertex/edge roles swapped),
        read off vertex row 0, where a dual holds its (v1+1)-bit parities."""
        return any(m.bit_count() > 2 for m in self.masks[0])


def map_unshifted(params: CgrParams) -> CodeArray:
    """Lay CGR(K_v1, C_v2) out with zero shifts, labelled as build_cgr labels
    it: the V_j rows, then the edge list cut into rows of v2 (each ring and
    each ring pair has exactly v2 edges), so the parity rows are the E_j
    rows, then the inter-ring rows lexicographically. Ring j's vertex k is
    bit j*v2 + k, so each row is its first cell's mask shifted along."""
    v1, v2 = params.v1, params.v2
    first = [1 << (j * v2) for j in range(v1)]  # vertex 0 of each ring
    rows = [[f << k for k in range(v2)] for f in first]
    rows += [[f << k | f << (k + 1) % v2 for k in range(v2)] for f in first]
    rows += [[(f | g) << k for k in range(v2)] for f, g in itertools.combinations(first, 2)]
    return CodeArray(params, OffsetVector.zeros(params), tuple(map(tuple, rows)))


def rotate_rows(rows, offsets) -> tuple:
    """Rotate row r left by offsets[r], whatever the rows hold (cells or masks)."""
    return tuple(row[k:] + row[:k] for row, k in zip(rows, offsets))


def require_cgr_layout(array: CodeArray, name: str) -> None:
    """Raise ValueError when array is contracted: name needs the CGR layout."""
    if array.source_columns is not None:
        raise ValueError(f"{name} expects a CGR-layout array, not a contracted one")


def apply_offsets(array: CodeArray, offsets) -> CodeArray:
    """Rotate row r left by offsets[r]; composes additively mod v2. Raises
    ValueError on a contracted array."""
    require_cgr_layout(array, "apply_offsets")
    off = OffsetVector(offsets)
    off.validate_for(array.params)
    v2 = array.params.v2
    combined = OffsetVector((a + b) % v2 for a, b in zip(array.offsets, off))
    return CodeArray(array.params, combined, rotate_rows(array.masks, off))


def build_code_array(params: CgrParams, offsets) -> CodeArray:
    """Full pipeline: lay the graph out, then apply the offset vector."""
    return apply_offsets(map_unshifted(params), offsets)


def canonical_prefix(v1: int) -> tuple[int, ...]:
    """The offsets of the vertex rows, 0..v1-1, then v1 for every ring-edge row."""
    return tuple(range(v1)) + (v1,) * v1


def derive_offsets(factorization: Factorization, pi=None) -> OffsetVector:
    """Assemble an offset vector from a perfect one-factorization.

    The vertex and ring-edge rows take canonical_prefix(v1). Each factor
    must start with its center edge (NEG_INF, c), else ValueError; the
    inter-ring row for ring pair (i, j) takes pi(c), or v1+2 when c is
    POS_INF, from the factor holding edge (i, j); a ring pair no factor
    holds raises ValueError. pi must be a permutation of 0..v1-1 (default:
    identity); edges touching a sentinel are ignored.
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
    try:
        inter = tuple(offset[i, j] for i in range(v1) for j in range(i + 1, v1))
    except KeyError as exc:
        raise ValueError(f"no factor holds ring pair {exc.args[0]}") from None
    return OffsetVector(canonical_prefix(v1) + inter)
