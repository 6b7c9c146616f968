"""Array layout: the code array as a GF(2) mask grid, and its row rotation.

A cell is an int mask over the variables it XORs (0 when empty), so a
variable's id is its bit position. The unshifted rows stack the vertex,
ring-edge and inter-ring edge rows of the CGR graph (map_unshifted), the
dual's swap vertex and edge roles (dual_unshifted; both from bit_rows), and
the offset vector rotates each row left by its entry. A built array, from
build_code_array or dualize, is its header: params, offsets and whether it
is the dual, with what it has by construction stored (_built). Its grid is
laid out on first read of CodeArray.masks, once. CodeArray.built, whether
a header describes the grid, is the one test of a CGR layout that dualize
and verification trust. CodeArray.rows shows the grid as Cells. A
contracted array (contract) is a narrower one: puncture keeps the cells
on each ring's first vertex (_first_vertices), and contract groups them by
column, reading a built array's kept cells off its header (_kept_cells).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from operator import itemgetter

from .graph import NEG_INF, POS_INF, CgrParams, Factorization, Value


class Cell(Value):
    """One grid entry: an info bit (one member), a parity over two or more,
    or empty (none). Members are kept in construction order (see
    cell_members for the order a code array shows).
    """

    def __init__(self, vertices: tuple[int, ...]) -> None:
        object.__setattr__(self, "vertices", vertices)

    @property
    def is_parity(self) -> bool:
        return len(self.vertices) > 1


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


# collections.namedtuple, not typing.NamedTuple: typing would add to every
# CLI command's start-up, as a frozen dataclass would.
class CodecPlan(namedtuple("CodecPlan", "ids span pair_ids wides gather rebuild unit_rows pair_rows")):
    """An array's grid compiled for the codec, each cell kind in row-major order.

    ids is the set of info ids, span the range(max id + 1) values are indexed
    over, pair_ids the (p, q), p < q, of the two-bit cells and wides the ids,
    ascending, of the wider ones (dual parities). gather picks every cell,
    row-major, from the values over span, the pair values, the wide values
    and a trailing 0 (an empty cell). rebuild[c] is the number of XORs that
    rebuild column c: the sum of popcount - 1 over its cells. unit_rows and
    pair_rows hold (row, cells) for each row with a single-bit, resp.
    two-bit, cell: cells[c] is the id, resp. the (p, q) pair, at column c,
    and None where column c holds another kind.
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
    The grid is one or more rows of one nonzero length, checked when it is
    made. The column count is the grid's: v2 for a built array, v1 + 1 for a
    contracted one, whose source_columns gives each column's parent column
    (None for every other array).

    A built array (_built) holds no grid until masks is first read: its
    shape and is_dual() come from its header, params, offsets and _dual.
    Arrays compare by all their fields, masks last and row by row as tuples,
    so a comparison lays a grid out only when the other fields agree, and
    never between two built arrays, which agree when their _dual flags do.
    They hash by the fields other than masks: offsets are stored as an
    OffsetVector, so a built array equals and hashes like its hand-built
    copy, whether that copy's offsets and rows are tuples or lists.
    """

    _dual: bool | None = None  # stored by _built; None on any other grid

    def __init__(self, params: CgrParams, offsets, masks, source_columns=None) -> None:
        width = len(masks[0]) if masks else 0
        if not width or any(len(row) != width for row in masks):
            raise ValueError("masks must be one or more rows of the same nonzero length")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "offsets", None if offsets is None else OffsetVector(offsets))
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "source_columns", source_columns)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self._header() != other._header():
            return False
        if self._dual is not None and other._dual is not None:
            return self._dual == other._dual  # two built arrays: the header is the grid
        return tuple(map(tuple, self.masks)) == tuple(map(tuple, other.masks))

    def _header(self) -> tuple:
        return self.params, self.offsets, self.source_columns

    def __hash__(self):
        return hash(self._header())

    @computed_once
    def masks(self) -> tuple[tuple[int, ...], ...]:
        """A built array's grid: its code's unshifted rows rotated by its offsets."""
        unshifted = dual_unshifted(self.params) if self._dual else map_unshifted(self.params)
        return tuple(map(tuple, rotate_rows(unshifted, self.offsets)))

    @property
    def num_rows(self) -> int:
        return len(self.masks) if self._dual is None else self.params.num_rows

    @property
    def num_columns(self) -> int:
        return len(self.masks[0]) if self._dual is None else self.params.v2

    @computed_once
    def rows(self) -> tuple[tuple[Cell, ...], ...]:
        """The grid as Cells of cell_members, built once from masks: the
        public view, which no library code reads."""
        v2 = self.params.v2
        return tuple(tuple(Cell(tuple(cell_members(m, v2))) for m in row) for row in self.masks)

    @computed_once
    def plan(self) -> CodecPlan:
        """The mask grid compiled for the codec, in one pass over masks.
        Raises ValueError at the first cell, in row-major order, that holds
        a bit no info cell carries."""
        ids = self._ids
        carried, span = sum(1 << i for i in ids), range(ids[-1] + 1 if ids else 0)
        pair_ids, wides, unit_rows, pair_rows, index = [], [], [], [], []
        width = self.num_columns
        rebuild, empty = [0] * width, [None] * width
        for r, row in enumerate(self.masks):
            unit_row, pair_row = [None] * width, [None] * width
            for c, m in enumerate(row):
                rest = m & (m - 1)
                if not rest:
                    index.append(m.bit_length() - 1)  # an empty cell's -1 picks the trailing 0
                    unit_row[c] = index[-1] if m else None
                    continue
                if m & carried != m:
                    raise ValueError(f"cell ({r}, {c}) holds a bit that no info cell carries")
                if rest & (rest - 1):
                    index.append(-2 - len(wides))  # placed below, after the pair values
                    wides.append(tuple(bits_of(m)))
                else:
                    index.append(len(span) + len(pair_ids))
                    pair_row[c] = (m ^ rest).bit_length() - 1, rest.bit_length() - 1
                    pair_ids.append(pair_row[c])
                rebuild[c] += m.bit_count() - 1
            for grouped, cells in ((unit_rows, unit_row), (pair_rows, pair_row)):
                if cells != empty:
                    grouped.append((r, tuple(cells)))
        index = [i if i > -2 else len(span) + len(pair_ids) - 2 - i for i in index]
        gather = itemgetter(*index) if len(index) > 1 else lambda values: tuple(values[i] for i in index)
        grouped = map(tuple, (rebuild, unit_rows, pair_rows))
        return CodecPlan(frozenset(ids), span, tuple(pair_ids), tuple(wides), gather, *grouped)

    def info_ids(self) -> list[int]:
        """All variable ids carried by info cells, ascending."""
        return list(self._ids)

    @computed_once
    def _ids(self) -> tuple[int, ...] | range:
        singles = {m for row in self.masks for m in row if m and not m & (m - 1)}
        return tuple(sorted(m.bit_length() - 1 for m in singles))

    @computed_once
    def built(self) -> bool:
        """Whether the grid is build_code_array(params, offsets) or its dual, which
        a header describes: stored by _built, else checked (a field-equal copy reads True).
        A grid with an empty cell, which no built array has, reads False with no build.
        dualize and verification trust no other test of a CGR layout."""
        if self.source_columns is not None or not all(map(all, self.masks)):
            return False
        try:
            primal = build_code_array(self.params, self.offsets)
        except (TypeError, ValueError):  # offsets that are no vector for params
            return False
        return tuple(map(tuple, self.masks)) == (dualize(primal) if self.is_dual() else primal).masks

    def is_dual(self) -> bool:
        """True when parity cells are wider than 2 (vertex/edge roles swapped):
        a built array's stored flag, else read off vertex row 0, where a dual
        holds its (v1+1)-bit parities."""
        if self._dual is not None:
            return self._dual
        return any(m.bit_count() > 2 for m in self.masks[0])


MAX_LAYOUT_BITS = 12 * 10**9


def require_buildable(params: CgrParams, dual: bool = False) -> None:
    """Raise ValueError when the grid, num_rows * v2 masks of v1 * v2 bits, or of
    (num_rows - v1) * v2 in a dual, would exceed MAX_LAYOUT_BITS; v1 = 116, the largest
    size under it, builds at 1 GB peak RSS, and v1 = 58 is the largest dual under it."""
    nvars = (params.num_rows - params.v1) * params.v2 if dual else params.num_vertices
    if params.num_rows * params.v2 * nvars > MAX_LAYOUT_BITS:
        grid = "dual" if dual else "array"
        raise ValueError(f"a v1 = {params.v1} {grid} lays out over {MAX_LAYOUT_BITS} mask bits")


def bit_rows(nbits: int, v2: int) -> list[list[int]]:
    """The masks 1 << i, i < nbits, in rows of v2: slices of one table, so a grid shares them."""
    bit = [1 << i for i in range(nbits)]
    return [bit[t : t + v2] for t in range(0, nbits, v2)]


def map_unshifted(params: CgrParams) -> list[list[int]]:
    """The rows of CGR(K_v1, C_v2) laid out with zero shifts, labelled as
    build_cgr labels it: the V_j rows, then the edge list cut into rows of
    v2 (each ring and each ring pair has exactly v2 edges), so the parity
    rows are the E_j rows, then the inter-ring rows lexicographically. Ring
    j's vertex k is bit j*v2 + k: the vertex rows are bit_rows, and a parity
    cell the OR of two of their entries."""
    require_buildable(params)
    vertex = bit_rows(params.num_vertices, params.v2)
    rows = vertex + [[a | b for a, b in zip(row, row[1:] + row[:1])] for row in vertex]
    return rows + [[a | b for a, b in zip(x, y)] for x, y in itertools.combinations(vertex, 2)]


def _first_vertices(params: CgrParams) -> list[int]:
    """Ring j's first vertex, bit j*v2: column 0 of map_unshifted's vertex row j."""
    return [1 << j * params.v2 for j in range(params.v1)]


def puncture(array: CodeArray) -> CodeArray:
    """Blank every cell not supported on the rings' first vertices.
    Raises ValueError on a dual or contracted array."""
    require_cgr_layout(array, "puncture")
    if array.is_dual():
        raise ValueError("puncture expects a primal array")
    outside = ((1 << array.params.num_vertices) - 1) ^ sum(_first_vertices(array.params))
    masks = tuple(tuple(0 if m & outside else m for m in row) for row in array.masks)
    return CodeArray(array.params, array.offsets, masks)


def _kept_cells(array: CodeArray) -> list[tuple[int, int]]:
    """(column, mask) of each cell puncture keeps, in row-major order.

    A built array (CodeArray.built) keeps, in map_unshifted's row order, one
    cell in each vertex row j, ring j's first vertex, and one in each
    inter-ring row (i, j), the OR of rings i and j's: the cells at unshifted
    column 0, which a ring-edge row never keeps (its two bits are adjacent
    on a ring of v2 > 2). Row r rotates left by offsets[r], so its kept cell
    lands in column -offsets[r] % v2. Any other grid is punctured and
    scanned.
    """
    if not array.built:
        return [(c, m) for row in puncture(array).masks for c, m in enumerate(row) if m]
    params = array.params
    first = _first_vertices(params)
    kept = first + [a | b for a, b in itertools.combinations(first, 2)]
    rows = itertools.chain(range(params.v1), range(2 * params.v1, params.num_rows))
    return [(-array.offsets[r] % params.v2, m) for r, m in zip(rows, kept)]


class ContractShapeError(Exception):
    """Punctured cells do not balance into (v1+1) columns of v1/2 cells."""


def contract(array: CodeArray, column_order=None) -> CodeArray:
    """Group the cells puncture keeps by parent column; drop empty columns.

    The result is the lowest-density B-code's array: a CodeArray with the
    parent's params and offsets, v1/2 rows by v1+1 columns, whose ids stay
    sparse (0, v2, 2*v2, ...), and source_columns naming each column's
    parent. Columns come out in ascending parent-column order unless
    column_order (a permutation of the nonempty parent column indices, each
    an int) rearranges them; cells within a column keep ascending
    parent-row order. A built array is read by its header (_kept_cells), so
    no grid is laid out. Raises ValueError on a dual or contracted array or
    a bad column_order, and ContractShapeError if the survivors do not form
    v1+1 columns of v1/2 cells.
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


def dual_unshifted(params: CgrParams) -> list[list[int]]:
    """The dual's unshifted rows, vertex and edge roles swapped on the grid
    map_unshifted lays out. Edge variable (r - v1)*v2 + c, its index in
    CgrGraph.edge_list, sits at unshifted parity position (r, c), so the
    edge rows are bit_rows, and a dual vertex cell is the OR of the bits of
    its v1 + 1 incident edges: cell (j, k) is pairs[j] << k, pairs[j] being
    ring j's inter-ring edge bits at column 0, plus ring j's edges k - 1
    and k. Raises ValueError, before any layout, over MAX_LAYOUT_BITS."""
    require_buildable(params, dual=True)
    v1, v2 = params.v1, params.v2
    edges = bit_rows((params.num_rows - v1) * v2, v2)  # row v1 + t is edges[t], ring t's for t < v1
    pairs = [0] * v1
    for t, (i, j) in enumerate(itertools.combinations(range(v1), 2), v1):
        pairs[i] |= edges[t][0]
        pairs[j] |= edges[t][0]
    return [[p << k | e[k] | e[k - 1] for k in range(v2)] for p, e in zip(pairs, edges)] + edges


def dualize(array: CodeArray) -> CodeArray:
    """Swap vertex and edge roles on the same grid.

    Each nonempty cell becomes the other code's cell at its unshifted
    position: the result is the other code's unshifted grid (map_unshifted
    or dual_unshifted) rotated by the array's offsets, with the array's
    empty cells kept empty. A built array or its dual (CodeArray.built) is
    read by its header, and its result is the other code's built array,
    laid out only when read. Any other grid must be a built grid of its
    header with cells emptied, a punctured one say. Applying dualize twice
    restores the array. Raises ValueError on a contracted array, on any
    other grid, and, before any layout, on a result over MAX_LAYOUT_BITS.
    """
    require_cgr_layout(array, "dualize")
    params, dual = array.params, array.is_dual()
    require_buildable(params, dual=not dual)
    if array.built:
        return _built(params, array.offsets, not dual)
    offsets = OffsetVector(array.offsets or ())
    offsets.validate_for(params)
    own = itertools.chain(*_built(params, offsets, dual).masks)
    shaped = (array.num_rows, array.num_columns) == (params.num_rows, params.v2)
    if not shaped or any(m and m != o for m, o in zip(itertools.chain(*array.masks), own)):
        raise ValueError("dualize expects a grid its header describes, up to emptied cells")
    rows = zip(array.masks, _built(params, offsets, not dual).masks)
    masks = tuple(tuple(n if m else 0 for m, n in zip(row, new)) for row, new in rows)
    return CodeArray(params, array.offsets, masks)


def build_code_array(params: CgrParams, offsets) -> CodeArray:
    """The graph laid out and row r rotated left by offsets[r], when first
    read; offsets and the size (require_buildable) are checked here."""
    offsets = OffsetVector(offsets)
    offsets.validate_for(params)
    require_buildable(params)
    return _built(params, offsets, False)


def _built(params: CgrParams, offsets: OffsetVector, dual: bool) -> CodeArray:
    """The header-only array of the primal, or of the dual, that offsets
    rotate, with what it has by construction stored: it is dual or not and
    is built, and its ids are 0..nvars-1. CodeArray.masks lays its grid out
    when first read."""
    nvars = (params.num_rows - params.v1) * params.v2 if dual else params.num_vertices
    array = CodeArray.__new__(CodeArray)
    for name, value in (
        ("params", params), ("offsets", offsets), ("source_columns", None), ("_dual", dual),
        ("built", True), ("_ids", range(nvars)),
    ):
        object.__setattr__(array, name, value)
    return array


def rotate_rows(rows, offsets) -> tuple:
    """Rotate row r left by offsets[r], whatever the rows hold (cells or masks)."""
    return tuple(row[k:] + row[:k] for row, k in zip(rows, offsets))


def require_cgr_layout(array: CodeArray, name: str) -> None:
    """Raise ValueError when array is contracted: name needs the CGR layout."""
    if array.source_columns is not None:
        raise ValueError(f"{name} expects a CGR-layout array, not a contracted one")


def canonical_prefix(v1: int) -> tuple[int, ...]:
    """The offsets of the vertex rows, 0..v1-1, then v1 for every ring-edge row."""
    return tuple(range(v1)) + (v1,) * v1


def derive_offsets(factorization: Factorization, pi=None) -> OffsetVector:
    """Assemble an offset vector from a perfect one-factorization.

    The vertex and ring-edge rows take canonical_prefix(v1). Each factor
    must start with its center edge (NEG_INF, c), else ValueError; the
    inter-ring row for ring pair (i, j) takes pi(c), or v1+2 when c is
    POS_INF, from the factor holding edge (i, j); a ring pair no factor
    holds raises ValueError. pi must be a permutation of 0..v1-1, each entry
    an int (default: identity); edges touching a sentinel are ignored.
    """
    v1 = factorization.order - 2
    if pi is None:
        pi = tuple(range(v1))
    pi = tuple(pi)
    for a in pi:
        if type(a) is not int:  # rejects bools and floats that equal an index
            raise ValueError(f"pi entry {a!r} is not an int")
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
