"""Encoding, erasure decoding, primal, dual and contracted MDS verification, and complexity.

Encoding and decoding read only the array's GF(2) mask grid
(CodeArray.masks, whose bit positions are the variable ids), which a
built array lays out on the first of these reads; whether it is the dual
or built is read off its header. Cell values are XORs of info values,
which may be ints of any width: each bit plane is coded independently.
Both replay the grid's plan (CodeArray.plan), compiled once per array:
encoding lays the grid out with one gather, and decoding peels the
surviving two-bit cells in passes over their rows, falling back to
Gaussian elimination when a pass adds no value and some are unknown.
Verification is one union-find over column pairs (_pair_sweep): a built
array's pairs (0, d), d <= v2 // 2, read off its header with no grid laid
out, and every pair of any other grid, unless a cell holds 3+ bits (_sweep
eliminates). The dual's verdict is the primal's (verify_dual_mds).
"""

from __future__ import annotations

import itertools

from . import gf2
from .graph import CgrParams, Value
from .layout import CodeArray, dualize, require_cgr_layout


class UnrecoverableError(Exception):
    """Raised when surviving cells do not determine every variable."""

    def __init__(self, pattern: ErasurePattern, rank: int, nvars: int):
        super().__init__(
            f"erasure pattern {sorted(pattern.erased_columns)} leaves rank "
            f"{rank} < {nvars} unknowns"
        )
        self.pattern = pattern
        self.rank = rank
        self.nvars = nvars


class ErasurePattern(Value):
    """The set of simultaneously lost columns."""

    def __init__(self, erased_columns: frozenset[int]) -> None:
        object.__setattr__(self, "erased_columns", erased_columns)

    @classmethod
    def of(cls, columns) -> ErasurePattern:
        return cls(frozenset(columns))

    def validate_for(self, num_columns: int) -> None:
        """Raise ValueError unless every erased column is an int in
        [0, num_columns)."""
        for c in self.erased_columns:
            if type(c) is not int:  # rejects bools too
                raise ValueError(f"erased column {c!r} is not an int")
            if not 0 <= c < num_columns:
                raise ValueError(f"erased column {c} out of range [0, {num_columns - 1}]")

    def survivors(self, num_columns: int) -> list[int]:
        return [c for c in range(num_columns) if c not in self.erased_columns]


class DecodeReport(Value):
    """Decode outcome: recovered values plus operation accounting.

    xor_count covers chain decoding: one XOR per value peeled from a two-bit
    cell, plus popcount-1 XORs to rebuild each erased multi-bit cell (the
    plan's per-column rebuild counts). elimination_xor_count separately
    reports row operations spent inside the GF(2) fallback, if it ran.
    Each peel pass reads its surviving two-bit cells in row-major order and
    elimination enters the surviving cells in row-major order; both counts,
    and which cell a value comes from when cells disagree, follow from that
    order. Unlike the other value types it is mutable, and so unhashable.
    """

    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self, recovered: dict, peeling_sufficed: bool, xor_count: int, elimination_xor_count=0
    ) -> None:
        self.recovered, self.peeling_sufficed = recovered, peeling_sufficed
        self.xor_count, self.elimination_xor_count = xor_count, elimination_xor_count


class MdsResult(Value):
    """Verdict of an erasure sweep, with a counterexample if any.

    patterns_checked counts the patterns covered, in lexicographic order up
    to and including the witness; pairs_swept counts the survivor pairs
    actually checked, fewer when rotation symmetry covers the rest. It is
    left out of comparisons, so results compare by outcome.
    """

    _compared = ("is_mds", "witness", "patterns_checked")

    def __init__(self, is_mds: bool, witness, patterns_checked: int, pairs_swept: int = 0) -> None:
        object.__setattr__(self, "is_mds", is_mds)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "patterns_checked", patterns_checked)
        object.__setattr__(self, "pairs_swept", pairs_swept)

    def __bool__(self) -> bool:
        return self.is_mds


def encode(array: CodeArray, info_bits: dict[int, int]) -> tuple[tuple[int, ...], ...]:
    """The grid of cell values, num_rows rows of num_columns: each cell the
    XOR of the info values its mask selects, replaying the array's codec
    plan: one XOR per two-bit cell, in one pass over its (p, q) ids, and one
    per further member of a wider cell; one gather then lays the grid out,
    taking a single-bit cell's value as is (never 0 ^ value, which would
    copy a wide value). Values are indexed by id, the bit position the plan
    holds."""
    plan = array.plan
    given = info_bits.keys()
    if given != plan.ids:
        missing = sorted(plan.ids - given)[:5]
        extra = sorted(given - plan.ids)[:5]
        raise ValueError(f"info_bits mismatch: missing {missing}, extra {extra}")
    if not {int}.issuperset(map(type, info_bits.values())):  # rejects bools too
        bad = next(v for v in sorted(plan.ids) if type(info_bits[v]) is not int)
        raise ValueError(f"info value for id {bad} is {type(info_bits[bad]).__name__}, not int")
    values = list(map(info_bits.get, plan.span))  # None at a punctured array's gaps
    values += [values[p] ^ values[q] for p, q in plan.pair_ids]
    for p, *rest in plan.wides:
        acc = values[p]
        for q in rest:
            acc ^= values[q]
        values.append(acc)
    values.append(0)
    cells = iter(plan.gather(values))
    return tuple(zip(*[cells] * array.num_columns))


def erase(values, pattern: ErasurePattern) -> tuple[tuple[int | None, ...], ...]:
    """A grid of cell values (encode's) with its erased columns blanked to
    None: transposed, each erased column set to one shared tuple of None,
    and transposed back. A ragged grid raises ValueError, before the pattern is checked."""
    try:
        columns = list(zip(*values, strict=True))
    except ValueError:
        raise ValueError("erase expects a grid of rows of one length") from None
    pattern.validate_for(len(columns))
    blank = (None,) * len(values)
    for c in pattern.erased_columns:
        columns[c] = blank
    return tuple(zip(*columns))


def decode(
    array: CodeArray,
    values,
    pattern: ErasurePattern,
    force_elimination: bool = False,
) -> DecodeReport:
    """Recover every variable from the surviving columns.

    values is a full grid of cell values, num_rows rows of num_columns;
    erased columns are never read. Raises ValueError on a grid of another
    shape, an array whose plan does not compile (see CodeArray.plan), or a
    value used that is not an int (naming the first surviving cell, in
    row-major order, that holds none), and UnrecoverableError when the
    surviving system is rank-deficient.

    Peeling keeps the values in a list by id, and a count of the ids known.
    Pass 1 reads every row of two-bit cells; each later pass re-reads, in
    row order, the rows that held a cell with two unknown ids, and the peel
    ends with a pass that adds no value. It stops reading as soon as every
    value is known: no later cell could write one, so the report is that of
    a peel over every surviving cell.

    This is an erasure decoder, not an error detector: surviving cells are
    trusted. Peeling never checks a surviving cell against values already
    known, and leaves the cells after its last value unread, so a corrupted
    one can come back as wrong data with peeling_sufficed=True and is never
    flagged; forced elimination enters every surviving cell and raises
    ValueError when they disagree.

    On a primal array (cells of one or two bits) peeling is complete: in
    the graph of the surviving two-bit cells, flipping every variable of a
    component that no surviving single-bit cell pins keeps every surviving
    value, so the survivors have full rank exactly when every component is
    pinned, and peeling resolves exactly the pinned ones. A stalled primal
    peel is final; wider (dual) cells are what need elimination.
    """
    width = array.num_columns
    pattern.validate_for(width)
    if len(values) != array.num_rows or any(len(row) != width for row in values):
        raise ValueError(f"decode expects a grid of {array.num_rows} rows of {width} cells")
    ids = array.info_ids()
    nvars = len(ids)
    survivors = pattern.survivors(width)
    plan = array.plan

    # known[id] holds a value once have[id] is set, count the ids set, seeded from the surviving
    # single-bit cells. Each pass after the first re-reads only the rows that held a cell with two
    # unknowns; a cell with both ids known writes nothing, and a pass that adds no value ends it.
    xor_count = 0
    peeling_sufficed = False
    try:
        if not force_elimination:
            known, have = [None] * len(plan.span), bytearray(len(plan.span))
            for r, cells in plan.unit_rows:
                row = values[r]
                for c in survivors:
                    if (p := cells[c]) is not None:
                        known[p] = row[c]
                        have[p] = 1
            count = seeded = have.count(1)
            rows, start = plan.pair_rows, -1
            while count > start:
                start, stalled = count, []
                for entry in rows:
                    if count == nvars:
                        break  # nothing left to peel: no later cell can write to known
                    r, cells = entry
                    row, held = values[r], False
                    for c in survivors:
                        if (pq := cells[c]) is not None:
                            p, q = pq
                            if have[p]:
                                if not have[q]:
                                    known[q], have[q] = row[c] ^ known[p], 1
                                    count += 1
                            elif have[q]:
                                known[p], have[p] = row[c] ^ known[q], 1
                                count += 1
                            else:
                                held = True
                    if held:
                        stalled.append(entry)
                rows = stalled
            xor_count = count - seeded  # one XOR per peeled value
            peeling_sufficed = count == nvars

        elimination_ops = 0
        if not peeling_sufficed:
            equations = [
                (mask, values[r][c])
                for r, row in enumerate(array.masks)
                for c in survivors
                if (mask := row[c])
            ]
            known, elimination_ops = gf2.solve_unique(equations)
            if len(known) < nvars:  # one entry per pivot: the rank
                raise UnrecoverableError(pattern, len(known), nvars)

        recovered = {v: known[v] for v in ids}
        if not {int}.issuperset(map(type, recovered.values())):  # rejects bools too
            raise TypeError("a recovered value is not an int")
    except TypeError:
        for r, row in enumerate(array.masks):
            for c in survivors:
                if row[c] and type(values[r][c]) is not int:
                    kind = type(values[r][c]).__name__
                    raise ValueError(f"surviving cell ({r}, {c}) holds {kind}, not int") from None
        raise

    # Rebuilding each erased cell from recovered values costs popcount-1 XORs.
    xor_count += sum(plan.rebuild[c] for c in pattern.erased_columns)
    return DecodeReport(recovered, peeling_sufficed, xor_count, elimination_ops)


def _sweep(masks, nvars: int) -> MdsResult:
    """Full-rank check of every pair of surviving columns of a mask grid
    (rows of per-column masks over nvars bit positions), in lexicographic
    order, stopping at the first hole, whose erased complement is the
    witness. Column a is reduced to an echelon basis once, and a copy
    extended with column b for each pair (a, b), with the slack full rank
    allows: len(basis_a) + len(column b) - nvars dependent masks. It stays
    apart from _pair_sweep: it is the only rank rule for a cell of three or
    more bits, and the elimination that the union-find is compared with in
    tests/test_code.py, tests/test_sweep_orbits.py and CI.
    """
    columns = [[m for m in column if m] for column in zip(*masks)]
    v2 = len(columns)
    for swept, (a, b) in enumerate(itertools.combinations(range(v2), 2), 1):
        if b == a + 1:  # the first pair that column a leads
            basis_a: dict[int, int] = {}
            gf2.extend(basis_a, columns[a], len(columns[a]))
        if gf2.extend(dict(basis_a), columns[b], len(basis_a) + len(columns[b]) - nvars) < 0:
            return MdsResult(False, ErasurePattern.of(set(range(v2)) - {a, b}), swept, pairs_swept=swept)
    return MdsResult(True, None, v2 * (v2 - 1) // 2, pairs_swept=v2 * (v2 - 1) // 2)


def _join(parent: list[int], edges, shift: int) -> int:
    """Join each edge's ends, both shifted by shift, in the forest parent
    (path halving); count the edges that join two trees."""
    joined = 0
    for x, y in edges:
        x, y = x + shift, y + shift
        while parent[x] != x or parent[y] != y:
            parent[x] = x = parent[parent[x]]
            parent[y] = y = parent[parent[y]]
        if x != y:
            parent[x] = y
            joined += 1
    return joined


def _pair_sweep(forest: list[int], columns, pairs, nvars: int) -> MdsResult:
    """The MdsResult of a grid by its pairs (a, b), in order, up to the
    first with fewer than nvars edges that join two trees. Column c is
    _join's columns[c] = (edges, shift), joined into a copy of forest at the
    first pair it leads, a copy of which is joined with column b per pair."""
    swept, v2 = 0, len(columns)
    for swept, (a, b) in enumerate(pairs, 1):
        if b == a + 1:  # the first pair that column a leads
            lead = forest.copy()
            joined = _join(lead, *columns[a])
        if joined + _join(lead.copy(), *columns[b]) < nvars:
            return MdsResult(False, ErasurePattern.of(set(range(v2)) - {a, b}), swept, pairs_swept=swept)
    return MdsResult(True, None, v2 * (v2 - 1) // 2, pairs_swept=swept)


def _header_graph(array: CodeArray) -> tuple[list[int], list]:
    """A built array's forest and columns, for _pair_sweep, off its header.
    Ring j's position p is node p * (v1 + 1) + j, ring v1 ground, and row
    r's cell in column d is map_unshifted's at (d + offsets[r]) % v2 (see
    layout._kept_cells): an edge from ring a to ring b, s positions on. So
    column d is column 0 shifted by d * (v1 + 1). The forest is doubled,
    node x + N a child of x (N = (v1 + 1) * v2), so no id needs a modulo."""
    v1, v2 = array.params.v1, array.num_columns
    rings = [(j, v1, 0) for j in range(v1)] + [(j, j, 1) for j in range(v1)]
    rings += [(i, j, 0) for i, j in itertools.combinations(range(v1), 2)]
    edges = [(k * (v1 + 1) + a, (k + s) * (v1 + 1) + b) for (a, b, s), k in zip(rings, array.offsets)]
    forest = list(range((v1 + 1) * v2)) * 2
    forest[v1 :: v1 + 1] = [v1] * (2 * v2)  # ground's nodes start joined
    return forest, [(edges, d * (v1 + 1)) for d in range(v2)]


def verify_mds(array: CodeArray) -> MdsResult:
    """Whether every 2 surviving columns determine all vertex bits, with the
    erased complement of the first failing survivor pair, in lexicographic
    order, as the witness. Raises ValueError on a dual.

    A cell is an edge between its two ids, or from its one id to ground,
    and a pair has full rank exactly when len(info_ids()) of its edges join
    two trees (_pair_sweep; see decode), so a grid with a bit that no
    single-bit cell carries can verify while decode refuses it. A built
    array (CodeArray.built) is read by its header (_header_graph): turning
    every ring one position moves each row one cell to the side, so {a, b}
    has the rank of {0, d}, d <= v2 // 2 their circular distance, and the
    first failing pair is (0, d*): patterns_checked, d* or C(v2, 2), is a
    full sweep's, and pairs_swept is d* or v2 // 2. Any other grid has every
    pair checked, by elimination (_sweep) if a cell holds 3+ bits.
    """
    if array.is_dual():
        raise ValueError("verify_mds expects a primal array; use verify_dual_mds")
    v2, nvars = array.num_columns, len(array.info_ids())
    if array.built:
        forest, columns = _header_graph(array)
        return _pair_sweep(forest, columns, [(0, d) for d in range(1, v2 // 2 + 1)], nvars)
    node = {0: 0}  # a bit's value -> node id; 0, a single-bit cell's upper bits, is ground
    columns = [
        ([(node.setdefault(m & -m, len(node)), node.setdefault(m & (m - 1), len(node))) for m in col if m], 0)
        for col in zip(*array.masks)
    ]
    if any(k & (k - 1) for k in node):  # upper bits of a cell of three or more
        return _sweep(array.masks, nvars)
    return _pair_sweep(list(range(len(node))), columns, itertools.combinations(range(v2), 2), nvars)


def verify_contracted_mds(contracted: CodeArray) -> bool:
    """True iff every 2 surviving columns of a contracted array (layout.contract)
    recover all retained bits: verify_mds, which checks each pair by a
    union-find, every contracted cell holding one or two bits."""
    if contracted.num_columns < 2:
        raise ValueError("contracted array needs at least 2 columns to verify")
    return verify_mds(contracted).is_mds


def verify_dual_mds(array: CodeArray) -> MdsResult:
    """Whether the dual code survives every loss of 2 columns, read off
    verify_mds of the primal, which a dual is dualized back to, by header.

    The dual is the primal's orthogonal complement over the cells, and every
    column pair holds v1*v2 cells, the primal dimension, so the dual fails
    on the erased pair E exactly when the primal fails on the survivor pair
    E: the verdict and patterns_checked are verify_mds's, and the witness is
    the primal's failing survivor pair. Raises ValueError on a contracted
    array and on a grid that is not built (CodeArray.built), such as a
    punctured one or one its header does not describe.
    """
    require_cgr_layout(array, "verify_dual_mds")
    if not array.built:
        raise ValueError("verify_dual_mds expects a full grid that its header describes")
    primal = dualize(array) if array.is_dual() else array
    return dual_verdict(verify_mds(primal), array.num_columns)


def dual_verdict(primal: MdsResult, num_columns: int) -> MdsResult:
    """The dual's MdsResult read off a primal sweep (see verify_dual_mds)."""
    if primal.is_mds:
        return primal
    witness = ErasurePattern.of(primal.witness.survivors(num_columns))
    return MdsResult(False, witness, primal.patterns_checked, pairs_swept=primal.pairs_swept)


def update_complexity(params: CgrParams) -> Fraction:
    """Parity cells touched per single info-bit update, averaged: each bit
    feeds v1+1 parities out of v1*v2 info bits."""
    from fractions import Fraction  # here, not at the top: it imports decimal
    return Fraction(params.v1 + 1, params.v1 * params.v2)


def decode_complexity(report: DecodeReport, params: CgrParams, pattern: ErasurePattern) -> Fraction:
    """Chain-decoding XORs per erased symbol, normalized by the v1*v2-bit
    payload; 0 when nothing was erased."""
    from fractions import Fraction
    erased = len(pattern.erased_columns)
    if erased == 0:
        return Fraction(0)
    return Fraction(report.xor_count, erased * params.num_vertices)
