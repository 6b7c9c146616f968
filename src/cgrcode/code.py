"""Encoding, erasure decoding, primal, dual and contracted MDS verification, and complexity.

Encoding, decoding and verification read only the array's GF(2) mask grid
(CodeArray.masks, whose bit positions are the variable ids); a built array
lays its grid out on the first of these reads, not when it is built, and
whether it is the dual or built is read off its header. Cell values are
XORs of info values, which may be ints of any width: each bit plane is
coded independently. The codec replays the grid's plan (CodeArray.plan),
compiled once per array: encoding computes the parity values and lays
the grid out with one gather; decoding seeds a list of values by id from
the surviving single-bit cells, peels each surviving two-bit cell with
one unknown as it reads it, sweeps the rest in row-major order, stops
reading as soon as every value is known, and falls back to Gaussian
elimination over every surviving cell, entered in row-major order, when
peeling stalls. Verification (_sweep) checks that
every pair of surviving columns spans the full variable space, reducing
each column once to a GF(2) basis that every pair it leads extends. A
built array, primal or dual (CodeArray.built), moves each row one cell to
the side when every ring rotates by one position, so only the pairs
(0, d), d <= v2 // 2, are swept. The dual's verdict is read off the same
primal sweep, since the dual (layout.dualize) is the primal's orthogonal
complement.
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
    Peeling sweeps the surviving two-bit cells in row-major order and
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
    actually reduced, fewer when rotation symmetry covers the rest. It is
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
    if not all(map(isinstance, info_bits.values(), itertools.repeat(int))):
        bad = next(v for v in sorted(plan.ids) if not isinstance(info_bits[v], int))
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

    Peeling keeps the values in a list by id, and a count of the ids known;
    it stops reading two-bit cells, and skips its later sweeps, as soon as
    every value is known: no later cell could write one, so the report is
    that of a peel over every surviving cell.

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

    # known[id] holds a value once have[id] is set, count the ids set, seeded from
    # the surviving single-bit cells. The first peel sweep runs as the surviving two-bit
    # cells are read and queues only those left with two unknowns. Forced elimination
    # skips it all.
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
            pending = []
            for r, cells in plan.pair_rows:
                if count == nvars:
                    break  # nothing left to peel: no later cell can write to known
                row = values[r]
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
                            pending.append((p, q, row[c]))
            while pending and count < nvars:
                remaining = []
                for p, q, value in pending:
                    if have[p]:
                        if not have[q]:
                            known[q], have[q] = value ^ known[p], 1
                            count += 1
                    elif have[q]:
                        known[p], have[p] = value ^ known[q], 1
                        count += 1
                    else:
                        remaining.append((p, q, value))
                if len(remaining) == len(pending):
                    break
                pending = remaining
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
        if not all(map(isinstance, recovered.values(), itertools.repeat(int))):
            raise TypeError("a recovered value is not an int")
    except TypeError:
        for r, row in enumerate(array.masks):
            for c in survivors:
                if row[c] and not isinstance(values[r][c], int):
                    kind = type(values[r][c]).__name__
                    raise ValueError(f"surviving cell ({r}, {c}) holds {kind}, not int") from None
        raise

    # Rebuilding each erased cell from recovered values costs popcount-1 XORs.
    xor_count += sum(plan.rebuild[c] for c in pattern.erased_columns)
    return DecodeReport(recovered, peeling_sufficed, xor_count, elimination_ops)


def _sweep(masks, nvars: int, orbits: bool) -> MdsResult:
    """Full-rank check of the cell masks in every pair of surviving columns
    of a mask grid (rows of per-column masks over nvars bit positions), in
    lexicographic pair order, stopping at the first hole; the witness is
    that pair's erased complement.

    Column a is reduced to an echelon basis once and shared by every pair
    (a, b): a copy is extended with column b's masks. The pair has rank
    nvars exactly when at most len(basis_a) + len(column b) - nvars of those
    masks are dependent, so gf2.extend gets that slack and stops at the
    first dependent mask past it.

    orbits is CodeArray.built (verify_mds): turning every ring one position
    moves each row of a built grid one cell to the side, so column c + 1 is
    column c with its bits permuted, the pair {a, b} has the rank of {0, d},
    d the circular distance of a and b, and only (0, 1) .. (0, v2 // 2) are
    swept. The first failing pair in lexicographic order is then (0, d*), d*
    the least failing distance, so the witness and patterns_checked (d* on a
    failure, C(v2, 2) on success: the pairs covered) are the full sweep's.
    Any other grid has every pair swept.
    """
    v2 = len(masks[0])
    read = itertools.islice(zip(*masks), v2 // 2 + 1 if orbits else None)
    columns = [[m for m in column if m] for column in read]
    swept = 0
    for a in range(1 if orbits else v2):
        basis_a: dict[int, int] = {}
        gf2.extend(basis_a, columns[a], len(columns[a]))
        for b in range(a + 1, len(columns)):
            swept += 1
            column_b = columns[b]
            if gf2.extend(dict(basis_a), column_b, len(basis_a) + len(column_b) - nvars) < 0:
                erased = set(range(v2)).difference((a, b))
                return MdsResult(False, ErasurePattern.of(erased), swept, pairs_swept=swept)
    return MdsResult(True, None, v2 * (v2 - 1) // 2, pairs_swept=swept)


def verify_mds(array: CodeArray) -> MdsResult:
    """True iff any 2 surviving columns determine all vertex bits.

    Survivor pairs are swept in lexicographic order; the witness (on
    failure) is the erased complement of the first failing pair.
    """
    if array.is_dual():
        raise ValueError("verify_mds expects a primal array; use verify_dual_mds")
    return _sweep(array.masks, len(array.info_ids()), array.built)


def verify_contracted_mds(contracted: CodeArray) -> bool:
    """True iff every 2 surviving columns of a contracted array (layout.contract)
    recover all retained bits."""
    if contracted.num_columns < 2:
        raise ValueError("contracted array needs at least 2 columns to verify")
    return verify_mds(contracted).is_mds


def verify_dual_mds(array: CodeArray) -> MdsResult:
    """True iff the dual code survives every loss of 2 columns, in
    lexicographic erased-pair order, read off the primal sweep.

    The dual is the primal's orthogonal complement over the cells (each
    vertex generator meets each edge generator in 0 or 2 cells, and the
    vertices plus the edges number the cells), and every column pair holds
    v1*v2 cells, the primal dimension. So the dual fails on the erased pair
    E exactly when the primal fails on the survivor pair E: the verdict and
    patterns_checked are verify_mds's, and the witness is the primal's
    failing survivor pair. A dual is dualized back first, which lays out
    only the primal. Raises ValueError on a contracted array and on any
    other grid that is not built (CodeArray.built): a punctured one, whose
    column pairs hold fewer cells, or one its header does not describe.
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
