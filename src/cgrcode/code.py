"""Encoding, erasure decoding, MDS verification, duals, and complexity.

Encoding, decoding and verification read only the array's compiled GF(2)
mask grid (CodeArray.masks over CodeArray.positions). Cell values are XORs
of info values, which may be ints of any width: each bit plane is coded
independently. The codec replays the grid's plan (CodeArray.plan), compiled
once per array: its single-bit, two-bit and wider cells, each kind in
row-major order, and each column's rebuild XOR count. Encoding fills the
cells kind by kind. Decoding seeds known values from the surviving
single-bit cells and peels the surviving two-bit cells with one unknown,
sweeping them in row-major order; when peeling stalls it falls back to
Gaussian elimination over every surviving cell of the mask grid, entered
in row-major order. Verification checks that every pair of surviving
columns spans the full variable space. It counts the survivors'
single-bit cells as known variables and ranks only the wider cells with
those bits cleared, which gives the same rank as ranking every cell. The
dual's verdict is read off the same primal sweep, since the dual is the
primal's orthogonal complement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import gf2
from .graph import CgrParams, build_cgr
from .layout import Cell, CodeArray


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


@dataclass(frozen=True)
class ErasurePattern:
    """The set of simultaneously lost columns."""

    erased_columns: frozenset[int]

    @classmethod
    def of(cls, columns) -> ErasurePattern:
        return cls(frozenset(columns))

    def validate_for(self, params: CgrParams) -> None:
        for c in self.erased_columns:
            if not 0 <= c < params.v2:
                raise ValueError(f"erased column {c} out of range [0, {params.v2 - 1}]")

    def survivors(self, v2: int) -> list[int]:
        return [c for c in range(v2) if c not in self.erased_columns]


@dataclass(frozen=True)
class Codeword:
    """A code array together with concrete bit values for every cell."""

    array: CodeArray
    cell_values: tuple[tuple[int, ...], ...]


@dataclass
class DecodeReport:
    """Decode outcome: recovered values plus operation accounting.

    xor_count covers chain decoding: one XOR per value peeled from a two-bit
    cell, plus popcount-1 XORs to rebuild each erased multi-bit cell (the
    plan's per-column rebuild counts). elimination_xor_count separately
    reports row operations spent inside the GF(2) fallback, if it ran.
    Peeling sweeps the surviving two-bit cells in row-major order and
    elimination enters the surviving cells in row-major order; both counts,
    and which cell a value comes from when cells disagree, follow from that
    order.
    """

    recovered: dict[int, int]
    peeling_sufficed: bool
    xor_count: int
    elimination_xor_count: int = 0


@dataclass(frozen=True)
class MdsResult:
    """Verdict of an exhaustive erasure sweep, with a counterexample if any."""

    is_mds: bool
    witness: ErasurePattern | None
    patterns_checked: int

    def __bool__(self) -> bool:
        return self.is_mds


def encode(array: CodeArray, info_bits: dict[int, int]) -> Codeword:
    """Fill every cell with the XOR of the info values its mask selects,
    replaying the array's codec plan: a single-bit cell takes its value as
    is (never 0 ^ value, which would copy a wide value), a two-bit cell
    takes one XOR, and a wider cell one XOR per further member."""
    required = array.positions.keys()
    given = set(info_bits)
    if given != required:
        missing = sorted(required - given)[:5]
        extra = sorted(given - required)[:5]
        raise ValueError(f"info_bits mismatch: missing {missing}, extra {extra}")
    values = [info_bits[v] for v in required]
    if not all(map(isinstance, values, itertools.repeat(int))):
        bad = next(v for v, x in zip(required, values) if not isinstance(x, int))
        raise ValueError(f"info value for id {bad} is {type(info_bits[bad]).__name__}, not int")
    plan = array.plan
    grid = [[0] * array.params.v2 for _ in range(array.num_rows)]
    for r, c, p in plan.units:
        grid[r][c] = values[p]
    for r, c, p, q in plan.pairs:
        grid[r][c] = values[p] ^ values[q]
    for r, c, (p, *rest) in plan.wides:
        acc = values[p]
        for q in rest:
            acc ^= values[q]
        grid[r][c] = acc
    return Codeword(array, tuple(map(tuple, grid)))


def erase(codeword: Codeword, pattern: ErasurePattern) -> tuple[tuple[int | None, ...], ...]:
    """Cell values with erased columns blanked to None."""
    pattern.validate_for(codeword.array.params)
    rows = []
    for row in codeword.cell_values:
        row = list(row)
        for c in pattern.erased_columns:
            row[c] = None
        rows.append(tuple(row))
    return tuple(rows)


def decode(
    array: CodeArray,
    values,
    pattern: ErasurePattern,
    force_elimination: bool = False,
) -> DecodeReport:
    """Recover every variable from the surviving columns.

    values is a full grid of cell values, num_rows rows of v2; erased
    columns are never read. Raises ValueError on a grid of another shape and
    UnrecoverableError when the surviving system is rank-deficient.
    """
    pattern.validate_for(array.params)
    v2 = array.params.v2
    if len(values) != array.num_rows or any(len(row) != v2 for row in values):
        raise ValueError(f"decode expects a grid of {array.num_rows} rows of {v2} cells")
    nvars = len(array.positions)
    erased = pattern.erased_columns
    plan = array.plan

    # known maps bit position -> value. Surviving single-bit cells seed it;
    # surviving two-bit cells are peeled, in row-major order, until none has
    # exactly one unknown left. Forced elimination skips all of it.
    xor_count = 0
    peeling_sufficed = False
    if not force_elimination:
        known = {p: values[r][c] for r, c, p in plan.units if c not in erased}
        seeded = len(known)
        pending = [(p, q, values[r][c]) for r, c, p, q in plan.pairs if c not in erased]
        while pending:
            remaining = []
            for p, q, value in pending:
                if p in known:
                    if q not in known:
                        known[q] = value ^ known[p]
                elif q in known:
                    known[p] = value ^ known[q]
                else:
                    remaining.append((p, q, value))
            if len(remaining) == len(pending):
                break
            pending = remaining
        xor_count = len(known) - seeded  # one XOR per peeled value
        peeling_sufficed = len(known) == nvars

    elimination_ops = 0
    if not peeling_sufficed:
        surviving = pattern.survivors(v2)
        equations = [
            (mask, values[r][c])
            for r, row in enumerate(array.masks)
            for c in surviving
            if (mask := row[c])
        ]
        solved = gf2.solve_unique(equations, nvars)
        if solved is None:
            deficit = gf2.rank([m for m, _ in equations])
            raise UnrecoverableError(pattern, deficit, nvars)
        known, elimination_ops = solved

    # Rebuilding each erased cell from recovered values costs popcount-1 XORs.
    xor_count += sum(plan.rebuild[c] for c in erased)

    recovered = {v: known[p] for v, p in array.positions.items()}
    return DecodeReport(recovered, peeling_sufficed, xor_count, elimination_ops)


def sweep_pairs(masks, nvars: int) -> MdsResult:
    """Full-rank check of the cell masks in every pair of surviving columns
    of a bare mask grid (rows of per-column masks over nvars bit positions),
    in lexicographic pair order, stopping at the first hole; the witness is
    that pair's erased complement.

    Each column is split once into the OR of its single-bit masks (unit) and
    its wider masks. In a survivor pair the unit bits are known variables:
    every unit row is in the span, so the span is the units' span plus that
    of the wider rows with the known bits cleared, and the rank is the
    number of known bits plus the rank of those residual rows.
    """
    units: list[int] = []
    wides: list[list[int]] = []
    for column in zip(*masks):
        unit = 0
        wide = []
        for m in column:
            if m & (m - 1):
                wide.append(m)
            else:
                unit |= m
        units.append(unit)
        wides.append(wide)
    everything = (1 << nvars) - 1  # a positive complement keeps & on the fast path
    checked = 0
    for a, b in itertools.combinations(range(len(units)), 2):
        checked += 1
        known = units[a] | units[b]
        unknown = everything ^ known
        residual = [m & unknown for c in (a, b) for m in wides[c]]
        if known.bit_count() + gf2.rank(residual) < nvars:
            erased = set(range(len(units))).difference((a, b))
            return MdsResult(False, ErasurePattern.of(erased), checked)
    return MdsResult(True, None, checked)


def verify_mds(array: CodeArray) -> MdsResult:
    """True iff any 2 surviving columns determine all vertex bits.

    Survivor pairs are swept in lexicographic order; the witness (on
    failure) is the erased complement of the first failing pair.
    """
    if array.is_dual():
        raise ValueError("verify_mds expects a primal array; use verify_dual_mds")
    return sweep_pairs(array.masks, len(array.positions))


def verify_dual_mds(array: CodeArray) -> MdsResult:
    """True iff the dual code survives every loss of 2 columns, in
    lexicographic erased-pair order, read off the primal sweep.

    The dual is the primal's orthogonal complement over the cells (each
    vertex generator meets each edge generator in 0 or 2 cells, and the
    vertices plus the edges number the cells), and every column pair holds
    v1*v2 cells, the primal dimension. So the dual fails on the erased pair
    E exactly when the primal fails on the survivor pair E: the verdict and
    patterns_checked are verify_mds's, and the witness is the primal's
    failing survivor pair. A dual input is dualized back first.
    """
    primal = dualize(array) if array.is_dual() else array
    return dual_verdict(verify_mds(primal), array.params.v2)


def dual_verdict(primal: MdsResult, v2: int) -> MdsResult:
    """The dual's MdsResult read off a primal sweep (see verify_dual_mds)."""
    if primal.is_mds:
        return primal
    return MdsResult(False, ErasurePattern.of(primal.witness.survivors(v2)), primal.patterns_checked)


def dualize(array: CodeArray) -> CodeArray:
    """Swap vertex and edge roles on the same grid.

    Primal -> dual: each parity cell over edge e becomes the info cell of
    e's variable; each info cell of vertex v becomes a parity over the v1+1
    edge variables incident to v, ascending. Edge variables are numbered in
    the order of CgrGraph.edge_list, which is row-major order of the
    unshifted parity rows. Dual -> primal is the reverse map. Applying
    dualize twice restores the original array exactly.

    A cell's member tuple is looked up as it stands, so a parity cell must
    list its members as the canonical array does; a hand-built cell with
    another member order raises KeyError. Arrays built by the library or
    read by codespec always do.
    """
    edges = build_cgr(array.params).edge_list()
    incident: dict[int, list[int]] = {v: [] for v in range(array.params.num_vertices)}
    for i, (u, v) in enumerate(edges):
        incident[u].append(i)
        incident[v].append(i)
    if array.is_dual():
        swap = {tuple(ids): Cell.info(v) for v, ids in incident.items()}
        swap.update({(i,): Cell.parity(e) for i, e in enumerate(edges)})
    else:
        swap = {(v,): Cell.parity(tuple(ids)) for v, ids in incident.items()}
        swap.update({e: Cell.info(i) for i, e in enumerate(edges)})
    rows = tuple(
        tuple(swap[cell.vertices] if cell.vertices else cell for cell in row) for row in array.rows
    )
    return CodeArray(array.params, rows, array.offsets)


def update_complexity(params: CgrParams) -> Fraction:
    """Parity cells touched per single info-bit update, averaged: each bit
    feeds v1+1 parities out of v1*v2 info bits."""
    return Fraction(params.v1 + 1, params.v1 * params.v2)


def decode_complexity(report: DecodeReport, params: CgrParams, pattern: ErasurePattern) -> Fraction:
    """Chain-decoding XORs per erased symbol, normalized by the v1*v2-bit
    payload; 0 when nothing was erased."""
    erased = len(pattern.erased_columns)
    if erased == 0:
        return Fraction(0)
    return Fraction(report.xor_count, erased * params.num_vertices)
