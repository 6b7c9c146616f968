"""Exhaustive and seeded-random search for valid offset vectors."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import gf2
from .code import MdsResult, verify_mds
from .fixtures import BUILTIN_VECTORS
from .graph import CgrParams
from .layout import OffsetVector, build_code_array, canonical_prefix, map_unshifted
from .rng import Lcg

DEFAULT_BUDGET = 10**7


class BudgetExceededError(Exception):
    """Exhaustive space larger than the configured budget of candidates."""


@dataclass(frozen=True)
class SearchSpec:
    """What to search: code size, free entries, strategy, and limits.

    fix_prefix holds layout.canonical_prefix (0..v1-1, then v1 repeated) fixed
    and varies only the v1(v1-1)/2 inter-ring entries; otherwise the whole
    vector is free. strategy is "exhaustive" (every candidate of the free
    space, in lexicographic order, by a rank-pruned depth-first search) or
    "random" (max_trials seeded draws). stop_after caps how many valid
    vectors are collected into the result list.
    """

    params: CgrParams
    fix_prefix: bool = True
    strategy: str = "exhaustive"
    seed: int = 0
    max_trials: int = 0
    stop_after: int | None = None


@dataclass(frozen=True)
class SearchStats:
    """trials = candidates covered (for exhaustive runs, pruned ones
    included); hits = valid vectors seen (for exhaustive runs this is the
    exact count in the whole space); space = size of the enumerated space
    for exhaustive runs, None for random; nodes = the work done: search-tree
    nodes visited for exhaustive runs, candidates swept for random ones.
    nodes is left out of comparisons, so stats compare by outcome."""

    trials: int
    hits: int
    space: int | None
    nodes: int = field(default=0, compare=False)


def params_for_offset_length(n: int) -> CgrParams:
    """Recover (v1, v2) from an offset vector length v1*(v1+3)/2."""
    v1 = int((math.isqrt(9 + 8 * n) - 3) // 2)
    if v1 * (v1 + 3) // 2 != n or v1 < 2 or v1 % 2:
        raise ValueError(f"{n} is not a valid offset vector length")
    return CgrParams.from_v1(v1)


def search(spec: SearchSpec, budget: int = DEFAULT_BUDGET) -> tuple[list[OffsetVector], SearchStats]:
    """Run the search; every returned vector passes verify_mds."""
    if spec.max_trials < 0:
        raise ValueError(f"max_trials must be >= 0, got {spec.max_trials}")
    if spec.stop_after is not None and spec.stop_after < 0:
        raise ValueError(f"stop_after must be >= 0, got {spec.stop_after}")
    if spec.strategy not in ("exhaustive", "random"):
        raise ValueError(f"unknown strategy {spec.strategy!r} (use 'exhaustive' or 'random')")
    params = spec.params
    v2 = params.v2
    prefix = canonical_prefix(params.v1) if spec.fix_prefix else ()
    nfree = params.num_rows - len(prefix)
    space = v2**nfree if spec.strategy == "exhaustive" else None
    if space is not None and space > budget:
        raise BudgetExceededError(f"exhaustive space {v2}^{nfree} exceeds budget {budget}")

    # Rotating a row moves its cells but not the variables they hold, so a
    # candidate's mask grid is the unshifted one with each row rotated, over
    # the same positions. Every unshifted row moves one cell to the side
    # under the ring rotation, and so does every rotated row: the survivor
    # pair {a, b} of any set of rows has the rank of {0, d}, d the circular
    # distance of a and b, so only the pairs (0, d), d <= v2 // 2, are
    # checked. A primal array fills every cell, so each column pair holds
    # exactly one mask per variable, and it has full rank only if all of
    # them are independent: a candidate is valid exactly when each of its
    # rows places (see _place) onto one echelon basis per pair (0, d). Each
    # row is kept twice over, so column c of a row rotated left by k is
    # doubled_row[c + k]. The prefix rows are placed once, here, for both
    # strategies.
    doubled = [row + row for row in map_unshifted(params).masks]
    distances = range(1, v2 // 2 + 1)
    bases = [{} for _ in distances]
    for row, k in zip(doubled, prefix):
        if bases is not None:
            bases = _place(bases, row, k, distances)
    if spec.strategy == "exhaustive":
        if bases is None:
            return [], SearchStats(space, 0, space)
        return _exhaustive(doubled, bases, prefix, v2, space, spec.stop_after)
    free_rows = doubled[len(prefix):]
    rng = Lcg(spec.seed)
    found: list[OffsetVector] = []
    trials = hits = 0
    while trials < spec.max_trials:
        if spec.stop_after is not None and len(found) >= spec.stop_after:
            break
        trials += 1
        free = [rng.randint(v2) for _ in range(nfree)]
        placed = bases
        for row, k in zip(free_rows, free):
            if placed is None:
                break
            placed = _place(placed, row, k, distances)
        if placed is not None:
            hits += 1
            found.append(OffsetVector(prefix + tuple(free)))
    return found, SearchStats(trials, hits, None, nodes=trials)


def _place(bases, row, k, distances):
    """bases, one echelon basis per pair (0, d) for d in distances, with
    row (an unshifted row kept twice over) rotated left by k added: its
    masks row[k] and row[k + d] extend the basis of (0, d), with slack 0.
    Returns new bases, leaving the given ones as they were, or None at the
    first pair that turns dependent."""
    first = row[k]
    placed = []
    for basis, d in zip(bases, distances):
        basis = dict(basis)
        if gf2.extend(basis, (first, row[k + d]), 0) < 0:
            return None
        placed.append(basis)
    return placed


def _exhaustive(
    doubled, bases, prefix: tuple[int, ...], v2: int, space: int, stop_after: int | None
) -> tuple[list[OffsetVector], SearchStats]:
    """Every offset vector that starts with prefix, whose rows are already
    placed onto bases, by a depth-first search over the remaining rows in
    index order with values ascending, so hits come in the order of a
    lexicographic scan. Each node places its row; the first dependent pair rules out the
    node's whole subtree, whose v2 ** (rows left) candidates still count as
    trials.
    """
    distances = range(1, v2 // 2 + 1)
    nrows = len(doubled)
    found: list[OffsetVector] = []
    trials = hits = nodes = 0

    def visit(bases, vec):
        nonlocal trials, hits, nodes
        depth = len(vec)
        row = doubled[depth]
        below = v2 ** (nrows - depth - 1)
        for k in range(v2):
            nodes += 1
            children = _place(bases, row, k, distances)
            if children is None:
                trials += below
            elif depth + 1 < nrows:
                visit(children, vec + (k,))
            else:
                trials += 1
                hits += 1
                if stop_after is None or len(found) < stop_after:
                    found.append(OffsetVector(vec + (k,)))

    visit(bases, prefix)
    return found, SearchStats(trials, hits, space, nodes)


def validate_fixture_set(vectors: dict[str, tuple[int, ...]] | None = None) -> dict[str, MdsResult]:
    """Per-vector MDS verdict; defaults to the built-in vector set."""
    if vectors is None:
        vectors = BUILTIN_VECTORS
    results: dict[str, MdsResult] = {}
    for name, vec in vectors.items():
        params = params_for_offset_length(len(tuple(vec)))
        results[name] = verify_mds(build_code_array(params, vec))
    return results
