"""Exhaustive and seeded-random search for valid offset vectors, and the
built-in vectors known to be valid."""

from __future__ import annotations

import math

from . import gf2
from .graph import CgrParams, Value
from .layout import OffsetVector, canonical_prefix, map_unshifted
from .rng import MASK64, Lcg, jump

DEFAULT_BUDGET = 10**7
MAX_GRID_BITS = 2**27  # search's doubled grid: 2*num_rows*v2*v1*v2, 11.3 M at v1 = 24


class BudgetExceededError(Exception):
    """Exhaustive space larger than the configured budget of candidates."""


class SearchSpec(Value):
    """What to search: code size, free entries, strategy, and limits.

    fix_prefix holds layout.canonical_prefix (0..v1-1, then v1 repeated) fixed
    and varies only the v1(v1-1)/2 inter-ring entries; otherwise the whole
    vector is free. strategy is "exhaustive" (every candidate of the free
    space, in lexicographic order, by a rank-pruned depth-first search) or
    "random" (max_trials seeded draws). stop_after caps how many valid
    vectors are collected into the result list.
    """

    def __init__(
        self, params, fix_prefix=True, strategy="exhaustive", seed=0, max_trials=0, stop_after=None
    ) -> None:
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "fix_prefix", fix_prefix)
        object.__setattr__(self, "strategy", strategy)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "max_trials", max_trials)
        object.__setattr__(self, "stop_after", stop_after)


class SearchStats(Value):
    """trials = candidates covered (for exhaustive runs, pruned ones
    included); hits = valid vectors seen (for exhaustive runs this is the
    exact count in the whole space); space = size of the enumerated space
    for exhaustive runs, None for random; nodes = the work done: search-tree
    nodes visited for exhaustive runs (with a free prefix, those of the one
    rotation class walked; see _exhaustive), trials for random ones. nodes
    is left out of comparisons, so stats compare by outcome."""

    _compared = ("trials", "hits", "space")

    def __init__(self, trials: int, hits: int, space: int | None, nodes: int = 0) -> None:
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "hits", hits)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "nodes", nodes)


# Offset vectors known to give MDS arrays, each named k<v1>_c<v2>, plus a
# letter when several share a size; params_for_offset_length sizes them. The
# k6/k8 entries carry the full canonical prefix ahead of their inter-ring
# offsets. k4_c7_d uses ring-edge offset 5, not the canonical 4: valid
# vectors exist outside the canonical family.
BUILTIN_VECTORS: dict[str, tuple[int, ...]] = {
    "k2_c5": (0, 1, 2, 2, 4),
    "k4_c7_a": (0, 1, 2, 3, 4, 4, 4, 4, 3, 6, 2, 0, 6, 1),
    "k4_c7_b": (0, 1, 2, 3, 4, 4, 4, 4, 6, 1, 2, 3, 0, 6),
    "k4_c7_c": (0, 1, 2, 3, 4, 4, 4, 4, 6, 3, 1, 0, 2, 6),
    "k4_c7_d": (0, 1, 2, 3, 5, 5, 5, 5, 2, 3, 4, 4, 0, 1),
    "k6_c9_a": (0, 1, 2, 3, 4, 5) + (6,) * 6 + (2, 3, 1, 5, 8, 4, 8, 0, 3, 5, 8, 0, 2, 4, 1),
    "k6_c9_b": (0, 1, 2, 3, 4, 5) + (6,) * 6 + (2, 3, 1, 5, 8, 4, 8, 3, 0, 5, 8, 1, 0, 4, 2),
    "k6_c9_c": (0, 1, 2, 3, 4, 5) + (6,) * 6 + (2, 3, 4, 8, 1, 5, 8, 3, 4, 1, 0, 8, 5, 0, 2),
    "k8_c11": (0, 1, 2, 3, 4, 5, 6, 7)
    + (8,) * 8
    + (2, 3, 4, 1, 6, 7, 10, 10, 5, 3, 7, 0, 4, 6, 7, 1, 4, 5, 10, 2, 1, 0, 0, 5, 6, 10, 3, 2),
}


def params_for_offset_length(n: int) -> CgrParams:
    """Recover (v1, v2) from an offset vector length v1*(v1+3)/2."""
    v1 = int((math.isqrt(9 + 8 * n) - 3) // 2)
    if v1 * (v1 + 3) // 2 != n or v1 < 2 or v1 % 2:
        raise ValueError(f"{n} is not a valid offset vector length")
    return CgrParams.from_v1(v1)


def search(spec: SearchSpec, budget: int = DEFAULT_BUDGET) -> tuple[list[OffsetVector], SearchStats]:
    """Run the search; every returned vector passes verify_mds. An
    exhaustive search with a free prefix walks the vectors that start with
    0 and shifts them to the other first values (see _exhaustive); a random
    one places each trial's first free row from a table of its placements.
    Raises ValueError on a negative limit or budget and, before any layout,
    on a size over MAX_GRID_BITS."""
    if spec.max_trials < 0:
        raise ValueError(f"max_trials must be >= 0, got {spec.max_trials}")
    if spec.stop_after is not None and spec.stop_after < 0:
        raise ValueError(f"stop_after must be >= 0, got {spec.stop_after}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if spec.strategy not in ("exhaustive", "random"):
        raise ValueError(f"unknown strategy {spec.strategy!r} (use 'exhaustive' or 'random')")
    params = spec.params
    v2 = params.v2
    prefix = canonical_prefix(params.v1) if spec.fix_prefix else ()
    nfree = params.num_rows - len(prefix)
    space = None
    if spec.strategy == "exhaustive":
        space = 1
        for _ in range(nfree):  # only up to the budget: v2**nfree can be huge
            space *= v2
            if space > budget:
                raise BudgetExceededError(f"exhaustive space {v2}^{nfree} exceeds budget {budget}")
    if 2 * params.num_rows * v2 * params.num_vertices > MAX_GRID_BITS:
        raise ValueError(f"search at v1 = {params.v1} lays out over {MAX_GRID_BITS} mask bits")

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
    # strategies, and they always place. Prefix row j, of either kind, holds
    # bits of ring j only: in columns 0 and d, ring positions j and j + d
    # (vertex row) and edges {v1, v1 + 1} and {v1 + d, v1 + d + 1} (ring-edge
    # row), mod v2 = v1 + 3. As j < v1 and 1 <= d <= v2 // 2, neither edge is
    # {j, j + d}, and the edges XOR to four bits, or to {v1, v1 + 2} when
    # d = 1: no XOR of the four masks is 0.
    doubled = [row + row for row in map_unshifted(params)]
    distances = range(1, v2 // 2 + 1)
    bases = [{} for _ in distances]
    for row, k in zip(doubled, prefix):
        bases = _place(bases, row, k, distances)
    if spec.strategy == "exhaustive":
        return _exhaustive(doubled, bases, prefix, v2, space, spec.stop_after)
    # A trial draws each offset as it places the row, up to the first that
    # fails, then jumps to the state nfree draws leave: the same vectors.
    # Every trial places the first free row onto the same prefix bases, so
    # its v2 placements are kept in a table, each made when first drawn.
    first, *rest = doubled[len(prefix):]
    table = {}
    rng = Lcg(spec.seed)
    multiplier, increment = jump(nfree)
    found: list[OffsetVector] = []
    trials = hits = 0
    while trials < spec.max_trials:
        if spec.stop_after is not None and len(found) >= spec.stop_after:
            break
        trials += 1
        start = rng.state
        k = rng.randint(v2)
        if k not in table:
            table[k] = _place(bases, first, k, distances)
        free, placed = [k], table[k]
        for row in rest:
            if placed is None:
                break
            free.append(rng.randint(v2))
            placed = _place(placed, row, free[-1], distances)
        if placed is not None:
            hits += 1
            found.append(OffsetVector(prefix + tuple(free)))
        rng.state = (start * multiplier + increment) & MASK64
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
    lexicographic scan. Each node places its row; the first dependent pair
    rules out the node's whole subtree, whose v2 ** (rows left) candidates
    still count as trials. nodes counts the nodes visited.

    With no prefix, only the vectors that start with 0 (class 0) are walked,
    and class c, the vectors that start with c, is class 0 plus c in every
    entry, mod v2. Proof: let s be the ring rotation, bit j*v2 + k ->
    j*v2 + (k + 1) % v2. Each unshifted row moves one cell to the side under
    it, s(row[k]) = row[k + 1], so row[k + c] = s^c(row[k]): along the path
    a + c (c added to every value of a path a), each node places onto the
    basis of (0, d) the images under s^c of the masks that the matching
    node along a places there. s^c permutes bits, so it is an
    invertible GF(2)-linear map and maps the span of any masks onto the span
    of their images: each placement under first value c fails exactly when
    its twin under 0 fails. The two subtrees visit as many nodes and cover
    as many trials, and the hits under c are those under 0 plus c. So
    trials and hits are v2 times class 0's, space is unchanged, nodes counts
    class 0's walk alone, and the returned list is each class in turn, c
    ascending, each sorted, since the wrap mod v2 breaks lexicographic order
    inside a class. All of class 0's hits, hits / v2 vectors, are kept
    whatever stop_after is, as the other classes are built from them. A
    fixed prefix is not shifted with the free rows, so its search walks
    every value of its first free row.
    """
    distances = range(1, v2 // 2 + 1)
    nrows = len(doubled)
    keep = stop_after if prefix else None
    found: list[OffsetVector] = []
    trials = hits = nodes = 0

    def visit(bases, vec):
        nonlocal trials, hits, nodes
        depth = len(vec)
        row = doubled[depth]
        below = v2 ** (nrows - depth - 1)
        for k in range(v2 if vec else 1):  # vec is empty only at a free search's root
            nodes += 1
            children = _place(bases, row, k, distances)
            if children is None:
                trials += below
            elif depth + 1 < nrows:
                visit(children, vec + (k,))
            else:
                trials += 1
                hits += 1
                if keep is None or len(found) < keep:
                    found.append(OffsetVector(vec + (k,)))

    visit(bases, prefix)
    if prefix:
        return found, SearchStats(trials, hits, space, nodes)
    vectors: list[OffsetVector] = []
    for c in range(v2):
        if stop_after is not None and len(vectors) >= stop_after:
            break
        vectors += sorted(OffsetVector((a + c) % v2 for a in vec) for vec in found)
    return vectors[:stop_after], SearchStats(v2 * trials, v2 * hits, space, nodes)
