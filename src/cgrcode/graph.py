"""Complete-graph-of-rings construction and one-factorizations.

A CGR graph CGR(K_v1, C_v2) replaces each vertex of the complete graph K_v1
with a ring of v2 vertices and each base edge with v2 parallel edges joining
corresponding ring positions. Offset derivation additionally needs a perfect
one-factorization of K_{v1+2} whose labels are the v1 ring indices plus two
sentinels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

NEG_INF = float("-inf")
POS_INF = float("inf")

Label = int | float
Pair = tuple[Label, Label]


@dataclass(frozen=True)
class CgrParams:
    """Size parameters: v1 rings (even, >= 2) of length v2 = v1 + 3."""

    v1: int
    v2: int

    def __post_init__(self) -> None:
        if self.v1 < 2 or self.v1 % 2 != 0:
            raise ValueError(f"v1 must be even and >= 2, got {self.v1}")
        if self.v2 != self.v1 + 3:
            raise ValueError(f"v2 must equal v1 + 3, got v1={self.v1}, v2={self.v2}")

    @classmethod
    def from_v1(cls, v1: int) -> CgrParams:
        return cls(v1, v1 + 3)

    @property
    def num_vertices(self) -> int:
        return self.v1 * self.v2

    @property
    def num_rows(self) -> int:
        return self.v1 * self.v2 // 2


@dataclass(frozen=True)
class CgrGraph:
    """Labeled CGR graph: per-ring vertex sets, ring edges, inter-ring edges.

    Ring j owns vertices j*v2 .. (j+1)*v2 - 1. Ring edges run between
    consecutive vertices with the wrap-around edge (largest, smallest) last.
    Inter-ring edges for ring pair (i, j) join equal ring positions, in
    ascending position order.
    """

    params: CgrParams
    vertex_sets: tuple[tuple[int, ...], ...]
    ring_edges: tuple[tuple[tuple[int, int], ...], ...]
    inter_ring_edges: dict[tuple[int, int], tuple[tuple[int, int], ...]]

    def edge_list(self) -> list[tuple[int, int]]:
        """All edges in canonical order: ring edge sets first, then inter-ring
        sets in lexicographic ring-pair order, each in stored edge order."""
        edges: list[tuple[int, int]] = []
        for ring in self.ring_edges:
            edges.extend(ring)
        for pair in sorted(self.inter_ring_edges):
            edges.extend(self.inter_ring_edges[pair])
        return edges


def build_cgr(params: CgrParams) -> CgrGraph:
    """Construct and label CGR(K_v1, C_v2) deterministically."""
    v1, v2 = params.v1, params.v2
    vertex_sets = tuple(tuple(range(j * v2, (j + 1) * v2)) for j in range(v1))
    ring_edges = tuple(
        tuple((j * v2 + k, j * v2 + k + 1) for k in range(v2 - 1)) + (((j + 1) * v2 - 1, j * v2),)
        for j in range(v1)
    )
    inter = {
        (i, j): tuple((i * v2 + k, j * v2 + k) for k in range(v2))
        for i in range(v1)
        for j in range(i + 1, v1)
    }
    return CgrGraph(params, vertex_sets, ring_edges, inter)


@dataclass(frozen=True)
class Factorization:
    """One-factorization of K_{v1+2} over labels {NEG_INF, 0..v1-1, POS_INF}.

    factors[p] lists the edges of factor p, center edge (NEG_INF, x) first.
    In a perfect one-factorization the union of any two factors is a single
    Hamiltonian cycle.
    """

    order: int
    factors: tuple[tuple[Pair, ...], ...]

    def center_of(self, index: int) -> Label:
        """The label paired with NEG_INF in the given factor."""
        for a, b in self.factors[index]:
            if a == NEG_INF:
                return b
            if b == NEG_INF:
                return a
        raise ValueError(f"factor {index} has no center edge")

    def factor_of_edge(self) -> dict[frozenset[Label], int]:
        """Map from edge (as a label set) to its factor index."""
        lookup: dict[frozenset[Label], int] = {}
        for idx, factor in enumerate(self.factors):
            for a, b in factor:
                lookup[frozenset((a, b))] = idx
        return lookup


def _normalize(a: Label, b: Label) -> Pair:
    return (a, b) if a < b else (b, a)


def _union_is_hamiltonian(f1: tuple[Pair, ...], f2: tuple[Pair, ...], order: int) -> bool:
    adj: dict[Label, list[Label]] = {}
    for a, b in itertools.chain(f1, f2):
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    start = f1[0][0]
    prev: Label | None = None
    cur = start
    steps = 0
    while True:
        nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
        prev, cur = cur, nxt
        steps += 1
        if cur == start:
            return steps == order


def _is_perfect(factors: tuple[tuple[Pair, ...], ...], order: int) -> bool:
    return all(
        _union_is_hamiltonian(f1, f2, order) for f1, f2 in itertools.combinations(factors, 2)
    )


# Hamiltonicity checks the backtracking search may spend before giving up:
# v1 = 8 needs 67, while v1 = 14 finds nothing in hundreds of thousands.
SEARCH_CHECK_LIMIT = 100_000


@lru_cache(maxsize=None)
def _searched_factorization(v1: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """First perfect one-factorization of K_{v1+2} found by backtracking.

    Works on center vertex c = v1+1 and position vertices 0..v1; factor p is
    forced to contain edge (c, p). Deterministic: matchings are enumerated in
    lexicographic order and the first complete solution wins. Raises
    ValueError after SEARCH_CHECK_LIMIT Hamiltonicity checks.
    """
    n = v1 + 1
    center = n
    used: set[tuple[int, int]] = set()
    factors: list[tuple[tuple[int, int], ...]] = []
    checks = 0

    def is_hamiltonian_with(factor, other) -> bool:
        nonlocal checks
        if checks == SEARCH_CHECK_LIMIT:
            raise ValueError(
                f"no perfect one-factorization of order {v1 + 2} found within "
                f"{SEARCH_CHECK_LIMIT} Hamiltonicity checks"
            )
        checks += 1
        return _union_is_hamiltonian(factor, other, n + 1)

    def matchings(pool: list[int]):
        if not pool:
            yield []
            return
        x = pool[0]
        for k, y in enumerate(pool[1:], start=1):
            if (x, y) in used:
                continue
            rest = pool[1:k] + pool[k + 1 :]
            for m in matchings(rest):
                yield [(x, y)] + m

    def extend(p: int) -> bool:
        if p == n:
            return True
        pool = [q for q in range(n) if q != p]
        for m in matchings(pool):
            factor = ((center, p), *m)
            if all(is_hamiltonian_with(factor, f) for f in factors):
                used.update(m)
                factors.append(factor)
                if extend(p + 1):
                    return True
                factors.pop()
                used.difference_update(m)
        return False

    if not extend(0):
        raise ValueError(f"no perfect one-factorization found for order {v1 + 2}")
    return tuple(factors)


def pif_factorize(v1: int, placement: tuple[Label, ...] | None = None) -> Factorization:
    """Perfect one-factorization of K_{v1+2} into v1+1 center-indexed factors.

    placement assigns the labels {0..v1-1, POS_INF} to the v1+1 cycle
    positions (default: identity order with POS_INF last). Factor p contains
    the center edge (NEG_INF, placement[p]).

    The wheel construction pairs positions equidistant from p into diagonals;
    it is used whenever it yields a perfect factorization. For orders where
    no rotational scheme is perfect (v1 = 8 is the smallest), a deterministic
    backtracking search supplies the factorization instead; it raises
    ValueError when SEARCH_CHECK_LIMIT checks find none (v1 = 14, 20).
    """
    if v1 < 2 or v1 % 2 != 0:
        raise ValueError(f"v1 must be even and >= 2, got {v1}")
    n = v1 + 1
    if placement is None:
        placement = tuple(range(v1)) + (POS_INF,)
    placement = tuple(placement)
    if len(placement) != n or set(placement) != set(range(v1)) | {POS_INF}:
        raise ValueError("placement must be a bijection of {0..v1-1, POS_INF} onto cycle positions")

    factors = tuple(
        ((NEG_INF, placement[p]),)
        + tuple(
            _normalize(placement[(p - k) % n], placement[(p + k) % n]) for k in range(1, v1 // 2 + 1)
        )
        for p in range(n)
    )
    if not _is_perfect(factors, v1 + 2):
        positional = _searched_factorization(v1)
        relabel: dict[int, Label] = {q: placement[q] for q in range(n)}
        relabel[n] = NEG_INF
        factors = tuple(
            ((NEG_INF, placement[p]),)
            + tuple(_normalize(relabel[a], relabel[b]) for a, b in factor[1:])
            for p, factor in enumerate(positional)
        )
    return Factorization(v1 + 2, factors)
