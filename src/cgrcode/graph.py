"""Complete-graph-of-rings construction and one-factorizations.

A CGR graph CGR(K_v1, C_v2) replaces each vertex of the complete graph K_v1
with a ring of v2 vertices and each base edge with v2 parallel edges joining
corresponding ring positions. Offset derivation additionally needs a perfect
one-factorization of K_{v1+2} whose labels are the v1 ring indices plus two
sentinels. When v1 + 1 is prime it is the wheel, the cyclic factorization of
the patterned starter {x, -x}, which is perfect exactly then; otherwise it is
a frozen table entry (v1 = 8, 14, 20, 24). Nothing is searched or checked at
run time: the tests check perfectness.
"""

from __future__ import annotations

NEG_INF = float("-inf")
POS_INF = float("inf")

Label = int | float
Pair = tuple[Label, Label]


class Value:
    """Base of the library's value types: plain classes, because dataclasses
    import inspect and ast and build each class with exec, a cost every CLI
    command paid at start-up.

    A value's fields are its __init__'s parameters, in order. __init__
    stores them with object.__setattr__, as a frozen dataclass does, and
    setting or deleting an attribute later raises AttributeError. (Storing
    through self.__dict__ builds faster, but an instance whose __dict__ has
    been read loses CPython 3.11's and 3.12's fast attribute reads: each
    read took about 4x as long.) Values of one class compare and hash by the
    fields in _compared (default: all of them) and show as a dataclass does.
    """

    _compared: tuple[str, ...] | None = None

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._compared or self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"


class CgrParams(Value):
    """Size parameters: v1 rings (even, >= 2) of length v2 = v1 + 3."""

    def __init__(self, v1: int, v2: int) -> None:
        if type(v1) is not int or type(v2) is not int:  # rejects bools too
            raise ValueError(f"v1 and v2 must be ints, got v1={v1!r}, v2={v2!r}")
        if v1 < 2 or v1 % 2 != 0:
            raise ValueError(f"v1 must be even and >= 2, got {v1}")
        if v2 != v1 + 3:
            raise ValueError(f"v2 must equal v1 + 3, got v1={v1}, v2={v2}")
        object.__setattr__(self, "v1", v1)
        object.__setattr__(self, "v2", v2)

    @classmethod
    def from_v1(cls, v1: int) -> CgrParams:
        return cls(v1, v1 + 3)

    @property
    def num_vertices(self) -> int:
        return self.v1 * self.v2

    @property
    def num_rows(self) -> int:
        return self.v1 * self.v2 // 2


class CgrGraph(Value):
    """Labeled CGR graph: per-ring vertex sets, ring edges, inter-ring edges.

    Ring j owns vertices j*v2 .. (j+1)*v2 - 1. Ring edges run between
    consecutive vertices with the wrap-around edge (largest, smallest) last.
    Inter-ring edges for ring pair (i, j) join equal ring positions, in
    ascending position order. It is unhashable, as inter_ring_edges is a dict.
    """

    def __init__(self, params: CgrParams, vertex_sets, ring_edges, inter_ring_edges) -> None:
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "vertex_sets", vertex_sets)
        object.__setattr__(self, "ring_edges", ring_edges)
        object.__setattr__(self, "inter_ring_edges", inter_ring_edges)

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


class Factorization(Value):
    """One-factorization of K_{v1+2} over labels {NEG_INF, 0..v1-1, POS_INF}.

    factors[p] lists the edges of factor p, center edge (NEG_INF, x) first:
    a contract, which derive_offsets checks. In a perfect one-factorization
    the union of any two factors is a single Hamiltonian cycle.
    """

    def __init__(self, factors: tuple[tuple[Pair, ...], ...]) -> None:
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        """v1 + 2: K_{v1+2} has one factor fewer than it has vertices."""
        return len(self.factors) + 1


def _translates(starter: tuple[tuple[int, int], ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The cyclic one-factorization a starter of Z_n generates: factor i is
    the starter shifted by i, plus the center edge (n, i)."""
    n = 2 * len(starter) + 1
    return tuple(((n, i),) + tuple(((a + i) % n, (b + i) % n) for a, b in starter) for i in range(n))


# Perfect one-factorizations of K_{v1+2} for the v1 whose wheel is not
# perfect (v1 + 1 composite), on center vertex v1 + 1 and positions 0..v1:
# factor p holds the center edge (v1 + 1, p). v1 = 8 has no perfect starter
# in Z_9, so its factors are listed in full; the others are the first perfect
# starters of Z_{v1+1} in lexicographic order (Anderson, JCT B 1973; Dinitz &
# Stinson, "Perfect one-factorizations", Handbook of Combinatorial Designs).
_FROZEN_FACTORS = {
    8: (
        ((9, 0), (1, 2), (3, 4), (5, 6), (7, 8)),
        ((9, 1), (0, 3), (2, 5), (4, 7), (6, 8)),
        ((9, 2), (0, 4), (1, 6), (3, 8), (5, 7)),
        ((9, 3), (0, 2), (1, 7), (4, 6), (5, 8)),
        ((9, 4), (0, 1), (2, 8), (3, 5), (6, 7)),
        ((9, 5), (0, 7), (1, 3), (2, 6), (4, 8)),
        ((9, 6), (0, 8), (1, 5), (2, 4), (3, 7)),
        ((9, 7), (0, 6), (1, 8), (2, 3), (4, 5)),
        ((9, 8), (0, 5), (1, 4), (2, 7), (3, 6)),
    ),
    14: _translates(((1, 3), (2, 11), (4, 5), (6, 13), (7, 10), (8, 12), (9, 14))),
    20: _translates(
        ((1, 2), (3, 15), (4, 20), (5, 16), (6, 8), (7, 13), (9, 12), (10, 17), (11, 19), (14, 18))
    ),
    24: _translates(
        ((1, 2), (3, 5), (4, 8), (6, 17), (7, 23), (9, 14), (10, 18), (11, 24), (12, 22),
         (13, 20), (15, 21), (16, 19))
    ),
}


def pif_factorize(v1: int, placement: tuple[Label, ...] | None = None) -> Factorization:
    """Perfect one-factorization of K_{v1+2} into v1+1 center-indexed factors.

    placement assigns the labels {0..v1-1, POS_INF} to the v1+1 cycle
    positions (default: identity order with POS_INF last), each entry an int
    or POS_INF. Factor p contains the center edge (NEG_INF, placement[p]).

    When v1 + 1 is prime the positional factors are the wheel: the translates
    of the patterned starter {x, -x}, so factor p pairs the positions p - k
    and p + k. That factorization is perfect exactly when v1 + 1 is prime
    (Anderson, JCT B 1973). Otherwise they come from _FROZEN_FACTORS
    (v1 = 8, 14, 20, 24), and any other v1 raises ValueError at once. Either
    way they are relabelled through the placement; perfectness is checked by
    the tests, not at run time.
    """
    CgrParams.from_v1(v1)  # the one owner of the v1 rule
    n = v1 + 1
    if placement is None:
        placement = tuple(range(v1)) + (POS_INF,)
    placement = tuple(placement)
    for a in placement:
        if type(a) is not int and a != POS_INF:  # rejects bools and floats that equal a label
            raise ValueError(f"placement entry {a!r} is neither an int nor POS_INF")
    if len(placement) != n or set(placement) != set(range(v1)) | {POS_INF}:
        raise ValueError("placement must be a bijection of {0..v1-1, POS_INF} onto cycle positions")

    if all(n % d for d in range(2, int(n**0.5) + 1)):  # n is prime
        positional = _translates(tuple((n - k, k) for k in range(1, v1 // 2 + 1)))
    elif v1 in _FROZEN_FACTORS:
        positional = _FROZEN_FACTORS[v1]
    else:
        raise ValueError(
            f"no perfect one-factorization of order {v1 + 2}: the wheel needs v1 + 1 "
            f"prime, and the frozen table covers only v1 in {sorted(_FROZEN_FACTORS)}"
        )
    factors = tuple(
        ((NEG_INF, placement[p]),)
        + tuple(tuple(sorted((placement[a], placement[b]))) for a, b in factor[1:])
        for p, factor in enumerate(positional)
    )
    return Factorization(factors)
