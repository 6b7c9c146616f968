"""GF(2) linear algebra on integer bitmasks.

An equation system is a list of (mask, rhs) pairs: mask is an int whose set
bits select variables, rhs is any non-negative int, and the equation asserts
that the XOR of the selected variables equals rhs. Each bit plane of rhs is
an independent GF(2) system with the same masks, so one elimination solves
all of them at once: a cell value of any width is one rhs.
"""

from __future__ import annotations


def extend(basis: dict[int, int], masks, slack: int) -> int:
    """Insert masks into an echelon basis (pivot bit -> row), in place.

    Each mask that reduces to zero, a zero mask included, uses up one unit
    of slack. Returns the slack left, which is negative when the masks do
    not fit: -1 as soon as a dependent mask finds no slack, and the basis
    then holds the masks inserted so far.
    """
    for m in masks:
        while m:
            p = m.bit_length() - 1
            row = basis.get(p)
            if row is None:
                basis[p] = m
                break
            m ^= row
        else:
            slack -= 1
            if slack < 0:
                return -1
    return slack


def rank(masks: list[int]) -> int:
    """Rank of a set of GF(2) row vectors given as bitmasks."""
    basis: dict[int, int] = {}
    extend(basis, masks, len(masks))
    return len(basis)


def solve_unique(equations: list[tuple[int, int]], nvars: int) -> tuple[dict[int, int], int] | None:
    """Solve a GF(2) system for a unique assignment of all nvars variables.

    Returns (assignment, xor_ops) where assignment maps each variable index
    to its value (an int as wide as the rhs values, every bit plane solved
    at once) and xor_ops counts row-XOR operations performed, or None when
    the system is rank-deficient. Raises ValueError on an inconsistent
    system.

    Gauss-Jordan: every basis row holds exactly one pivot bit, its own, so
    an incoming equation is reduced by XORing the basis rows of exactly the
    pivot bits it holds on arrival, and xor_ops does not depend on the order
    in which rows or pivots are scanned.
    """
    basis: dict[int, tuple[int, int]] = {}
    pivots = 0  # OR of the pivot bits in basis
    support = 0  # OR of every inserted row: a superset of every bit in basis
    ops = 0
    for m, r in equations:
        hit = m & pivots  # read once: a basis row toggles no other pivot
        while hit:
            rest = hit & (hit - 1)
            bm, br = basis[(hit ^ rest).bit_length() - 1]
            m ^= bm
            r ^= br
            ops += 1
            hit = rest
        if not m:
            if r:
                raise ValueError("inconsistent GF(2) system")
            continue
        p = m.bit_length() - 1
        if (support >> p) & 1:
            for q, (bm, br) in basis.items():
                if (bm >> p) & 1:
                    basis[q] = (bm ^ m, br ^ r)
                    ops += 1
        basis[p] = (m, r)
        pivots |= 1 << p
        support |= m
    if len(basis) < nvars:
        return None
    return {p: r for p, (_, r) in basis.items()}, ops
