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


def solve_unique(equations: list[tuple[int, int]]) -> tuple[dict[int, int], int]:
    """Solve a GF(2) system, in one elimination whatever its rank.

    Returns (assignment, xor_ops) where assignment maps each pivot bit to
    its row's value (an int as wide as the rhs values, every bit plane
    solved at once) and xor_ops counts row-XOR operations performed. It
    holds one entry per pivot, so its length is the rank of the masks: when
    every variable is a pivot, it is the unique solution; fewer entries than
    variables mean the system is rank-deficient. Raises ValueError on an
    inconsistent system.

    Gauss-Jordan: every basis row holds exactly one pivot bit, its own, so
    an incoming equation is reduced by XORing the basis rows of exactly the
    pivot bits it holds on arrival, and xor_ops does not depend on the order
    in which rows or pivots are scanned. A column index (holders: each
    non-pivot bit -> the pivots of the rows that hold it) names the rows a
    new pivot is XORed into, so no other row is read; the new row's tail
    bits update it.
    """
    masks: dict[int, int] = {}  # pivot bit -> its row's mask
    rhs: dict[int, int] = {}  # pivot bit -> its row's value
    holders: dict[int, int] = {}  # non-pivot bit -> OR of 1 << pivot over the rows holding it
    pivots = 0  # OR of the pivot bits
    ops = 0
    for m, r in equations:
        hit = m & pivots  # read once: a basis row toggles no other pivot
        ops += hit.bit_count()
        while hit:
            rest = hit & (hit - 1)
            q = (hit ^ rest).bit_length() - 1
            m ^= masks[q]
            r ^= rhs[q]
            hit = rest
        if not m:
            if r:
                raise ValueError("inconsistent GF(2) system")
            continue
        p = m.bit_length() - 1
        rows = holders.pop(p, 0)
        ops += rows.bit_count()
        flip = rows | 1 << p  # each row toggles m's tail bits; the new row holds them
        while rows:
            rest = rows & (rows - 1)
            q = (rows ^ rest).bit_length() - 1
            masks[q] ^= m
            rhs[q] ^= r
            rows = rest
        tail = m ^ 1 << p
        while tail:
            rest = tail & (tail - 1)
            b = (tail ^ rest).bit_length() - 1
            holders[b] = holders.get(b, 0) ^ flip
            tail = rest
        masks[p], rhs[p] = m, r
        pivots |= 1 << p
    return rhs, ops
