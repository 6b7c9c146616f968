"""Seeded 64-bit linear congruential generator.

Fixed published constants (Knuth's MMIX multiplier/increment) so the same
seed reproduces identical data, permutations, and search trials across
platforms and reimplementations. Bounded draws use the multiply-shift of the
top 64 bits; bits come from the top bit.
"""

from __future__ import annotations

MULTIPLIER = 6364136223846793005
INCREMENT = 1442695040888963407
MASK64 = (1 << 64) - 1


class Lcg:
    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state * MULTIPLIER + INCREMENT) & MASK64
        return self.state

    def randint(self, n: int) -> int:
        """Uniform-ish draw in [0, n) via multiply-shift."""
        self.state = (self.state * MULTIPLIER + INCREMENT) & MASK64  # next_u64, a call less per draw
        return (self.state * n) >> 64

    def bit(self) -> int:
        return self.next_u64() >> 63

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> tuple[int, ...]:
        items = list(range(n))
        self.shuffle(items)
        return tuple(items)


def jump(steps: int) -> tuple[int, int]:
    """(a, c) such that steps next_u64 calls take a state s to (a*s + c) & MASK64."""
    a, c = 1, 0
    for _ in range(steps):
        a, c = a * MULTIPLIER & MASK64, (c * MULTIPLIER + INCREMENT) & MASK64
    return a, c
