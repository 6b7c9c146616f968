"""Exhaustive and seeded-random search for valid offset vectors."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .code import MdsResult, sweep_pairs, verify_mds
from .fixtures import BUILTIN_VECTORS
from .graph import CgrParams, build_cgr
from .layout import OffsetVector, build_code_array, map_unshifted, rotate_rows
from .rng import Lcg

DEFAULT_BUDGET = 10**7


class BudgetExceededError(Exception):
    """Exhaustive space larger than the configured verification budget."""


@dataclass(frozen=True)
class SearchSpec:
    """What to search: code size, free entries, strategy, and limits.

    fix_prefix holds the canonical prefix (0..v1-1, then v1 repeated) fixed
    and varies only the v1(v1-1)/2 inter-ring entries; otherwise the whole
    vector is free. strategy is "exhaustive" (full scan of the free space)
    or "random" (max_trials seeded draws). stop_after caps how many valid
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
    """trials = vectors tested; hits = valid vectors seen (for exhaustive
    runs this is the exact count in the whole space); space = size of the
    enumerated space for exhaustive runs, None for random."""

    trials: int
    hits: int
    space: int | None


def params_for_offset_length(n: int) -> CgrParams:
    """Recover (v1, v2) from an offset vector length v1*(v1+3)/2."""
    v1 = int((math.isqrt(9 + 8 * n) - 3) // 2)
    if v1 * (v1 + 3) // 2 != n or v1 < 2 or v1 % 2:
        raise ValueError(f"{n} is not a valid offset vector length")
    return CgrParams.from_v1(v1)


def _canonical_prefix(params: CgrParams) -> tuple[int, ...]:
    return tuple(range(params.v1)) + (params.v1,) * params.v1


def search(spec: SearchSpec, budget: int = DEFAULT_BUDGET) -> tuple[list[OffsetVector], SearchStats]:
    """Run the search; every returned vector passes verify_mds."""
    if spec.max_trials < 0:
        raise ValueError(f"max_trials must be >= 0, got {spec.max_trials}")
    if spec.stop_after is not None and spec.stop_after < 0:
        raise ValueError(f"stop_after must be >= 0, got {spec.stop_after}")
    params = spec.params
    v2 = params.v2
    prefix = _canonical_prefix(params) if spec.fix_prefix else ()
    nfree = params.num_rows - len(prefix)
    space = v2**nfree if spec.strategy == "exhaustive" else None
    if space is not None and space > budget:
        raise BudgetExceededError(f"exhaustive space {v2}^{nfree} exceeds budget {budget}")

    # Rotating a row moves its cells but not the variables they hold, so a
    # candidate's mask grid is the unshifted one with each row rotated, over
    # the same positions.
    unshifted = map_unshifted(build_cgr(params))
    nvars = len(unshifted.positions)

    def is_valid(vec: tuple[int, ...]) -> bool:
        return sweep_pairs(rotate_rows(unshifted.masks, vec), nvars).is_mds

    found: list[OffsetVector] = []
    if spec.strategy == "exhaustive":
        trials = hits = 0
        for combo in itertools.product(range(v2), repeat=nfree):
            trials += 1
            vec = prefix + combo
            if is_valid(vec):
                hits += 1
                if spec.stop_after is None or len(found) < spec.stop_after:
                    found.append(OffsetVector(vec))
        return found, SearchStats(trials, hits, space)
    if spec.strategy == "random":
        rng = Lcg(spec.seed)
        trials = hits = 0
        while trials < spec.max_trials:
            if spec.stop_after is not None and len(found) >= spec.stop_after:
                break
            trials += 1
            vec = prefix + tuple(rng.randint(v2) for _ in range(nfree))
            if is_valid(vec):
                hits += 1
                found.append(OffsetVector(vec))
        return found, SearchStats(trials, hits, None)
    raise ValueError(f"unknown strategy {spec.strategy!r} (use 'exhaustive' or 'random')")


def validate_fixture_set(vectors: dict[str, tuple[int, ...]] | None = None) -> dict[str, MdsResult]:
    """Per-vector MDS verdict; defaults to the built-in vector set."""
    if vectors is None:
        vectors = BUILTIN_VECTORS
    results: dict[str, MdsResult] = {}
    for name, vec in vectors.items():
        params = params_for_offset_length(len(tuple(vec)))
        results[name] = verify_mds(build_code_array(params, vec))
    return results
