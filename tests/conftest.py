"""Shared fixtures: ready-made arrays for the smallest code sizes."""

from __future__ import annotations

import pytest

from cgrcode import BUILTIN_VECTORS, POS_INF, CgrParams, CodeArray, build_code_array
from cgrcode.rng import Lcg
from cgrcode.search import params_for_offset_length


def builtin_array(name: str) -> CodeArray:
    vector = BUILTIN_VECTORS[name]
    return build_code_array(params_for_offset_length(len(vector)), vector)


def random_bits(array: CodeArray, seed: int) -> dict[int, int]:
    rng = Lcg(seed)
    return {v: rng.bit() for v in array.info_ids()}


@pytest.fixture(scope="session")
def k2_array() -> CodeArray:
    return builtin_array("k2_c5")


@pytest.fixture(scope="session")
def k4a_array() -> CodeArray:
    return builtin_array("k4_c7_a")


@pytest.fixture(scope="session")
def k2_params() -> CgrParams:
    return CgrParams.from_v1(2)


def placements_and_pis(v1: int):
    """Three cycle placements times three pi for one size: the identity,
    the reversal and a seeded shuffle of each."""
    rng = Lcg(v1)
    labels = list(range(v1)) + [POS_INF]
    placements = [None, tuple(reversed(labels)), tuple(labels[i] for i in rng.permutation(v1 + 1))]
    pis = [None, tuple(reversed(range(v1))), rng.permutation(v1)]
    return [(placement, pi) for placement in placements for pi in pis]
