"""Shared fixtures: ready-made arrays for the smallest code sizes."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from cgrcode import (
    BUILTIN_VECTORS,
    POS_INF,
    CgrParams,
    CodeArray,
    OffsetVector,
    build_code_array,
    derive_offsets,
    dualize,
    pif_factorize,
    puncture,
)
from cgrcode.cli import mask_records
from cgrcode.rng import Lcg
from cgrcode.search import params_for_offset_length


def builtin_array(name: str) -> CodeArray:
    vector = BUILTIN_VECTORS[name]
    return build_code_array(params_for_offset_length(len(vector)), vector)


# Version 1 code files, written by the version 1 writer: k2_c5 and the
# canonical v1 = 8 array (derive_offsets(pif_factorize(8))), each as primal
# and as dual. The loader refuses them with the commands that regenerate them.
DATA = Path(__file__).parent / "data"
V1_FILES = ("k2_c5_v1.json", "k2_c5_dual_v1.json", "v8_v1.json", "v8_dual_v1.json")


def _v1_text(array: CodeArray) -> str:
    """The text of array's version 1 code file: the header and every cell's
    record, as the version 1 writer laid them out."""
    obj = {
        "version": "1",
        "v1": array.params.v1,
        "v2": array.params.v2,
        "offset_vector": list(array.offsets),
        "rows": mask_records(array.masks, array.params.v2),
    }
    return json.dumps(obj, indent=2) + "\n"


# Mutations of a version 2 header (to_obj of k2_c5) that the loader refuses.
V2_MUTATIONS = [
    # The key set must be exactly the five header fields.
    lambda o: o.update(rows=[]),
    lambda o: o.update(extra=0),
    lambda o: o.pop("dual"),
    lambda o: o.pop("offset_vector"),
    lambda o: o.pop("v2"),
    # dual is a JSON bool.
    lambda o: o.update(dual=0),
    lambda o: o.update(dual=1),
    lambda o: o.update(dual="true"),
    lambda o: o.update(dual=None),
    # v1 and v2 are ints that fit each other; a float or a bool is refused.
    lambda o: o.update(v1=2.0),
    lambda o: o.update(v1=True),
    lambda o: o.update(v1="2"),
    lambda o: o.update(v2=5.0),
    lambda o: o.update(v1=4),
    lambda o: o.update(v2=6),
    lambda o: o.update(v1=3, v2=6),
    # The offset vector must pass validate_for.
    lambda o: o["offset_vector"].pop(),
    lambda o: o["offset_vector"].append(0),
    lambda o: o["offset_vector"].__setitem__(0, 5),
    lambda o: o["offset_vector"].__setitem__(0, -1),
    lambda o: o["offset_vector"].__setitem__(0, False),
    lambda o: o["offset_vector"].__setitem__(4, 4.0),
    lambda o: o.update(offset_vector=None),
    lambda o: o.update(offset_vector="01224"),
    lambda o: o.update(offset_vector=7),
    # A version 1 object and an unknown version are refused.
    lambda o: o.update(version="1"),
    lambda o: o.update(version="3"),
    lambda o: o.update(version=2),
    lambda o: o.pop("version"),
    # An odd v1 alone, and ints that are missing, null, infinite or fractional.
    lambda o: o.update(v1=3),
    lambda o: o.pop("v1"),
    lambda o: o.update(v1=None),
    lambda o: o.update(v1=1e400),
    lambda o: o.update(v1=2.5),
    lambda o: o["offset_vector"].__setitem__(0, 1e400),
    lambda o: o["offset_vector"].__setitem__(4, 4.9),
]


def mislabelled_v1_4_grids() -> dict[str, CodeArray]:
    """v1 = 4 grids whose header does not describe them: the primal and the
    dual laid out at zero offsets under a header of the canonical offsets,
    and the punctured canonical primal under a header of zero offsets. Each
    is a grid of the right shape and kind, and none is CodeArray.built."""
    params = CgrParams.from_v1(4)
    canonical = derive_offsets(pif_factorize(4))
    zeros = OffsetVector((0,) * params.num_rows)
    at_zero = build_code_array(params, zeros)
    return {
        "primal": CodeArray(params, canonical, at_zero.masks),
        "dual": CodeArray(params, canonical, dualize(at_zero).masks),
        "punctured": CodeArray(params, zeros, puncture(build_code_array(params, canonical)).masks),
    }


def _canonical(v1: int) -> CodeArray:
    """The canonical array of size v1: derive_offsets(pif_factorize(v1)), built."""
    return build_code_array(CgrParams.from_v1(v1), derive_offsets(pif_factorize(v1)))


def no_layout(monkeypatch, module, names, message: str) -> None:
    """Patch each of names on module with a stand-in that fails the test
    with message when it is called: a check that nothing lays out a grid."""

    def refuse(*args):
        raise AssertionError(message)

    for name in names:
        monkeypatch.setattr(module, name, refuse)


def _scratch_rank(masks):
    """Rank by elimination on a copy, written apart from gf2's basis: the
    reference rank of the gf2 and codec tests."""
    rows = [m for m in masks if m]
    rank = 0
    while rows:
        pivot = max(rows)
        top = pivot.bit_length() - 1
        rows = [r ^ pivot if r >> top & 1 else r for r in rows if r != pivot]
        rows = [r for r in rows if r]
        rank += 1
    return rank


def _reference_sweep(columns, nvars, survivor_sets):
    """(is_mds, erased witness, patterns checked) from the rank of every cell
    mask of each survivor set, stopping at the first rank-deficient set."""
    checked = 0
    for survivors in survivor_sets:
        checked += 1
        if _scratch_rank([m for c in survivors for m in columns[c]]) < nvars:
            return False, set(range(len(columns))) - set(survivors), checked
    return True, None, checked


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
