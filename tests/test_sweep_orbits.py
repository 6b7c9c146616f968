"""The ring-rotation symmetry behind the pair sweep: which grids have it, and
that the sweep's verdict, witness and counts do not depend on it."""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgrcode import (
    BUILTIN_VECTORS,
    CgrParams,
    build_code_array,
    contract,
    derive_offsets,
    dualize,
    pif_factorize,
    verify_dual_mds,
    verify_mds,
)
from cgrcode.cli import main
from cgrcode.code import _rotates, sweep_pairs
from cgrcode.layout import cell_mask, map_unshifted, rotate_rows
from cgrcode.rng import Lcg
from cgrcode.search import _place
from test_code import _reference_sweep


def _canonical(v1: int):
    params = CgrParams.from_v1(v1)
    return build_code_array(params, derive_offsets(pif_factorize(v1)))


@pytest.mark.parametrize("v1", range(2, 26, 2))
@settings(derandomize=True, database=None, max_examples=4, deadline=None)
@given(data=st.data())
def test_built_and_dual_grids_rotate_with_the_rings(v1, data):
    params = CgrParams.from_v1(v1)
    n = params.num_rows
    vector = data.draw(st.lists(st.integers(0, params.v2 - 1), min_size=n, max_size=n))
    array = build_code_array(params, vector)
    for grid in (array, dualize(array)):
        assert _rotates(grid.masks, params.v2, len(grid.info_ids()))


def test_pairs_swept_counts_the_pairs_reduced():
    array = _canonical(18)
    for result in (verify_mds(array), verify_dual_mds(array)):
        assert (result.is_mds, result.patterns_checked, result.pairs_swept) == (True, 210, 10)
    # A contracted grid (v1 + 1 columns over v1 variables) fails the
    # rotation check, so every pair covered is a pair reduced.
    contracted = contract(array)
    pos = {v: i for i, v in enumerate(contracted.retained_ids())}
    columns = [[cell_mask(cell, pos) for cell in col] for col in contracted.columns]
    grid = list(zip(*columns))
    assert not _rotates(grid, len(columns), len(pos))
    result = sweep_pairs(grid, len(pos))
    assert result.is_mds and result.pairs_swept == result.patterns_checked == 171
    # On a failure, (0, d*) is both the d*-th pair covered and the d*-th swept.
    params = CgrParams.from_v1(4)
    broken = build_code_array(params, (0,) * params.num_rows)
    result = verify_mds(broken)
    assert not result.is_mds
    assert result.witness.survivors(params.v2)[0] == 0
    assert result.pairs_swept == result.patterns_checked == result.witness.survivors(params.v2)[1]


def test_verify_json_prints_pairs_swept(capsys):
    assert main(["verify", "--builtin", "k2_c5", "--json"]) == 0
    entry = json.loads(capsys.readouterr().out)["results"][0]
    assert (entry["patterns_checked"], entry["pairs_swept"]) == (10, 2)


@pytest.mark.parametrize("v1", [2, 4, 6])
def test_grids_without_the_symmetry_are_swept_in_full(v1):
    # Rotated primal grids, then one bit flipped in one cell or two cells of
    # a column swapped: either leaves some row that no longer moves one cell
    # to the side, so the sweep must reduce every pair, and it must agree
    # with the full-rank reference. A swap keeps each column's masks, so
    # MDS grids stay MDS; most flips break it.
    params = CgrParams.from_v1(v1)
    v2 = params.v2
    rng = Lcg(300 + v1)
    unshifted = map_unshifted(params)
    nvars = len(unshifted.info_ids())
    canonical = tuple(derive_offsets(pif_factorize(v1)))
    pairs = list(itertools.combinations(range(v2), 2))
    verdicts = set()
    for trial in range(40):
        vector = list(canonical)
        for _ in range(trial % 3):
            vector[rng.randint(params.num_rows)] = rng.randint(v2)
        grid = [list(row) for row in rotate_rows(unshifted.masks, vector)]
        c = rng.randint(v2)
        r = rng.randint(len(grid))
        if trial % 2:
            grid[r][c] ^= 1 << rng.randint(nvars)
        else:
            s = (r + 1 + rng.randint(len(grid) - 1)) % len(grid)
            grid[r][c], grid[s][c] = grid[s][c], grid[r][c]
        assert not _rotates(grid, v2, nvars)
        result = sweep_pairs(grid, nvars)
        witness = result.witness and set(result.witness.erased_columns)
        expected = _reference_sweep(list(zip(*grid)), nvars, pairs)
        assert (result.is_mds, witness, result.patterns_checked) == expected
        assert result.pairs_swept == result.patterns_checked
        verdicts.add(result.is_mds)
    assert verdicts == {True, False}


def test_a_ragged_grid_is_swept_as_zip_reads_it():
    # A short row of empty cells moves one cell to the side on its own, but
    # the columns past it do not exist: the sweep reads the grid through
    # zip, over the first three columns only, as before.
    array = _canonical(2)
    grid = [*array.masks, (0, 0, 0)]
    nvars = len(array.info_ids())
    assert not _rotates(grid, 5, nvars)
    result = sweep_pairs(grid, nvars)
    pairs = list(itertools.combinations(range(3), 2))
    assert (result.is_mds, result.witness, result.patterns_checked) == (True, None, 3)
    assert _reference_sweep(list(zip(*grid)), nvars, pairs) == (True, None, 3)


@pytest.mark.parametrize("v1", [2, 4, 6, 8])
def test_search_places_every_row_exactly_when_the_array_is_mds(v1):
    # Seeded draws, nearly all of them failing past v1 = 2, and the
    # built-in vectors of this size, all of them MDS.
    params = CgrParams.from_v1(v1)
    doubled = [row + row for row in map_unshifted(params).masks]
    distances = range(1, params.v2 // 2 + 1)
    rng = Lcg(500 + v1)
    vectors = [tuple(rng.randint(params.v2) for _ in range(params.num_rows)) for _ in range(10)]
    vectors += [vec for vec in BUILTIN_VECTORS.values() if len(vec) == params.num_rows]
    verdicts = set()
    for vector in vectors:
        bases = [{} for _ in distances]
        for row, k in zip(doubled, vector):
            bases = _place(bases, row, k, distances)
            if bases is None:
                break
        is_mds = verify_mds(build_code_array(params, vector)).is_mds
        assert (bases is not None) == is_mds
        verdicts.add(is_mds)
    assert verdicts == {True, False}
