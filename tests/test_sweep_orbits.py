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
    CodeArray,
    build_code_array,
    contract,
    derive_offsets,
    dualize,
    pif_factorize,
    puncture,
    verify_dual_mds,
    verify_mds,
)
from cgrcode.cli import main
from cgrcode.layout import canonical_prefix, map_unshifted, rotate_rows
from cgrcode.rng import Lcg
from cgrcode.search import _place
from conftest import _canonical, _reference_sweep, mislabelled_v1_4_grids


def _rotates(masks, v2: int, nvars: int) -> bool:
    """Whether every row has v2 cells and row[(c + 1) % v2] is row[c] with
    bit j*v2 + k moved to j*v2 + (k + 1) % v2, for every ring j: the image,
    on the grid, of turning every ring of the graph one position."""
    unit = sum(1 << j for j in range(0, nvars, v2))
    hi = unit << (v2 - 1)
    keep = hi - unit
    for row in masks:
        turned = [(m & keep) << 1 | (m & hi) >> (v2 - 1) for m in row]
        if len(row) != v2 or turned != [*row[1:], row[0]]:
            return False
    return True


@pytest.mark.parametrize("v1", range(2, 26, 2))
@settings(derandomize=True, database=None, max_examples=4, deadline=None)
@given(data=st.data())
def test_built_and_dual_grids_rotate_with_the_rings(v1, data):
    # A built array, its dual and double dual store built and their ids from
    # construction; a fresh CodeArray of the same grid must compute the same,
    # and every one of these grids must rotate with the rings, which is what
    # the orbit sweep of a built array rests on. At v1 <= 8 the orbit sweep
    # must also match the full-rank reference over every pair.
    params = CgrParams.from_v1(v1)
    n = params.num_rows
    vectors = st.lists(st.integers(0, params.v2 - 1), min_size=n, max_size=n)
    array = build_code_array(params, data.draw(vectors))
    dual = dualize(array)
    built = (array, dual, dualize(dual))
    assert all({"built", "_ids"} <= vars(grid).keys() for grid in built)
    for grid in built:
        fresh = CodeArray(params, grid.offsets, grid.masks)
        assert grid.built is fresh.built is True
        assert grid.info_ids() == fresh.info_ids()
        assert _rotates(grid.masks, params.v2, len(grid.info_ids()))
    if v1 <= 8:
        pairs = list(itertools.combinations(range(params.v2), 2))
        result = verify_mds(array)
        witness = result.witness and set(result.witness.erased_columns)
        expected = _reference_sweep(list(zip(*array.masks)), len(array.info_ids()), pairs)
        assert (result.is_mds, witness, result.patterns_checked) == expected


@pytest.mark.parametrize("v1", [2, 4, 6])
def test_other_grids_scan_for_the_symmetry(v1):
    # Punctured, contracted and hand-built grids store no built fact until
    # read. A hand-built copy of a built array is built; a grid laid out at
    # other offsets than its header's rotates with the rings but is not.
    array = _canonical(v1)
    params = array.params
    flipped = [list(row) for row in array.masks]
    flipped[-1][0] ^= 1
    at_zero = build_code_array(params, (0,) * params.num_rows)
    grids = {
        "punctured": (puncture(array), False),
        "dual of punctured": (dualize(puncture(array)), False),
        "contracted": (contract(array), False),
        "hand-built": (CodeArray(params, array.offsets, array.masks), True),
        "flipped": (CodeArray(params, array.offsets, tuple(map(tuple, flipped))), False),
        "mislabelled": (CodeArray(params, array.offsets, at_zero.masks), False),
    }
    for name, (grid, built) in grids.items():
        assert "built" not in vars(grid), name
        assert grid.built is built, name
    assert _rotates(grids["mislabelled"][0].masks, params.v2, params.num_vertices)
    assert not _rotates(grids["flipped"][0].masks, params.v2, params.num_vertices)


def test_pairs_swept_counts_the_pairs_reduced():
    array = _canonical(18)
    for result in (verify_mds(array), verify_dual_mds(array)):
        assert (result.is_mds, result.patterns_checked, result.pairs_swept) == (True, 210, 10)
    # A contracted grid (v1 + 1 columns over v1 variables) is not built, so
    # every pair covered is a pair reduced.
    contracted = contract(array)
    assert not contracted.built
    result = verify_mds(contracted)
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
    # a column swapped, and at v1 = 4 the primal laid out at zero offsets
    # under the canonical header: none is built, so verify_mds must reduce
    # every pair, and it must agree with the full-rank reference. A swap
    # keeps each column's masks, so MDS grids stay MDS; most flips break it.
    params = CgrParams.from_v1(v1)
    v2 = params.v2
    rng = Lcg(300 + v1)
    unshifted = map_unshifted(params)
    canonical = tuple(derive_offsets(pif_factorize(v1)))
    pairs = list(itertools.combinations(range(v2), 2))
    grids = []
    for trial in range(40):
        vector = list(canonical)
        for _ in range(trial % 3):
            vector[rng.randint(params.num_rows)] = rng.randint(v2)
        grid = rotate_rows(unshifted, vector)
        c = rng.randint(v2)
        r = rng.randint(len(grid))
        if trial % 2:
            grid[r][c] ^= 1 << rng.randint(params.num_vertices)
        else:
            s = (r + 1 + rng.randint(len(grid) - 1)) % len(grid)
            grid[r][c], grid[s][c] = grid[s][c], grid[r][c]
        grids.append(CodeArray(params, tuple(vector), tuple(map(tuple, grid))))
    if v1 == 4:
        grids.append(mislabelled_v1_4_grids()["primal"])
    verdicts = set()
    for grid in grids:
        assert not grid.built
        result = verify_mds(grid)
        witness = result.witness and set(result.witness.erased_columns)
        expected = _reference_sweep(list(zip(*grid.masks)), len(grid.info_ids()), pairs)
        assert (result.is_mds, witness, result.patterns_checked) == expected
        assert result.pairs_swept == result.patterns_checked
        verdicts.add(result.is_mds)
    assert verdicts == {True, False}


def test_a_ragged_grid_is_swept_as_zip_reads_it():
    # A short row of empty cells would leave the columns past it missing,
    # and a sweep through zip would read the first three columns only: the
    # grid is refused when it is made, so the sweep never sees it.
    array = _canonical(2)
    with pytest.raises(ValueError, match="^masks must be one or more rows of the same nonzero length$"):
        CodeArray(array.params, array.offsets, (*array.masks, (0, 0, 0)))


@pytest.mark.parametrize("v1", [2, 4, 6, 8])
def test_search_places_every_row_exactly_when_the_array_is_mds(v1):
    # Seeded draws, nearly all of them failing past v1 = 2, and the
    # built-in vectors of this size, all of them MDS.
    params = CgrParams.from_v1(v1)
    doubled = [row + row for row in map_unshifted(params)]
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


@pytest.mark.parametrize("v1", range(2, 25, 2))
def test_the_canonical_prefix_places_onto_every_pair_basis(v1):
    # search places the prefix rows once and relies on them placing.
    params = CgrParams.from_v1(v1)
    doubled = [row + row for row in map_unshifted(params)]
    distances = range(1, params.v2 // 2 + 1)
    bases = [{} for _ in distances]
    for row, k in zip(doubled, canonical_prefix(v1)):
        bases = _place(bases, row, k, distances)
        assert bases is not None
    assert [len(basis) for basis in bases] == [4 * v1] * len(distances)
