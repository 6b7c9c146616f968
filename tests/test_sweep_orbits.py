"""The ring-rotation symmetry behind verify_mds of a built array: which grids
have it, that the header rule's verdict, witness and counts match an
elimination over the laid-out grid, and that it lays out no grid."""

from __future__ import annotations

import importlib
import itertools
import json
from collections import Counter

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
from cgrcode.layout import bits_of, canonical_prefix, map_unshifted, rotate_rows
from cgrcode.rng import Lcg
from cgrcode.search import _place
from conftest import _canonical, _reference_sweep, mislabelled_v1_4_grids, no_layout, orbit_sweep


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
    # the header rule of a built array rests on. At v1 <= 8 verify_mds must
    # also match the full-rank reference over every pair.
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


def _outcome(result) -> tuple:
    """Every field of an MdsResult, pairs_swept included, which == leaves out."""
    witness = result.witness and result.witness.erased_columns
    return result.is_mds, witness, result.patterns_checked, result.pairs_swept


def _matches_the_orbit_sweep(params, vectors) -> set:
    """Assert that verify_mds of each vector's built array, read by its
    header, equals orbit_sweep of its laid-out grid in every field; return
    the failing distances seen, 0 standing for an MDS array."""
    distances = set()
    for vector in vectors:
        array = build_code_array(params, vector)
        result = verify_mds(array)
        assert _outcome(result) == _outcome(orbit_sweep(array.masks, params.num_vertices)), vector
        distances.add(0 if result.is_mds else result.pairs_swept)
    return distances


@pytest.mark.parametrize("v1", [4, 6])
def test_the_header_rule_matches_the_grid_for_every_pi(v1):
    # 24 + 720 arrays, mostly not MDS.
    params = CgrParams.from_v1(v1)
    factorization = pif_factorize(v1)
    vectors = [derive_offsets(factorization, pi) for pi in itertools.permutations(range(v1))]
    distances = _matches_the_orbit_sweep(params, vectors)
    assert 0 in distances and 1 in distances and len(distances) >= 3


def test_the_header_rule_matches_the_grid_on_seeded_vectors():
    # Fully random vectors, and the canonical vector with one to three
    # entries redrawn, at v1 = 2 .. 10: the witnesses fall at every distance
    # from 1 to 4, and at the last one, v2 // 2, at v1 = 2, 4 and 6.
    seen = {}
    for v1 in range(2, 11, 2):
        params = CgrParams.from_v1(v1)
        rng = Lcg(700 + v1)
        canonical = tuple(derive_offsets(pif_factorize(v1)))
        vectors = []
        for trial in range(200):
            if trial % 5:
                vector = list(canonical)
                for _ in range(1 + trial % 3):
                    vector[rng.randint(params.num_rows)] = rng.randint(params.v2)
            else:
                vector = [rng.randint(params.v2) for _ in range(params.num_rows)]
            vectors.append(vector)
        seen[v1] = _matches_the_orbit_sweep(params, vectors)
    assert set().union(*seen.values()) == {0, 1, 2, 3, 4}
    assert all(CgrParams.from_v1(v1).v2 // 2 in seen[v1] for v1 in (2, 4, 6))


def test_the_header_rule_matches_the_grid_on_every_canonical_size_to_v1_58():
    # Every size up to v1 = 58 that pif_factorize accepts (the wheel sizes
    # and the frozen table's 8, 14, 20 and 24); CI compares the larger ones.
    sizes = []
    for v1 in range(2, 59, 2):
        try:
            factorization = pif_factorize(v1)
        except ValueError:
            continue
        sizes.append(v1)
        distances = _matches_the_orbit_sweep(CgrParams.from_v1(v1), [derive_offsets(factorization)])
        assert distances == {0}, v1
    assert len(sizes) == 20


def test_header_columns_are_column_0_turned_by_a_node_id_shift():
    # The header rule numbers ring j's position p as node p * (v1 + 1) + j,
    # ring v1 being ground, so turning every ring d positions adds
    # d * (v1 + 1) to every node. For every d < v2, column 0's edges so
    # shifted must be the laid-out grid's column d as a multiset: there, bit
    # j * v2 + p is node p * (v1 + 1) + j and a single-bit cell an edge to
    # ground; in the doubled forest, an id x >= N is x - N, and every ground
    # node is one node. The forest must start with x + N under x and every
    # ground node under ground's first.
    code = importlib.import_module("cgrcode.code")
    for v1 in range(2, 11, 2):
        params = CgrParams.from_v1(v1)
        v2, width = params.v2, v1 + 1
        n = width * v2
        rng = Lcg(800 + v1)
        vectors = [derive_offsets(pif_factorize(v1))]
        vectors += [[rng.randint(v2) for _ in range(params.num_rows)] for _ in range(8)]
        node = [-1 if x % width == v1 else x % n for x in range(2 * n)]  # ground as -1
        for vector in vectors:
            array = build_code_array(params, vector)
            forest, columns = code._header_graph(array)
            assert forest == [v1 if x % width == v1 else x % n for x in range(2 * n)]
            assert len(columns) == v2
            for d, (edges, shift) in enumerate(columns):
                header = Counter(tuple(sorted((node[x + shift], node[y + shift]))) for x, y in edges)
                ends = [[b % v2 * width + b // v2 for b in bits_of(row[d])] for row in array.masks]
                grid = Counter(tuple(sorted(cell + [-1] * (2 - len(cell)))) for cell in ends)
                assert header == grid, (vector, d)


def test_verifying_a_built_array_lays_out_no_grid(monkeypatch):
    # verify_mds and verify_dual_mds of a built primal, and verify_dual_mds
    # of a built dual, read the header: at v1 = 100 the grid is 0.5 GB, and
    # v1 = 58 is the largest size whose dual is under the layout bound.
    layout = importlib.import_module("cgrcode.layout")
    zeros = build_code_array(CgrParams.from_v1(4), (0,) * 14)
    arrays = [zeros, _canonical(24), _canonical(58), _canonical(100)]
    duals = [dualize(array) for array in arrays[:3]]
    names = ("map_unshifted", "dual_unshifted", "rotate_rows")
    no_layout(monkeypatch, layout, names, "laid out a grid to verify a built array")
    for array in arrays:
        v2 = array.params.v2
        primal = verify_mds(array)
        mds = (True, None, v2 * (v2 - 1) // 2, v2 // 2)
        assert _outcome(primal) == (mds if array is not zeros else (False, frozenset(range(2, 7)), 1, 1))
        assert verify_dual_mds(array).is_mds is primal.is_mds
    for dual, array in zip(duals, arrays):
        assert _outcome(verify_dual_mds(dual)) == _outcome(verify_dual_mds(array))


def test_grids_of_one_and_two_bit_cells_are_verified_with_no_elimination(monkeypatch):
    # A contracted, a punctured and a mislabelled primal grid are not built,
    # but every cell holds one or two bits, an edge of the union-find, so no
    # GF(2) elimination runs; their results are the elimination's, taken
    # before it is refused. A cell of three bits sends its grid to _sweep.
    gf2 = importlib.import_module("cgrcode.gf2")
    code = importlib.import_module("cgrcode.code")
    canonical = _canonical(18)
    grids = [contract(canonical), puncture(canonical), mislabelled_v1_4_grids()["primal"]]
    expected = [_outcome(code._sweep(grid.masks, len(grid.info_ids()))) for grid in grids]
    assert [outcome[0] for outcome in expected] == [True, False, False]
    wide = [list(row) for row in _canonical(4).masks]
    wide[4][0] |= 1 << 19  # row 4 is ring 0's first ring-edge row: its two bits and one more
    wide = CodeArray(CgrParams.from_v1(4), None, tuple(map(tuple, wide)))
    assert max(m.bit_count() for row in wide.masks for m in row) == 3 and not wide.is_dual()
    no_layout(monkeypatch, gf2, ["extend"], "ran a GF(2) elimination")
    for grid, outcome in zip(grids, expected):
        assert not grid.built
        assert _outcome(verify_mds(grid)) == outcome
    with pytest.raises(AssertionError, match=r"^ran a GF\(2\) elimination$"):
        verify_mds(wide)


def test_pairs_swept_counts_the_pairs_reduced():
    array = _canonical(18)
    for result in (verify_mds(array), verify_dual_mds(array)):
        assert (result.is_mds, result.patterns_checked, result.pairs_swept) == (True, 210, 10)
    # A contracted grid (v1 + 1 columns over v1 variables) is not built, so
    # every pair covered is a pair checked.
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
    # under the canonical header: none is built, so verify_mds must check
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
