"""Encoding, erasure decoding, MDS verification, duals, and complexity."""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgrcode import (
    CgrParams,
    CodeArray,
    ContractShapeError,
    DecodeReport,
    ErasurePattern,
    MdsResult,
    OffsetVector,
    POS_INF,
    UnrecoverableError,
    build_code_array,
    contract,
    decode,
    decode_complexity,
    derive_offsets,
    dualize,
    encode,
    erase,
    pif_factorize,
    puncture,
    update_complexity,
    verify_contracted_mds,
    verify_dual_mds,
    verify_mds,
)
from cgrcode import gf2
from cgrcode.code import _sweep
from cgrcode.layout import bits_of, rotate_rows
from cgrcode.rng import Lcg
from conftest import (
    _reference_sweep,
    _scratch_rank,
    builtin_array,
    mislabelled_v1_4_grids,
    random_bits,
)


def test_erasure_pattern_helpers(k2_params):
    pattern = ErasurePattern.of([3, 0])
    assert sorted(pattern.erased_columns) == [0, 3]
    assert pattern.survivors(5) == [1, 2, 4]
    pattern.validate_for(5)
    with pytest.raises(ValueError):
        ErasurePattern.of([7]).validate_for(5)


@pytest.mark.parametrize("column", [1.5, "1", True])
def test_erase_and_decode_reject_a_column_that_is_not_an_int(k2_array, column):
    codeword = encode(k2_array, random_bits(k2_array, 3))
    pattern = ErasurePattern.of([0, column])
    with pytest.raises(ValueError, match="is not an int"):
        erase(codeword, pattern)
    with pytest.raises(ValueError, match="is not an int"):
        decode(k2_array, codeword, pattern)


@pytest.mark.parametrize(
    "grid", [((1, 2, 3), (4, 5)), ((1, 2, 3), (4, 5, 6, 7)), ((1,), (2, 3, 4))], ids=repr
)
def test_erase_refuses_a_ragged_grid(grid):
    # Transposing with a plain zip cut every row to the shortest one, and a
    # short first row had column 2 refused as out of range.
    with pytest.raises(ValueError, match="^erase expects a grid of rows of one length$"):
        erase(grid, ErasurePattern.of([2]))


def test_encode_validates_info_keys(k2_array):
    with pytest.raises(ValueError):
        encode(k2_array, {0: 1})
    with pytest.raises(ValueError):
        encode(k2_array, {v: 1 for v in range(11)})


def test_encode_rejects_a_value_that_is_not_an_int(k2_array):
    bits = {v: 1 for v in k2_array.info_ids()}
    bits[3] = None
    bits[7] = "1"
    with pytest.raises(ValueError, match="id 3 is NoneType"):
        encode(k2_array, bits)


def test_decode_rejects_a_grid_of_the_wrong_shape(k2_array):
    codeword = encode(k2_array, random_bits(k2_array, 3))
    pattern = ErasurePattern.of([0])
    grid = erase(codeword, pattern)
    for bad in (grid[:-1], grid[:2] + (grid[2][:-1],) + grid[3:], grid + (grid[0],)):
        with pytest.raises(ValueError, match="grid of 5 rows of 5 cells"):
            decode(k2_array, bad, pattern)


def test_encode_zero_data_gives_zero_cells(k2_array):
    codeword = encode(k2_array, {v: 0 for v in k2_array.info_ids()})
    assert all(bit == 0 for row in codeword for bit in row)


def test_single_bit_touches_expected_cells(k2_array):
    bits = {v: 1 if v == 0 else 0 for v in k2_array.info_ids()}
    codeword = encode(k2_array, bits)
    hot = sum(bit for row in codeword for bit in row)
    # One info cell plus one parity per incident edge (degree v1 + 1).
    assert hot == k2_array.params.v1 + 2


def test_decode_without_erasure_is_free(k2_array):
    bits = random_bits(k2_array, 3)
    codeword = encode(k2_array, bits)
    pattern = ErasurePattern.of([])
    report = decode(k2_array, erase(codeword, pattern), pattern)
    assert report.recovered == bits
    assert report.xor_count == 0
    assert report.peeling_sufficed
    assert decode_complexity(report, k2_array.params, pattern) == Fraction(0)


@pytest.mark.parametrize(
    "name,expected_xor",
    [("k2_c5", 5), ("k4_c7_a", 14), ("k6_c9_a", 27), ("k8_c11", 44)],
)
def test_single_column_decode_costs(name, expected_xor):
    array = builtin_array(name)
    bits = random_bits(array, 11)
    codeword = encode(array, bits)
    pattern = ErasurePattern.of([1])
    report = decode(array, erase(codeword, pattern), pattern)
    assert report.recovered == bits
    assert report.peeling_sufficed
    assert report.xor_count == expected_xor
    assert decode_complexity(report, array.params, pattern) == Fraction(1, 2)


def test_decode_all_two_column_patterns(k2_array):
    bits = random_bits(k2_array, 29)
    codeword = encode(k2_array, bits)
    for a in range(5):
        for b in range(a + 1, 5):
            pattern = ErasurePattern.of([a, b])
            report = decode(k2_array, erase(codeword, pattern), pattern)
            assert report.recovered == bits


def test_forced_elimination_agrees_with_peeling(k2_array):
    bits = random_bits(k2_array, 17)
    codeword = encode(k2_array, bits)
    pattern = ErasurePattern.of([2, 4])
    grid = erase(codeword, pattern)
    peeled = decode(k2_array, grid, pattern)
    eliminated = decode(k2_array, grid, pattern, force_elimination=True)
    assert peeled.recovered == eliminated.recovered == bits
    assert not eliminated.peeling_sufficed
    assert eliminated.elimination_xor_count > 0


@pytest.mark.parametrize(
    "force,peeled,xor_total,elimination_total",
    [(False, 119, 5586, 0), (True, 0, 3990, 7350)],
)
def test_decode_accounting_over_all_patterns(force, peeled, xor_total, elimination_total):
    # Elimination row operations depend on the row-major order in which
    # surviving cells enter the GF(2) system; these totals pin that order.
    params = CgrParams.from_v1(4)
    array = build_code_array(params, derive_offsets(pif_factorize(4)))
    bits = {v: (v * 13 + 1) % 2 for v in array.info_ids()}
    codeword = encode(array, bits)
    reports = []
    for k in range(1, params.v1 + 2):
        for columns in itertools.combinations(range(params.v2), k):
            pattern = ErasurePattern.of(columns)
            report = decode(array, erase(codeword, pattern), pattern, force_elimination=force)
            assert report.recovered == bits
            reports.append(report)
    assert len(reports) == 119
    assert sum(r.peeling_sufficed for r in reports) == peeled
    assert sum(r.xor_count for r in reports) == xor_total
    assert sum(r.elimination_xor_count for r in reports) == elimination_total


@pytest.mark.parametrize("width", [1, 8, 64, 4096 * 8])
@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("name", ["k2_c5", "k4_c7_a"])
def test_wide_symbols_round_trip_every_guaranteed_pattern(name, dual, width):
    # Each info value is a width-bit int; XOR codes all bit planes at once.
    primal = builtin_array(name)
    array = dualize(primal) if dual else primal
    rng = Lcg(width)
    words = -(-width // 64)
    bits = {
        v: sum(rng.next_u64() << (64 * i) for i in range(words)) % (1 << width)
        for v in array.info_ids()
    }
    codeword = encode(array, bits)
    v2 = array.params.v2
    tolerated = 2 if dual else array.params.v1 + 1
    for k in range(tolerated + 1):
        for columns in itertools.combinations(range(v2), k):
            pattern = ErasurePattern.of(columns)
            grid = erase(codeword, pattern)
            for force in (False, True):
                report = decode(array, grid, pattern, force_elimination=force)
                assert report.recovered == bits
                assert encode(array, report.recovered) == codeword


@pytest.mark.parametrize("v1", [2, 4, 6])
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(data=st.data())
def test_any_guaranteed_erasure_round_trips_at_any_width(v1, data):
    params = CgrParams.from_v1(v1)
    array = build_code_array(params, derive_offsets(pif_factorize(v1)))
    width = data.draw(st.integers(1, 256), label="width")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    erased = data.draw(
        st.sets(st.integers(0, params.v2 - 1), min_size=1, max_size=v1 + 1), label="erased"
    )
    rng = random.Random(seed)
    payload = {v: rng.getrandbits(width) for v in array.info_ids()}
    codeword = encode(array, payload)
    pattern = ErasurePattern.of(erased)
    grid = erase(codeword, pattern)
    for force in (False, True):
        report = decode(array, grid, pattern, force_elimination=force)
        assert report.recovered == payload
        assert encode(array, report.recovered) == codeword


def _reference_xor_of(values, mask):
    acc = 0
    while mask:
        rest = mask & (mask - 1)
        value = values[(mask ^ rest).bit_length() - 1]
        acc = acc ^ value if acc else value
        mask = rest
    return acc


def _reference_encode(array, info_bits):
    return tuple(tuple(_reference_xor_of(info_bits, m) for m in row) for row in array.masks)


def _reference_erase(grid, pattern):
    return tuple(
        tuple(None if c in pattern.erased_columns else v for c, v in enumerate(row)) for row in grid
    )


def _reference_decode(array, values, pattern, force_elimination=False):
    """Decode read off the mask grid cell by cell: every surviving cell
    becomes one (mask, value) equation in row-major order."""
    nvars = len(array.info_ids())
    surviving = pattern.survivors(array.num_columns)
    equations = [
        (mask, values[r][c])
        for r, row in enumerate(array.masks)
        for c in surviving
        if (mask := row[c])
    ]
    known = {}
    pending = []
    for mask, value in equations:
        rest = mask & (mask - 1)
        if not rest:
            known[mask.bit_length() - 1] = value
        elif not rest & (rest - 1):
            pending.append(((mask ^ rest).bit_length() - 1, rest.bit_length() - 1, value))
    seeded = len(known)
    while pending and not force_elimination:
        remaining = []
        for p, q, value in pending:
            if p in known:
                if q not in known:
                    known[q] = value ^ known[p]
            elif q in known:
                known[p] = value ^ known[q]
            else:
                remaining.append((p, q, value))
        if len(remaining) == len(pending):
            break
        pending = remaining
    xor_count = len(known) - seeded
    peeling_sufficed = not force_elimination and len(known) == nvars
    elimination_ops = 0
    if not peeling_sufficed:
        known, elimination_ops = gf2.solve_unique(equations)
        if len(known) < nvars:
            raise UnrecoverableError(pattern, _scratch_rank([m for m, _ in equations]), nvars)
    xor_count += sum(
        m.bit_count() - 1 for row in array.masks for c in pattern.erased_columns if (m := row[c])
    )
    recovered = {v: known[v] for v in array.info_ids()}
    return DecodeReport(recovered, peeling_sufficed, xor_count, elimination_ops)


def _decode_outcome(decoder, array, grid, pattern, force):
    """The DecodeReport, or the type, message and rank of what was raised."""
    try:
        return decoder(array, grid, pattern, force_elimination=force)
    except (UnrecoverableError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "rank", None)


@pytest.mark.parametrize("v1", [2, 4, 6])
def test_codec_matches_the_cell_by_cell_reference(v1):
    # The canonical array and two with entries redrawn (often not MDS, so
    # UnrecoverableError is compared too), each primal under every pattern
    # of up to v1 + 1 erased columns and each dual under up to 2. Every
    # grid is decoded as erased and with one surviving cell XOR-corrupted:
    # on inconsistent cells the recovered values depend on the order in
    # which two-bit cells are peeled, which must stay row-major.
    params = CgrParams.from_v1(v1)
    v2 = params.v2
    rng = Lcg(200 + v1)
    canonical = tuple(derive_offsets(pif_factorize(v1)))
    vectors = [canonical]
    for _ in range(2):
        vector = list(canonical)
        for _ in range(1 + rng.randint(2)):
            vector[rng.randint(params.num_rows)] = rng.randint(v2)
        vectors.append(tuple(vector))
    raised = 0
    for vector in vectors:
        primal = build_code_array(params, vector)
        for array, tolerated in ((primal, v1 + 1), (dualize(primal), 2)):
            payload = {v: rng.next_u64() for v in array.info_ids()}
            codeword = encode(array, payload)
            assert codeword == _reference_encode(array, payload)
            cells = [(r, c) for r, row in enumerate(array.masks) for c, m in enumerate(row) if m]
            for k in range(tolerated + 1):
                for columns in itertools.combinations(range(v2), k):
                    pattern = ErasurePattern.of(columns)
                    grid = erase(codeword, pattern)
                    assert grid == _reference_erase(codeword, pattern)
                    survivors = [(r, c) for r, c in cells if c not in pattern.erased_columns]
                    r, c = survivors[rng.randint(len(survivors))]
                    corrupted = [list(row) for row in grid]
                    corrupted[r][c] ^= 1 << rng.randint(64)
                    for values in (grid, corrupted):
                        for force in (False, True):
                            outcome = _decode_outcome(decode, array, values, pattern, force)
                            expected = _decode_outcome(
                                _reference_decode, array, values, pattern, force
                            )
                            assert outcome == expected
                            raised += not isinstance(outcome, DecodeReport)
    assert raised


def _compare_with_reference(array, payload, patterns, rng):
    """Decode each pattern's grid, as erased and with one surviving cell
    XOR-corrupted, peeled and forced, with the codec and the reference;
    return how many outcomes were raised errors."""
    codeword = encode(array, payload)
    assert codeword == _reference_encode(array, payload)
    cells = [(r, c) for r, row in enumerate(array.masks) for c, m in enumerate(row) if m]
    raised = 0
    for columns in patterns:
        pattern = ErasurePattern.of(columns)
        grid = erase(codeword, pattern)
        grids = [grid]
        survivors = [(r, c) for r, c in cells if c not in pattern.erased_columns]
        if survivors:
            r, c = survivors[rng.randint(len(survivors))]
            corrupted = [list(row) for row in grid]
            corrupted[r][c] ^= 1 << rng.randint(8)
            grids.append(corrupted)
        for values in grids:
            for force in (False, True):
                outcome = _decode_outcome(decode, array, values, pattern, force)
                assert outcome == _decode_outcome(_reference_decode, array, values, pattern, force)
                raised += not isinstance(outcome, DecodeReport)
    return raised


@pytest.mark.parametrize("v1", [2, 4, 6, 8])
def test_codec_matches_the_reference_on_punctured_and_contracted_arrays(v1):
    # Their rows mix empty, single-bit and two-bit cells, which the plan's
    # row groups must skip and keep apart. Every erasure subset is decoded.
    array = build_code_array(CgrParams.from_v1(v1), derive_offsets(pif_factorize(v1)))
    rng = Lcg(400 + v1)
    raised = 0
    for view in (puncture(array), contract(array)):
        payload = {v: rng.next_u64() for v in view.info_ids()}
        width = view.num_columns
        patterns = [c for k in range(width + 1) for c in itertools.combinations(range(width), k)]
        raised += _compare_with_reference(view, payload, patterns, rng)
    assert raised


def test_codec_matches_the_reference_on_a_sample_of_v1_12_patterns():
    # The peel stops reading two-bit cells once every value is known, which
    # skips the most rows when few of the 15 columns are lost; a corrupted
    # cell in a skipped row must leave the report as the reference's.
    # 200 seeded patterns of 1..13 lost columns, every one recoverable; the
    # raised outcomes are forced eliminations of corrupted grids.
    v1 = 12
    array = build_code_array(CgrParams.from_v1(v1), derive_offsets(pif_factorize(v1)))
    rng = Lcg(1200)
    payload = {v: rng.next_u64() for v in array.info_ids()}
    v2 = array.num_columns
    patterns = [rng.permutation(v2)[: 1 + rng.randint(v1 + 1)] for _ in range(200)]
    assert {len(p) for p in patterns} == set(range(1, v1 + 2))
    assert _compare_with_reference(array, payload, patterns, rng)


@st.composite
def _mixed_grids(draw):
    """A hand-built grid of empty, single-bit, two-bit and wider masks over up
    to five sparse ids, each id in at least one single-bit cell and possibly
    in several; two-bit cells join two of those ids and wider cells three or
    more, which peeling leaves to elimination."""
    ids = sorted(draw(st.sets(st.integers(0, 9), min_size=1, max_size=5), label="ids"))
    rows = draw(st.integers(1, 5), label="rows")
    width = draw(st.integers(max(1, -(-len(ids) // rows)), 5), label="width")
    joined = [
        [sum(1 << i for i in members) for members in itertools.combinations(ids, k)] or [0]
        for k in (2, 3, 4, 5)
    ]
    kinds = st.one_of(
        st.just(0),
        st.sampled_from([1 << i for i in ids]),
        st.sampled_from(joined[0]),
        st.sampled_from(joined[1] + joined[2] + joined[3]),
    )
    grid = [[draw(kinds, label="cell") for _ in range(width)] for _ in range(rows)]
    slots = draw(st.permutations([(r, c) for r in range(rows) for c in range(width)]), label="slots")
    for i, (r, c) in zip(ids, slots):
        grid[r][c] = 1 << i
    return CodeArray(CgrParams.from_v1(2), None, tuple(map(tuple, grid)))


def _hand_built(*rows):
    return CodeArray(CgrParams.from_v1(2), None, rows)


# A grid of one cell, and grids with exactly one two-bit or one wide cell:
# a gather of one cell, or a kind with one cell, must still give tuples.
@example(array=_hand_built((1,)), seed=1)
@example(array=_hand_built((4,), (0,)), seed=2)
@example(array=_hand_built((1, 2, 3), (2, 0, 1)), seed=3)
@example(array=_hand_built((2, 1, 3)), seed=4)
@example(array=_hand_built((1, 2, 4, 7), (4, 0, 2, 1)), seed=5)
@example(array=_hand_built((11, 1), (2, 8)), seed=6)
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(array=_mixed_grids(), seed=st.integers(0, 2**32 - 1))
def test_codec_matches_the_reference_on_hand_built_grids(array, seed):
    # Repeated info cells make corrupted grids disagree on a variable's
    # value: the codec must keep the reference's choice (the last surviving
    # single-bit cell in row-major order seeds it).
    rng = Lcg(seed)
    payload = {v: rng.randint(256) for v in array.info_ids()}
    width = array.num_columns
    patterns = [[c for c in range(width) if rng.bit()] for _ in range(4)]
    _compare_with_reference(array, payload, patterns, rng)


def test_a_grid_with_no_info_cell_encodes_to_zeros_and_decodes_to_nothing():
    # Each cell is the XOR of no values, so the codeword is all 0, and there
    # is nothing to recover, under any pattern, peeled or forced. A grid of
    # no columns is refused when it is made.
    with pytest.raises(ValueError, match="^masks must be one or more rows of the same nonzero length$"):
        _hand_built(())
    for array in (_hand_built((0, 0), (0, 0)), _hand_built((0,))):
        codeword = encode(array, {})
        assert codeword == _reference_encode(array, {})
        assert codeword == ((0,) * array.num_columns,) * array.num_rows
        width = array.num_columns
        for columns in itertools.chain(*(itertools.combinations(range(width), k) for k in range(width + 1))):
            pattern = ErasurePattern.of(columns)
            grid = erase(codeword, pattern)
            assert grid == _reference_erase(codeword, pattern)
            for force in (False, True):
                report = decode(array, grid, pattern, force_elimination=force)
                assert report == _reference_decode(array, grid, pattern, force)
                assert (report.recovered, report.xor_count, report.elimination_xor_count) == ({}, 0, 0)


@pytest.mark.parametrize("v1", [2, 4, 6])
def test_primal_peeling_is_complete(v1):
    # decode's docstring argues that a stalled peel on a primal array is
    # final. On the canonical array and four copies with entries redrawn,
    # under every erasure subset, the non-forced decode peels exactly when
    # the surviving masks have full rank, and raises UnrecoverableError with
    # that rank otherwise.
    params = CgrParams.from_v1(v1)
    v2 = params.v2
    rng = Lcg(300 + v1)
    canonical = tuple(derive_offsets(pif_factorize(v1)))
    vectors = [canonical]
    for _ in range(4):
        vector = list(canonical)
        for _ in range(1 + rng.randint(3)):
            vector[rng.randint(params.num_rows)] = rng.randint(v2)
        vectors.append(vector)
    outcomes = {True: 0, False: 0}
    for vector in vectors:
        array = build_code_array(params, vector)
        nvars = len(array.info_ids())
        payload = {v: rng.next_u64() for v in array.info_ids()}
        codeword = encode(array, payload)
        for k in range(v2 + 1):
            for columns in itertools.combinations(range(v2), k):
                pattern = ErasurePattern.of(columns)
                surviving = [m for row in array.masks for c, m in enumerate(row) if c not in columns]
                rank = _scratch_rank(surviving)
                try:
                    report = decode(array, erase(codeword, pattern), pattern)
                except UnrecoverableError as exc:
                    assert rank < nvars and exc.rank == rank, (vector, columns)
                else:
                    assert rank == nvars and report.peeling_sufficed, (vector, columns)
                    assert report.recovered == payload
                outcomes[rank == nvars] += 1
    assert outcomes[True] and outcomes[False]


@pytest.mark.parametrize("v1", [2, 4, 6])
@pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
def test_unrecoverable_decodes_name_the_rank_of_the_survivors(v1, dual):
    # decode eliminates once: a rank-deficient system raises with the rank
    # of the surviving masks, peeled first or forced, under every erasure
    # subset of the canonical array and of its dual.
    array = build_code_array(CgrParams.from_v1(v1), derive_offsets(pif_factorize(v1)))
    array = dualize(array) if dual else array
    nvars = len(array.info_ids())
    payload = {v: v + 1 for v in array.info_ids()}
    codeword = encode(array, payload)
    width = array.num_columns
    deficient = 0
    for columns in itertools.chain(*(itertools.combinations(range(width), k) for k in range(width + 1))):
        pattern = ErasurePattern.of(columns)
        rank = _scratch_rank([m for row in array.masks for c, m in enumerate(row) if c not in columns])
        for force in (False, True):
            try:
                report = decode(array, erase(codeword, pattern), pattern, force_elimination=force)
            except UnrecoverableError as exc:
                assert (exc.rank, exc.nvars) == (rank, nvars), (columns, force)
                assert str(exc) == f"erasure pattern {list(columns)} leaves rank {rank} < {nvars} unknowns"
                deficient += 1
            else:
                assert rank == nvars and report.recovered == payload, (columns, force)
    # Both codes are MDS: the primal recovers from any 2 columns and the dual
    # from all but any 2, so exactly the patterns past that lose rank.
    tolerated = 2 if dual else width - 2
    assert deficient == 2 * sum(math.comb(width, k) for k in range(tolerated + 1, width + 1))


def test_unrecoverable_erasure_raises(k2_array):
    bits = random_bits(k2_array, 5)
    codeword = encode(k2_array, bits)
    pattern = ErasurePattern.of([0, 1, 2, 3])
    with pytest.raises(UnrecoverableError) as excinfo:
        decode(k2_array, erase(codeword, pattern), pattern)
    exc = excinfo.value
    assert exc.rank < exc.nvars
    assert sorted(exc.pattern.erased_columns) == [0, 1, 2, 3]


@pytest.mark.parametrize("v1", [2, 4, 6])
def test_cells_over_bits_that_are_not_variables_fail_fast(v1):
    # dualize(puncture(a)) gives each kept vertex a parity over all v1 + 1
    # incident edges, but only the edges between kept vertices keep an info
    # cell: the plan rejects the first such parity, in row-major order.
    array = build_code_array(CgrParams.from_v1(v1), derive_offsets(pif_factorize(v1)))
    for compiles in (array, dualize(array), puncture(array), contract(array)):
        assert compiles.plan
    broken = dualize(puncture(array))
    ids = set(broken.info_ids())
    first = next(
        (r, c)
        for r, row in enumerate(broken.rows)
        for c, cell in enumerate(row)
        if not set(cell.vertices) <= ids
    )
    message = rf"cell \({first[0]}, {first[1]}\) holds a bit that no info cell carries"
    with pytest.raises(ValueError, match=message):
        encode(broken, {v: 1 for v in ids})
    grid = [[0] * broken.num_columns for _ in range(broken.num_rows)]
    with pytest.raises(ValueError, match=message):
        decode(broken, grid, ErasurePattern.of([]))


@pytest.mark.parametrize(
    "columns, force, cell",
    [([], False, 0), ([0], False, 1), ([2], False, 0), ([], True, 0), ([0], True, 1), ([2], True, 0)],
)
def test_decode_names_a_surviving_cell_that_holds_no_int(columns, force, cell):
    # The grid has columns 0 and 1 blanked to None, but the pattern says
    # fewer were lost: seeding would hand None back as recovered data, and
    # an XOR with it would fail inside the peel or the elimination.
    array = build_code_array(CgrParams.from_v1(4), derive_offsets(pif_factorize(4)))
    payload = random_bits(array, 9)
    grid = erase(encode(array, payload), ErasurePattern.of({0, 1}))
    with pytest.raises(ValueError, match=rf"^surviving cell \(0, {cell}\) holds NoneType, not int$"):
        decode(array, grid, ErasurePattern.of(columns), force_elimination=force)


@pytest.mark.parametrize("dual", [False, True])
def test_decode_names_a_two_bit_or_wide_cell_that_holds_no_int(dual):
    # One surviving parity cell at a time holds a str. Decoding either
    # never uses it and returns the payload, or names that cell.
    primal = build_code_array(CgrParams.from_v1(2), derive_offsets(pif_factorize(2)))
    array = dualize(primal) if dual else primal
    payload = {v: 5 * v + 3 for v in array.info_ids()}
    codeword = encode(array, payload)
    pattern = ErasurePattern.of([0])
    grid = erase(codeword, pattern)
    named = 0
    for r, row in enumerate(array.masks):
        for c in pattern.survivors(array.num_columns):
            if row[c] & (row[c] - 1):
                bad = [list(line) for line in grid]
                bad[r][c] = "x"
                for force in (False, True):
                    try:
                        report = decode(array, bad, pattern, force_elimination=force)
                    except ValueError as exc:
                        assert str(exc) == f"surviving cell ({r}, {c}) holds str, not int"
                        named += 1
                    else:
                        assert not force and report.recovered == payload
    assert named


def test_reencode_matches_original(k4a_array):
    bits = random_bits(k4a_array, 23)
    codeword = encode(k4a_array, bits)
    pattern = ErasurePattern.of([0, 5])
    report = decode(k4a_array, erase(codeword, pattern), pattern)
    assert encode(k4a_array, report.recovered) == codeword


def test_verify_mds_accepts_known_good(k2_array):
    result = verify_mds(k2_array)
    assert result.is_mds and bool(result)
    assert result.witness is None
    assert result.patterns_checked == 10  # C(5, 2) survivor pairs


def test_verify_mds_rejects_zero_offsets(k2_params):
    array = build_code_array(k2_params, OffsetVector((0,) * k2_params.num_rows))
    result = verify_mds(array)
    assert not result.is_mds and not bool(result)
    assert sorted(result.witness.erased_columns) == [2, 3, 4]
    assert result.patterns_checked == 1  # stops at the first failure


def test_verify_mds_rejects_dual_input(k2_array):
    with pytest.raises(ValueError):
        verify_mds(dualize(k2_array))


def test_dualize_structure(k2_array):
    dual = dualize(k2_array)
    assert dual.is_dual()
    assert dual.params == k2_array.params
    assert len(dual.info_ids()) == 15  # one variable per edge
    arities = {len(cell.vertices) for row in dual.rows for cell in row if cell.is_parity}
    assert arities == {3}  # vertex degree v1 + 1
    assert dualize(dual) == k2_array


def test_dual_info_count_grows_with_size(k4a_array):
    dual = dualize(k4a_array)
    assert len(dual.info_ids()) == 70  # v1*v2*(v1+1)/2 edges


def test_verify_dual_mds(k2_array):
    result = verify_dual_mds(k2_array)  # primal input is dualized internally
    assert result.is_mds
    assert result.patterns_checked == 10
    assert verify_dual_mds(dualize(k2_array)).is_mds


def test_dualize_and_verify_dual_mds_refuse_a_full_grid_that_does_not_rotate():
    # The v1 = 4 canonical array with bit 5 of cell (10, 0) flipped has no
    # empty cell, so dualize would read none of its masks: were it read by
    # its header, its dual would verify where the grid fails. So would the
    # primal and dual laid out at zero offsets under the canonical header,
    # which rotate with the rings; the dual once verified as MDS although
    # decode failed on every one- and two-column erasure.
    params = CgrParams.from_v1(4)
    array = build_code_array(params, derive_offsets(pif_factorize(4)))
    dual = dualize(array)
    grids = []
    for source in (array, dual):
        masks = [list(row) for row in source.masks]
        masks[10][0] ^= 1 << 5
        grids.append(CodeArray(params, source.offsets, tuple(map(tuple, masks))))
    mislabelled = mislabelled_v1_4_grids()
    grids += [mislabelled["primal"], mislabelled["dual"]]
    for grid in grids:
        assert all(map(all, grid.masks)) and not grid.built
        with pytest.raises(ValueError, match="dualize expects a grid its header describes"):
            dualize(grid)
        with pytest.raises(ValueError, match="verify_dual_mds expects a full grid that its header"):
            verify_dual_mds(grid)
    # A hand-built copy of a built array is read by its header.
    copy = CodeArray(params, array.offsets, array.masks)
    assert dualize(copy) == dual and verify_dual_mds(copy) == verify_dual_mds(array)


@pytest.mark.parametrize("v1", [2, 4, 6])
def test_sweeps_match_a_full_rank_reference(v1):
    # The canonical array plus 70 copies with one or two entries redrawn at
    # random: most are not MDS, so the stop at the first hole and its witness
    # are compared too, and more of them contract than fully random vectors.
    params = CgrParams.from_v1(v1)
    v2 = params.v2
    rng = Lcg(v1)
    canonical = tuple(derive_offsets(pif_factorize(v1)))
    vectors = [canonical]
    for _ in range(70):
        vector = list(canonical)
        for _ in range(1 + rng.randint(2)):
            vector[rng.randint(params.num_rows)] = rng.randint(v2)
        vectors.append(tuple(vector))
    pairs = list(itertools.combinations(range(v2), 2))
    complements = [[c for c in range(v2) if c not in pair] for pair in pairs]
    verdicts = []
    for vector in vectors:
        array = build_code_array(params, vector)
        dual = dualize(array)
        for result, grid, nvars, survivor_sets in (
            (verify_mds(array), array.masks, len(array.info_ids()), pairs),
            (verify_dual_mds(array), dual.masks, len(dual.info_ids()), complements),
        ):
            witness = result.witness and set(result.witness.erased_columns)
            expected = _reference_sweep(list(zip(*grid)), nvars, survivor_sets)
            assert (result.is_mds, witness, result.patterns_checked) == expected
            verdicts.append(result.is_mds)
        try:
            contracted = contract(array)
        except ContractShapeError:
            continue
        result = verify_mds(contracted)
        witness = result.witness and set(result.witness.erased_columns)
        columns = list(zip(*contracted.masks))
        pairs_of_contracted = itertools.combinations(range(len(columns)), 2)
        expected = _reference_sweep(columns, len(contracted.info_ids()), pairs_of_contracted)
        assert (result.is_mds, witness, result.patterns_checked) == expected
        assert verify_contracted_mds(contracted) == expected[0]
    assert True in verdicts and False in verdicts


def _residual_rank_sweep(masks, nvars):
    """MdsResult of the unit/wide pair sweep that _sweep replaced: each
    column split once into the OR of its single-bit masks and its wider
    masks, and a pair's rank taken as its known bits plus the rank of its
    wider masks with those bits cleared."""
    units, wides = [], []
    for column in zip(*masks):
        units.append(functools.reduce(operator.or_, (m for m in column if not m & (m - 1)), 0))
        wides.append([m for m in column if m & (m - 1)])
    everything = (1 << nvars) - 1
    checked = 0
    for a, b in itertools.combinations(range(len(units)), 2):
        checked += 1
        known = units[a] | units[b]
        residual = [m & (everything ^ known) for c in (a, b) for m in wides[c]]
        if known.bit_count() + _scratch_rank(residual) < nvars:
            erased = set(range(len(units))) - {a, b}
            return MdsResult(False, ErasurePattern.of(erased), checked)
    return MdsResult(True, None, checked)


@pytest.mark.parametrize("v1", [2, 4, 6])
def test_sweep_pairs_matches_the_residual_rank_sweep(v1):
    # Seeded rotated grids: the canonical vector and copies of it with one to
    # three entries redrawn (some MDS, most not), each swept by rotation orbit
    # as verify_mds sweeps a built array, and every contraction (mostly MDS) as
    # it is, with one column cut short and with one column given another
    # column's cell as well; zip_longest fills the short columns with empty
    # cells, and the long column leaves slack to spare.
    params = CgrParams.from_v1(v1)
    v2 = params.v2
    rng = Lcg(100 + v1)
    unshifted = build_code_array(params, (0,) * params.num_rows)
    canonical = tuple(derive_offsets(pif_factorize(v1)))
    kinds = {"primal": [], "contracted": [], "padded": []}
    for trial in range(60):
        vector = list(canonical)
        for _ in range(trial % 4):
            vector[rng.randint(params.num_rows)] = rng.randint(v2)
        grid = rotate_rows(unshifted.masks, vector)
        kinds["primal"].append((grid, len(unshifted.info_ids())))
        try:
            contracted = contract(build_code_array(params, vector))
        except ContractShapeError:
            continue
        # The residual-rank sweep needs the ids renumbered 0 .. nvars - 1.
        pos = {v: i for i, v in enumerate(contracted.info_ids())}
        nvars = len(pos)
        columns = [
            [sum(1 << pos[v] for v in bits_of(m)) for m in col] for col in zip(*contracted.masks)
        ]
        kinds["contracted"].append((list(zip(*columns)), nvars))
        a, b = rng.randint(len(columns)), rng.randint(len(columns))
        for changed in (columns[a][:-1], columns[a] + columns[b][:1]):
            ragged = columns[:a] + [changed] + columns[a + 1:]
            kinds["padded"].append((list(itertools.zip_longest(*ragged, fillvalue=0)), nvars))
    for kind, corpus in kinds.items():
        verdicts = set()
        for grid, nvars in corpus:
            result = _sweep(grid, nvars, kind == "primal")
            assert result == _residual_rank_sweep(grid, nvars), kind
            verdicts.add(result.is_mds)
        assert verdicts == {True, False} or kind == "contracted" and True in verdicts, kind


@pytest.mark.parametrize("v1", [2, 4, 6])
def test_dual_is_the_orthogonal_complement_of_the_primal(v1):
    # What verify_dual_mds rests on, checked on the mask grids of random
    # offset vectors: every vertex generator meets every edge generator in an
    # even number of cells, the primal and dual ranks add up to the number of
    # cells, and every column pair holds v1*v2 nonempty cells.
    params = CgrParams.from_v1(v1)
    rng = Lcg(100 + v1)
    for _ in range(7):
        array = build_code_array(
            params, tuple(rng.randint(params.v2) for _ in range(params.num_rows))
        )
        dual = dualize(array)
        cells = [
            (p, d)
            for primal_row, dual_row in zip(array.masks, dual.masks)
            for p, d in zip(primal_row, dual_row)
            if p or d
        ]
        # meets[u] bit e: parity of the cells holding both vertex u and edge e.
        meets = [0] * len(array.info_ids())
        for p, d in cells:
            for u in range(len(meets)):
                if p >> u & 1:
                    meets[u] ^= d
        assert not any(meets)
        assert _scratch_rank([p for p, _ in cells]) + _scratch_rank([d for _, d in cells]) == len(cells)
        for a, b in itertools.combinations(range(params.v2), 2):
            filled = sum(1 for row in array.masks for c in (a, b) if row[c])
            assert filled == params.num_vertices


@pytest.mark.parametrize("v1", [10, 12, 14, 16, 18, 20, 22, 24, 28, 30, 36, 40, 42, 46, 52, 58])
def test_identity_codes_beyond_the_builtins_are_mds(v1):
    # Perfectness alone does not make a code MDS (the doubling pi fails at
    # v1 = 14), so each size the frozen table or the wheel adds is checked,
    # up to v1 = 58, the largest whose dual fits layout.MAX_LAYOUT_BITS
    # (CI checks the larger sizes generate hands out, one process each).
    array = build_code_array(CgrParams.from_v1(v1), derive_offsets(pif_factorize(v1)))
    assert verify_mds(array).is_mds
    assert verify_dual_mds(array).is_mds
    assert verify_contracted_mds(contract(array))


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(data=st.data())
def test_every_placement_gives_mds_primal_dual_and_contracted_codes(data):
    v1 = data.draw(st.sampled_from(range(2, 15, 2)), label="v1")
    placement = data.draw(st.permutations(list(range(v1)) + [POS_INF]), label="placement")
    array = build_code_array(CgrParams.from_v1(v1), derive_offsets(pif_factorize(v1, placement)))
    assert verify_mds(array).is_mds
    assert verify_dual_mds(dualize(array)).is_mds
    assert verify_contracted_mds(contract(array))


def test_update_complexity_formula():
    assert update_complexity(CgrParams.from_v1(2)) == Fraction(3, 10)
    assert update_complexity(CgrParams.from_v1(4)) == Fraction(5, 28)
