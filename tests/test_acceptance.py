"""Acceptance gate: one test per contracted behavior, in a fixed order.

Every expected value is frozen as a literal — reference grids, offset
vectors, complexity figures — so nothing here is tuned to the
implementation under test.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from cgrcode import (
    BUILTIN_VECTORS,
    CgrParams,
    ErasurePattern,
    NEG_INF,
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
from cgrcode.cli import main, render_array_text, render_cell
from cgrcode.codespec import from_json, to_json
from cgrcode.rng import Lcg
from cgrcode.search import params_for_offset_length

VECTOR_A = (0, 1, 2, 3, 4, 4, 4, 4, 2, 3, 6, 6, 0, 1)
VECTOR_B = (0, 1, 2, 3, 4, 4, 4, 4, 3, 1, 6, 6, 2, 0)


def _array(name: str):
    vector = BUILTIN_VECTORS[name]
    return build_code_array(params_for_offset_length(len(vector)), vector)


def test_01_two_ring_code_prints_reference_grid(capsys):
    assert main(["generate", "--v1", "2", "--pif", "--format", "text"]) == 0
    assert capsys.readouterr().out == (
        "offset vector: 0,1,2,2,4\n"
        "0\t1\t2\t3\t4\n"
        "6\t7\t8\t9\t5\n"
        "2 ⊕ 3\t3 ⊕ 4\t4 ⊕ 0\t0 ⊕ 1\t1 ⊕ 2\n"
        "7 ⊕ 8\t8 ⊕ 9\t9 ⊕ 5\t5 ⊕ 6\t6 ⊕ 7\n"
        "4 ⊕ 9\t0 ⊕ 5\t1 ⊕ 6\t2 ⊕ 7\t3 ⊕ 8\n"
    )


def test_02_derived_vectors_match_known_assignments():
    factorization = pif_factorize(4)
    assert tuple(derive_offsets(factorization, (1, 3, 0, 2))) == VECTOR_A
    assert tuple(derive_offsets(factorization)) == VECTOR_B


def test_03_builtin_vectors_are_mds():
    for name, vector in BUILTIN_VECTORS.items():
        array = build_code_array(params_for_offset_length(len(vector)), vector)
        result = verify_mds(array)
        v2 = array.params.v2
        assert result.is_mds, f"{name} failed with witness {result.witness}"
        assert result.patterns_checked == v2 * (v2 - 1) // 2


def test_04_every_offset_assignment_yields_mds():
    """Checks the claim that any factor-to-offset bijection produces an MDS
    array. Exactly two assignments per size do (the identity and the doubling
    map k -> 2k+1 mod v1+1); the rest provably leak an information bit past
    two surviving columns, so this stronger claim does not hold.
    """
    failures: list[str] = []

    for pi in itertools.permutations(range(2)):
        vector = derive_offsets(pif_factorize(2), pi)
        if not verify_mds(build_code_array(CgrParams.from_v1(2), vector)):
            failures.append(f"v1=2 pi={pi}")

    for pi in itertools.permutations(range(4)):
        vector = derive_offsets(pif_factorize(4), pi)
        if not verify_mds(build_code_array(CgrParams.from_v1(4), vector)):
            failures.append(f"v1=4 pi={pi}")

    rng = Lcg(1)
    factorization6 = pif_factorize(6)
    params6 = CgrParams.from_v1(6)
    for _ in range(100):
        pi = rng.permutation(6)
        vector = derive_offsets(factorization6, pi)
        if not verify_mds(build_code_array(params6, vector)):
            failures.append(f"v1=6 pi={tuple(pi)}")

    assert not failures, (
        f"{len(failures)} offset assignments are not MDS "
        f"(first few: {failures[:4]})"
    )


def test_05_dual_arrays_match_reference_and_verify():
    letter_ids = {
        "a": 0, "b": 1, "c": 2, "d": 3, "e": 4,
        "g": 5, "h": 6, "i": 7, "j": 8, "f": 9,
        "l": 10, "m": 11, "n": 12, "o": 13, "k": 14,
    }
    expected_rows = [
        ["a l e", "a m b", "b n c", "c o d", "d k e"],
        ["m g h", "h n i", "o i j", "j k f", "g l f"],
        ["c", "d", "e", "a", "b"],
        ["i", "j", "f", "g", "h"],
        ["k", "l", "m", "n", "o"],
    ]
    dual = dualize(_array("k2_c5"))
    for r, expected in enumerate(expected_rows):
        for c, letters in enumerate(expected):
            ids = {letter_ids[x] for x in letters.split()}
            cell = dual.rows[r][c]
            if len(ids) == 1:
                assert cell.is_info and set(cell.vertices) == ids, (r, c)
            else:
                assert cell.is_parity and cell.vertex_set == frozenset(ids), (r, c)

    for name in BUILTIN_VECTORS:
        result = verify_dual_mds(_array(name))
        assert result.is_mds, f"dual of {name} failed with witness {result.witness}"


def test_06_contraction_reproduces_compact_code():
    array = build_code_array(CgrParams.from_v1(4), VECTOR_A)
    punctured = puncture(array)
    survivors = {
        (r, c): render_cell(cell.vertices)
        for r, row in enumerate(punctured.rows)
        for c, cell in enumerate(row)
        if not cell.is_empty
    }
    assert survivors == {
        (0, 0): "0",
        (1, 6): "7",
        (2, 5): "14",
        (3, 4): "21",
        (8, 5): "0 ⊕ 7",
        (9, 4): "0 ⊕ 14",
        (10, 1): "0 ⊕ 21",
        (11, 1): "7 ⊕ 14",
        (12, 0): "7 ⊕ 21",
        (13, 6): "14 ⊕ 21",
    }

    contracted = contract(array, (0, 6, 5, 4, 1))
    assert render_array_text(contracted) == (
        "source columns: 0,6,5,4,1\n"
        "0\t7\t14\t21\t0 ⊕ 21\n"
        "7 ⊕ 21\t14 ⊕ 21\t0 ⊕ 7\t0 ⊕ 14\t7 ⊕ 14\n"
    )

    for v1 in (2, 4, 6):
        params = CgrParams.from_v1(v1)
        derived = build_code_array(params, derive_offsets(pif_factorize(v1)))
        assert verify_contracted_mds(contract(derived)), f"contracted v1={v1}"


def test_07_update_and_decode_complexity():
    expected = {
        2: Fraction(3, 10),
        4: Fraction(5, 28),
        6: Fraction(7, 54),
        8: Fraction(9, 88),
        10: Fraction(11, 130),
    }
    for v1, fraction in expected.items():
        assert update_complexity(CgrParams.from_v1(v1)) == fraction

    for name in BUILTIN_VECTORS:
        array = _array(name)
        bits = {v: (v * 31 + 7) % 2 for v in array.info_ids()}
        codeword = encode(array, bits)
        for column in range(array.params.v2):
            pattern = ErasurePattern.of([column])
            report = decode(array, erase(codeword, pattern), pattern)
            assert report.peeling_sufficed, (name, column)
            ratio = decode_complexity(report, array.params, pattern)
            assert ratio == Fraction(1, 2), (name, column, ratio)


def test_08_construction_properties():
    # (a) factorization invariants: perfect matchings, Hamiltonian pairs.
    for v1 in (2, 4, 6, 8):
        factorization = pif_factorize(v1)
        labels = set(range(v1)) | {NEG_INF, POS_INF}
        assert len(factorization.factors) == v1 + 1
        for factor in factorization.factors:
            seen = [v for edge in factor for v in edge]
            assert set(seen) == labels and len(seen) == len(labels), f"v1={v1}"
        for f1, f2 in itertools.combinations(factorization.factors, 2):
            adjacency: dict = {}
            for a, b in itertools.chain(f1, f2):
                adjacency.setdefault(a, []).append(b)
                adjacency.setdefault(b, []).append(a)
            start = next(iter(adjacency))
            prev, cur, steps = None, start, 0
            while True:
                x, y = adjacency[cur]
                prev, cur = cur, y if x == prev else x
                steps += 1
                if cur == start:
                    break
            assert steps == len(labels), f"v1={v1} factor pair is not one cycle"

    # (b) re-encode consistency on 1000 seeded decode instances.
    rng = Lcg(42)
    arrays = [_array("k2_c5"), _array("k4_c7_a")]
    for i in range(1000):
        array = arrays[i % 2]
        v2 = array.params.v2
        ncols = rng.randint(v2 - 1)
        columns = sorted(rng.permutation(v2)[:ncols])
        bits = {v: rng.bit() for v in array.info_ids()}
        codeword = encode(array, bits)
        pattern = ErasurePattern.of(columns)
        report = decode(array, erase(codeword, pattern), pattern)
        assert report.recovered == bits, (i, columns)
        assert encode(array, report.recovered) == codeword, (i, columns)

    # (c) peeling and elimination agree on every recoverable pattern.
    for array in arrays:
        v2 = array.params.v2
        bits = {v: (v * 13 + 1) % 2 for v in array.info_ids()}
        codeword = encode(array, bits)
        patterns = [(c,) for c in range(v2)] + list(itertools.combinations(range(v2), 2))
        for columns in patterns:
            pattern = ErasurePattern.of(columns)
            grid = erase(codeword, pattern)
            peeled = decode(array, grid, pattern)
            eliminated = decode(array, grid, pattern, force_elimination=True)
            assert peeled.recovered == eliminated.recovered == bits, columns

    # (d) verify_mds is invariant under global column rotation.
    rng = Lcg(7)
    for v1 in (2, 4):
        params = CgrParams.from_v1(v1)
        v2 = params.v2
        for _ in range(10):
            vector = tuple(rng.randint(v2) for _ in range(params.num_rows))
            verdicts = {
                verify_mds(
                    build_code_array(params, tuple((a + c) % v2 for a in vector))
                ).is_mds
                for c in range(v2)
            }
            assert len(verdicts) == 1, vector
    for name in ("k2_c5", "k4_c7_a"):
        vector = BUILTIN_VECTORS[name]
        params = params_for_offset_length(len(vector))
        for c in range(params.v2):
            rotated = tuple((a + c) % params.v2 for a in vector)
            assert verify_mds(build_code_array(params, rotated)).is_mds, (name, c)

    # (e) JSON serialization is byte-stable across a round trip.
    for name in BUILTIN_VECTORS:
        array = _array(name)
        text = to_json(array)
        assert from_json(text) == array, name
        assert to_json(from_json(text)) == text, name


def test_09_negative_controls():
    params = CgrParams.from_v1(2)
    zeros = build_code_array(params, OffsetVector((0,) * params.num_rows))
    result = verify_mds(zeros)
    assert not result.is_mds
    assert sorted(result.witness.erased_columns) == [2, 3, 4]

    good = _array("k2_c5")
    bits = {v: 1 for v in good.info_ids()}
    codeword = encode(good, bits)
    pattern = ErasurePattern.of([0, 1, 2, 3])  # v2 - 1 columns gone
    with pytest.raises(UnrecoverableError):
        decode(good, erase(codeword, pattern), pattern)
