"""Bit-matrix rank and unique-solution elimination over GF(2)."""

from __future__ import annotations

import random

import pytest

from cgrcode import (
    CgrParams,
    ErasurePattern,
    UnrecoverableError,
    build_code_array,
    decode,
    derive_offsets,
    dualize,
    encode,
    erase,
    gf2,
    pif_factorize,
)
from conftest import _scratch_rank


def _extended_rank(masks):
    """The size of the basis gf2.extend builds from masks, given slack for
    every mask."""
    basis = {}
    gf2.extend(basis, masks, len(masks))
    return len(basis)


def test_rank_of_independent_rows():
    assert _extended_rank([0b11, 0b10]) == 2
    assert _extended_rank([0b001, 0b010, 0b100]) == 3


def test_rank_ignores_dependent_and_zero_rows():
    assert _extended_rank([0b11, 0b11]) == 1
    assert _extended_rank([0]) == 0
    assert _extended_rank([]) == 0
    assert _extended_rank([0b101, 0b011, 0b110]) == 2  # third row = xor of first two


def test_extend_matches_a_scratch_rank_on_random_masks():
    rng = random.Random(11)
    boundaries = 0
    for _ in range(400):
        nbits = rng.randint(1, 24)
        head = [rng.getrandbits(nbits) for _ in range(rng.randint(0, nbits))]
        tail = [rng.getrandbits(nbits) for _ in range(rng.randint(0, nbits + 4))]
        if tail and rng.random() < 0.3:
            tail[rng.randrange(len(tail))] = 0  # a zero mask is dependent too
        basis = {}
        # With slack len(head), each dependent mask uses one and rank are left.
        assert gf2.extend(basis, head, len(head)) == _scratch_rank(head)
        assert len(basis) == _scratch_rank(head)
        assert all(row.bit_length() - 1 == p for p, row in basis.items())
        dependent = len(tail) - (_scratch_rank(head + tail) - len(basis))
        for slack in {dependent - 1, dependent, dependent + 2, 0}:
            if slack < 0:
                continue
            trial = dict(basis)
            left = gf2.extend(trial, tail, slack)
            if slack >= dependent:
                assert left == slack - dependent
                assert len(trial) == _scratch_rank(head + tail)
            else:
                # It stops at the (slack + 1)-th dependent mask, with every
                # mask before that one inserted.
                assert left == -1
                seen = 0
                for i, m in enumerate(tail):
                    if _scratch_rank(head + tail[: i + 1]) == _scratch_rank(head + tail[:i]):
                        seen += 1
                        if seen > slack:
                            break
                assert len(trial) == _scratch_rank(head + tail[:i])
                boundaries += 1
    assert boundaries > 50


def test_solve_unique_small_system():
    # x0 ^ x1 = 1, x1 = 1  =>  x0 = 0, x1 = 1
    solution, ops = gf2.solve_unique([(0b11, 1), (0b10, 1)])
    assert solution == {0: 0, 1: 1}
    assert ops > 0


def test_solve_unique_returns_a_short_assignment_when_underdetermined():
    # x0 ^ x1 = 1 has rank 1 < 2 variables: one entry, pivot bit 1's row value.
    assert gf2.solve_unique([(0b11, 1)]) == ({1: 1}, 0)


def test_solve_unique_raises_on_inconsistency():
    with pytest.raises(ValueError):
        gf2.solve_unique([(0b11, 1), (0b11, 0)])


def test_solve_unique_matches_known_assignment():
    # Random-ish 4-variable full-rank system built from a known assignment.
    assignment = {0: 1, 1: 0, 2: 1, 3: 1}
    rows = [0b0011, 0b0110, 0b1100, 0b0001]
    equations = []
    for mask in rows:
        rhs = 0
        for var, bit in assignment.items():
            if mask >> var & 1:
                rhs ^= bit
        equations.append((mask, rhs))
    solution, _ = gf2.solve_unique(equations)
    assert solution == assignment


def _reference_solve_unique(equations):
    # The Gauss-Jordan loop as first written: each incoming equation scans
    # every pivot, and each new pivot scans every basis row.
    basis = {}
    ops = 0
    for m, r in equations:
        for q in list(basis):
            if (m >> q) & 1:
                bm, br = basis[q]
                m ^= bm
                r ^= br
                ops += 1
        if not m:
            if r:
                raise ValueError("inconsistent GF(2) system")
            continue
        p = m.bit_length() - 1
        for q, (bm, br) in basis.items():
            if (bm >> p) & 1:
                basis[q] = (bm ^ m, br ^ r)
                ops += 1
        basis[p] = (m, r)
    return {p: r for p, (_, r) in basis.items()}, ops


def _outcome(solve, equations):
    try:
        return solve(equations)
    except ValueError:
        return ValueError


def _kind(outcome, nvars):
    if outcome is ValueError:
        return "inconsistent"
    return "deficient" if len(outcome[0]) < nvars else "unique"


def _random_system(rng, nvars, neqs, dense, width, corrupt):
    values = [rng.getrandbits(width) for _ in range(nvars)]
    equations = []
    for _ in range(neqs):
        if dense:
            mask = rng.getrandbits(nvars)
        else:
            mask = sum(1 << v for v in rng.sample(range(nvars), rng.randint(1, min(3, nvars))))
        rhs = 0
        for v in range(nvars):
            if mask >> v & 1:
                rhs ^= values[v]
        equations.append((mask, rhs))
    if corrupt:
        i = rng.randrange(neqs)
        mask, rhs = equations[i]
        equations[i] = (mask, rhs ^ 1)
    return equations


def test_solve_unique_matches_the_reference_on_random_systems():
    rng = random.Random(8)
    seen = set()
    for trial in range(800):
        dense, width, corrupt = trial % 2 == 0, (1, 64)[trial // 2 % 2], trial % 3 == 0
        nvars = rng.randint(1, 40)
        # Fewer equations than variables is always rank-deficient; twice as
        # many is usually full rank, and a flipped rhs then often contradicts.
        neqs = rng.choice([max(1, nvars // 2), nvars, 2 * nvars])
        equations = _random_system(rng, nvars, neqs, dense, width, corrupt)
        expected = _outcome(_reference_solve_unique, equations)
        assert _outcome(gf2.solve_unique, equations) == expected
        seen.add((dense, width, _kind(expected, nvars)))
    assert len(seen) == 2 * 2 * 3


@pytest.mark.parametrize(
    "v1,dual",
    [
        pytest.param(4, False, id="4"),
        pytest.param(12, False, id="12"),
        # The dual's parity cells hold v1 + 1 bits, so its rows fill in and
        # the column index does most of its work there.
        pytest.param(4, True, id="dual-4"),
        pytest.param(6, True, id="dual-6"),
    ],
)
def test_solve_unique_matches_the_reference_on_decode_systems(v1, dual, monkeypatch):
    params = CgrParams.from_v1(v1)
    array = build_code_array(params, derive_offsets(pif_factorize(v1)))
    if dual:
        array = dualize(array)
    rng = random.Random(v1)
    codeword = encode(array, {v: rng.getrandbits(64) for v in array.info_ids()})
    systems = []
    solve = gf2.solve_unique

    def recording_solve(equations):
        systems.append(equations)
        return solve(equations)

    monkeypatch.setattr(gf2, "solve_unique", recording_solve)
    for _ in range(24):
        # v1 + 2 erased columns leave one survivor: a rank-deficient system;
        # the dual tolerates 2.
        lost = rng.randint(1, 3 if dual else v1 + 2)
        pattern = ErasurePattern.of(rng.sample(range(params.v2), lost))
        try:
            decode(array, erase(codeword, pattern), pattern, force_elimination=True)
        except UnrecoverableError:
            pass
    assert len(systems) == 24
    outcomes = [_reference_solve_unique(eqs) for eqs in systems]
    nvars = len(array.info_ids())
    assert {_kind(outcome, nvars) for outcome in outcomes} == {"deficient", "unique"}
    assert [solve(eqs) for eqs in systems] == outcomes


def test_solve_unique_matches_the_reference_on_sparse_ids_and_stray_bits():
    # Punctured and contracted arrays number their variables 0, v2, 2*v2, ...,
    # so masks carry bits at or above nvars, and a mask may hold a stray bit
    # that no variable has. Half the systems open with every variable alone,
    # so the column index is empty and len(rows) == nvars; a later mask with
    # a stray bit must still make that bit a new pivot.
    rng = random.Random(27)
    seen = set()
    for trial in range(600):
        nvars = rng.randint(1, 24)
        stride = rng.randint(1, 9)
        ids = [k * stride for k in range(nvars)]
        stray = [b for b in range(stride * nvars + 4) if b % stride or b >= stride * nvars]
        values = {b: rng.getrandbits(8) for b in ids + stray}
        masks = [1 << b for b in ids] if trial % 2 else []
        masks = rng.sample(masks, len(masks))
        for _ in range(rng.choice([nvars // 2, nvars, 2 * nvars])):
            bits = rng.sample(ids, rng.randint(1, min(3, nvars)))
            if rng.random() < 0.2:
                bits.append(rng.choice(stray))
            masks.append(sum(1 << b for b in bits))
        equations = [(m, _xor_of(values, m)) for m in masks]
        if equations and trial % 3 == 0:
            i = rng.randrange(len(equations))
            equations[i] = (equations[i][0], equations[i][1] ^ 1)
        expected = _outcome(_reference_solve_unique, equations)
        assert _outcome(gf2.solve_unique, equations) == expected
        kind = _kind(expected, nvars)
        seen.add(kind)
        if trial % 2 and kind == "unique" and len(expected[0]) > nvars:
            seen.add("stray pivot after full rank")
    assert seen == {"inconsistent", "deficient", "unique", "stray pivot after full rank"}


def _xor_of(values, mask):
    acc = 0
    for b, value in values.items():
        if mask >> b & 1:
            acc ^= value
    return acc
