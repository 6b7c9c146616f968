"""The library's value types behave as the frozen dataclasses they replace:
the same repr, comparison and hashing, frozen fields, and constructors."""

from __future__ import annotations

import pytest

from cgrcode import (
    BUILTIN_VECTORS,
    Cell,
    CgrParams,
    CodeArray,
    Codeword,
    DecodeReport,
    ErasurePattern,
    MdsResult,
    OffsetVector,
    SearchSpec,
    SearchStats,
    build_cgr,
    build_code_array,
    contract,
    encode,
    map_unshifted,
    pif_factorize,
)

K2 = CgrParams.from_v1(2)
K2_CONTRACTED = (
    "CodeArray(params=CgrParams(v1=2, v2=5), offsets=(0, 1, 2, 2, 4), "
    "masks=((1, 33, 32),), source_columns=(0, 1, 4))"
)


def _unshifted() -> CodeArray:
    """The v1 = 2 grid laid out at zero offsets, held as a plain grid."""
    return CodeArray(K2, OffsetVector((0,) * K2.num_rows), tuple(map(tuple, map_unshifted(K2))))


def _contracted() -> CodeArray:
    return contract(build_code_array(K2, BUILTIN_VECTORS["k2_c5"]))


# Each expected repr was printed by the dataclass version of its type.
REPRS = {
    "CgrParams": (lambda: CgrParams(4, 7), "CgrParams(v1=4, v2=7)"),
    "CgrGraph": (
        lambda: build_cgr(K2),
        "CgrGraph(params=CgrParams(v1=2, v2=5), vertex_sets=((0, 1, 2, 3, 4), (5, 6, 7, 8, 9)), "
        "ring_edges=(((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)), ((5, 6), (6, 7), (7, 8), (8, 9), "
        "(9, 5))), inter_ring_edges={(0, 1): ((0, 5), (1, 6), (2, 7), (3, 8), (4, 9))})",
    ),
    "Factorization": (
        lambda: pif_factorize(2),
        "Factorization(factors=(((-inf, 0), (1, inf)), ((-inf, 1), (0, inf)), ((-inf, inf), (0, 1))))",
    ),
    "Cell": (lambda: Cell((3, 4)), "Cell(vertices=(3, 4))"),
    "CodeArray": (
        _unshifted,
        "CodeArray(params=CgrParams(v1=2, v2=5), offsets=(0, 0, 0, 0, 0), masks=((1, 2, 4, 8, 16), "
        "(32, 64, 128, 256, 512), (3, 6, 12, 24, 17), (96, 192, 384, 768, 544), "
        "(33, 66, 132, 264, 528)), source_columns=None)",
    ),
    "CodeArray contracted": (_contracted, K2_CONTRACTED),
    "ErasurePattern": (
        lambda: ErasurePattern.of([3, 1]),
        "ErasurePattern(erased_columns=frozenset({1, 3}))",
    ),
    "Codeword": (
        lambda: encode(_contracted(), {0: 1, 5: 0}),
        f"Codeword(array={K2_CONTRACTED}, cell_values=((1, 1, 0),))",
    ),
    "DecodeReport": (
        lambda: DecodeReport({0: 1}, True, 3),
        "DecodeReport(recovered={0: 1}, peeling_sufficed=True, xor_count=3, elimination_xor_count=0)",
    ),
    "MdsResult": (
        lambda: MdsResult(False, ErasurePattern.of([2]), 4),
        "MdsResult(is_mds=False, witness=ErasurePattern(erased_columns=frozenset({2})), "
        "patterns_checked=4, pairs_swept=0)",
    ),
    "SearchSpec": (
        lambda: SearchSpec(K2),
        "SearchSpec(params=CgrParams(v1=2, v2=5), fix_prefix=True, strategy='exhaustive', seed=0, "
        "max_trials=0, stop_after=None)",
    ),
    "SearchStats": (
        lambda: SearchStats(3, 2, None, nodes=5),
        "SearchStats(trials=3, hits=2, space=None, nodes=5)",
    ),
}


@pytest.mark.parametrize("name", REPRS)
def test_repr_is_the_dataclass_repr(name):
    make, expected = REPRS[name]
    assert repr(make()) == expected


@pytest.mark.parametrize("name", REPRS)
def test_equal_values_compare_and_hash_equal(name):
    make, _ = REPRS[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if name in ("CgrGraph", "DecodeReport"):  # a dict field; a mutable type
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_comparison_needs_the_same_type_and_every_compared_field():
    assert CgrParams(2, 5) != (2, 5)
    assert CgrParams(2, 5) != CgrParams(4, 7)
    assert Cell((1, 2)) != Cell((2, 1))
    assert ErasurePattern.of([1]) == ErasurePattern(frozenset({1}))
    assert hash(CgrParams(2, 5)) == hash((2, 5))  # the dataclass hash
    assert MdsResult(True, None, 10) != MdsResult(True, None, 9)
    assert SearchStats(3, 2, None) != SearchStats(3, 2, 125)


def test_pairs_swept_and_nodes_are_left_out_of_eq_and_hash():
    swept = MdsResult(True, None, 10, pairs_swept=3)
    assert swept == MdsResult(True, None, 10) and swept.pairs_swept == 3
    assert hash(swept) == hash(MdsResult(True, None, 10, pairs_swept=7))
    stats = SearchStats(3, 2, None, nodes=5)
    assert stats == SearchStats(3, 2, None) and stats.nodes == 5
    assert hash(stats) == hash(SearchStats(3, 2, None, nodes=9))


def test_decode_report_is_mutable_and_unhashable():
    report = DecodeReport({0: 1}, True, 3)
    report.xor_count = 5
    report.recovered[1] = 0
    assert report == DecodeReport({0: 1, 1: 0}, True, 5, 0)
    with pytest.raises(TypeError):
        hash(report)


@pytest.mark.parametrize("name", [name for name in REPRS if name != "DecodeReport"])
def test_fields_of_frozen_types_cannot_be_assigned_or_deleted(name):
    value = REPRS[name][0]()
    field = repr(value).split("(", 1)[1].split("=", 1)[0]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) is before


def test_keyword_construction_and_defaults():
    spec = SearchSpec(K2)
    assert (spec.fix_prefix, spec.strategy, spec.seed, spec.max_trials, spec.stop_after) == (
        True, "exhaustive", 0, 0, None,
    )
    keyed = SearchSpec(params=K2, fix_prefix=False, strategy="random", seed=3, max_trials=9, stop_after=2)
    assert keyed == SearchSpec(K2, False, "random", 3, 9, 2)
    assert MdsResult(is_mds=True, witness=None, patterns_checked=10, pairs_swept=3).pairs_swept == 3
    assert SearchStats(trials=1, hits=0, space=5).nodes == 0
    assert DecodeReport({}, peeling_sufficed=False, xor_count=0).elimination_xor_count == 0
    array = _unshifted()
    assert CodeArray(K2, array.offsets, array.masks).source_columns is None
    assert CodeArray(params=K2, offsets=array.offsets, masks=array.masks) == array
    assert Codeword(array=array, cell_values=()).cell_values == ()
    assert CgrParams(v1=2, v2=5) == K2


@pytest.mark.parametrize("v1, v2", [(True, 4), (4, 8), (3, 6), (2.0, 5), (0, 3)])
def test_cgr_params_validates_on_construction(v1, v2):
    with pytest.raises(ValueError):
        CgrParams(v1, v2)


def test_cached_views_stay_out_of_repr_and_comparison():
    array, fresh = _unshifted(), _unshifted()
    assert array.rows is array.rows and array.plan is array.plan
    assert array == fresh and hash(array) == hash(fresh)
    assert repr(array) == repr(fresh) == REPRS["CodeArray"][1]
