"""XOR-based MDS array erasure codes built from complete graphs of rings.

Pipeline: build_cgr labels the graph, pif_factorize + derive_offsets
produce an offset vector, build_code_array and dualize return the code or
its dual as its header, whose GF(2) mask grid (the graph laid out, rows
rotated) is made on the first read of CodeArray.masks (both in layout;
CodeArray.rows shows the cells), contract, also in layout, compacts a
primal to the B-code's narrower grid, encode/decode move bits through any
grid, and verify_mds / verify_dual_mds / verify_contracted_mds check every
legal erasure pattern (a built array by its header, with no grid laid out).
CodeArray.built, whether a header describes the grid, is the one test of a
CGR layout: verify_dual_mds refuses any other grid, and dualize any but a
built one with cells emptied.
"""

from .code import (
    DecodeReport,
    ErasurePattern,
    MdsResult,
    UnrecoverableError,
    decode,
    decode_complexity,
    encode,
    erase,
    update_complexity,
    verify_contracted_mds,
    verify_dual_mds,
    verify_mds,
)
from .graph import (
    NEG_INF,
    POS_INF,
    CgrGraph,
    CgrParams,
    Factorization,
    build_cgr,
    pif_factorize,
)
from .layout import (
    Cell,
    CodeArray,
    ContractShapeError,
    OffsetVector,
    build_code_array,
    contract,
    derive_offsets,
    dualize,
    map_unshifted,
    puncture,
)
from .rng import Lcg
from .search import (
    BUILTIN_VECTORS,
    DEFAULT_BUDGET,
    BudgetExceededError,
    SearchSpec,
    SearchStats,
    params_for_offset_length,
    search,
)

__all__ = [
    "BUILTIN_VECTORS",
    "BudgetExceededError",
    "Cell",
    "CgrGraph",
    "CgrParams",
    "CodeArray",
    "ContractShapeError",
    "DEFAULT_BUDGET",
    "DecodeReport",
    "ErasurePattern",
    "Factorization",
    "Lcg",
    "MdsResult",
    "NEG_INF",
    "OffsetVector",
    "POS_INF",
    "SearchSpec",
    "SearchStats",
    "UnrecoverableError",
    "build_cgr",
    "build_code_array",
    "contract",
    "decode",
    "decode_complexity",
    "derive_offsets",
    "dualize",
    "encode",
    "erase",
    "map_unshifted",
    "params_for_offset_length",
    "pif_factorize",
    "puncture",
    "search",
    "update_complexity",
    "verify_contracted_mds",
    "verify_dual_mds",
    "verify_mds",
]

__version__ = "0.1.0"
