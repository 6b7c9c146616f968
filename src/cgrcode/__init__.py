"""XOR-based MDS array erasure codes built from complete graphs of rings.

Pipeline: build_cgr labels the graph, pif_factorize + derive_offsets
produce an offset vector, build_code_array lays the graph out as a GF(2)
mask grid with its rows rotated (CodeArray.rows shows the cells),
encode/decode move bits through it, and verify_mds / verify_dual_mds /
verify_contracted_mds check every legal erasure pattern (a built array's
survivor pairs one per ring-rotation orbit, since rotation preserves rank).
"""

from .bcode import (
    ContractedArray,
    ContractShapeError,
    contract,
    puncture,
    verify_contracted_mds,
)
from .code import (
    Codeword,
    DecodeReport,
    ErasurePattern,
    MdsResult,
    UnrecoverableError,
    decode,
    decode_complexity,
    dualize,
    encode,
    erase,
    update_complexity,
    verify_dual_mds,
    verify_mds,
)
from .fixtures import BUILTIN_VECTORS
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
    OffsetVector,
    apply_offsets,
    build_code_array,
    derive_offsets,
    map_unshifted,
)
from .rng import Lcg
from .search import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    SearchSpec,
    SearchStats,
    params_for_offset_length,
    search,
    validate_fixture_set,
)

__all__ = [
    "BUILTIN_VECTORS",
    "BudgetExceededError",
    "Cell",
    "CgrGraph",
    "CgrParams",
    "CodeArray",
    "Codeword",
    "ContractShapeError",
    "ContractedArray",
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
    "apply_offsets",
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
    "validate_fixture_set",
    "verify_contracted_mds",
    "verify_dual_mds",
    "verify_mds",
]

__version__ = "0.1.0"
