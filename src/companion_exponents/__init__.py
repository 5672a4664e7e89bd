"""Exponents of primitive (0,1) companion matrices.

Closed-form exponent rules, a definition-level powering oracle, conductor
(coin-problem) computations, counting formulas, and exhaustive censuses
of attainable exponents, with a scriptable CLI front end
(``companion-exp``).
"""

from ._version import __version__
from .core import (
    BoolMatrix,
    CompanionSpec,
    ReducibleError,
    VertexPartition,
    companion_matrix,
    cycle_lengths,
    imprimitivity_index,
    is_irreducible,
    is_primitive,
    longest_run,
    vertex_partition,
    wielandt_bound,
)
from .counting import (
    CensusRecord,
    DispatchMismatchError,
    StringCountTable,
    block_prefix_upper_count,
    census,
    count_imprimitive,
    count_positive_trace_with_exponent,
    count_primitive,
    f_strings,
    gap_progression_exponent_claim,
    list_imprimitive,
    string_count_table,
    t_runs,
    two_coprime_exponent_claim,
)
from .formulas import (
    ExponentReport,
    PreconditionError,
    exponent,
    local_exponents_from_last,
    require_primitive,
)
from .frobenius import (
    GeneratorSet,
    NotCoprimeError,
    conductor,
    pair_conductor,
    progression_conductor,
    representable,
)
from .oracle import (
    LocalExponentTable,
    NotPrimitiveError,
    bool_product,
    local_exponent,
    local_exponent_table,
)
from .oracle import exponent as oracle_exponent

__all__ = [
    "__version__",
    "BoolMatrix",
    "CensusRecord",
    "CompanionSpec",
    "DispatchMismatchError",
    "ExponentReport",
    "GeneratorSet",
    "LocalExponentTable",
    "NotCoprimeError",
    "NotPrimitiveError",
    "PreconditionError",
    "ReducibleError",
    "StringCountTable",
    "VertexPartition",
    "block_prefix_upper_count",
    "bool_product",
    "census",
    "companion_matrix",
    "conductor",
    "count_imprimitive",
    "count_positive_trace_with_exponent",
    "count_primitive",
    "cycle_lengths",
    "exponent",
    "f_strings",
    "gap_progression_exponent_claim",
    "imprimitivity_index",
    "is_irreducible",
    "is_primitive",
    "list_imprimitive",
    "local_exponent",
    "local_exponent_table",
    "local_exponents_from_last",
    "longest_run",
    "oracle_exponent",
    "pair_conductor",
    "progression_conductor",
    "representable",
    "require_primitive",
    "string_count_table",
    "t_runs",
    "two_coprime_exponent_claim",
    "vertex_partition",
    "wielandt_bound",
]
