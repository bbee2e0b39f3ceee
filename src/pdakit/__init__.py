"""Placement delivery arrays for centralized coded caching.

Build base arrays from subset-graph colorings, combine them with the
same-colors, star, tensor, and cycle products, check every result against the
brute-force validators, and run the placement/delivery/decoding protocol on
bytes to prove the scheme works.
"""

from .analytics import (
    ParameterError,
    SchemeRow,
    binary_entropy,
    block_code_cycle_params,
    block_code_params,
    cycle_family_params,
    render_csv,
    restricted_family_params,
    star_intersection_params,
    stirling_binomial_estimate,
    table_report,
)
from .combinators import (
    CombineError,
    combine,
    combine_same_colors,
    cycle_product,
    same_colors_claimed_params,
    star_product,
    tensor_product,
)
from .core import (
    EquivalenceResult,
    InvalidPdaError,
    ParamRecord,
    PdaArray,
    PdaError,
    PdaFormatError,
    ValidationReport,
    Violation,
    equivalent,
    params,
    read_pda,
    validate,
    write_pda,
)
from .families import (
    disjoint_union_coloring,
    intersection_t_coloring,
    restricted_combined_family,
    star_graph_coloring,
    subsets,
    trivial_pda,
)
from .graphs import (
    ColoredBipartiteGraph,
    ColoredGraph,
    GraphError,
    NonConstantDegreeError,
    NotStrongError,
    as_general_graph,
    coloring_to_pda,
    is_strong_coloring,
    pda_to_coloring,
    split_bipartite,
    two_coloring,
)
from .scheme import (
    BroadcastLog,
    CacheState,
    DecodingError,
    FileLibrary,
    SchemeError,
    Slot,
    decode,
    deliver,
    exhaustive_demands,
    place,
    random_demands,
    verify_roundtrip,
)

__version__ = "0.1.0"
