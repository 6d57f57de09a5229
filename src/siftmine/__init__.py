"""Frequent pattern mining with constraint-based condensation and matrix tiling.

The library follows a two-step shape: fast miners enumerate every frequent
pattern (itemsets, sequences, labeled graphs), then a post-processing step
filters by local constraints and condenses the survivors to a maximal,
closed, free, or skyline representation. A separate tiling component covers
a binary matrix with rectangle tiles under an error budget.
"""

from .condense import DominanceRelation, condense, dominates
from .constraints import (
    EMPTY_EXPR,
    ConstraintAtom,
    ConstraintExpr,
    evaluate,
    parse_constraints,
    partition_valid,
)
from .core import (
    DEFAULT_EDGE_LABEL,
    Embedding,
    GraphDB,
    Itemset,
    LabeledGraph,
    MinSupport,
    PatternRecord,
    Sequence,
    SequenceDB,
    SymbolTable,
    TransactionDB,
    cover_itemset,
    edge_itemize,
    find_embedding,
    graph_included,
    subgraph_isomorphic,
)
from .errors import (
    BoundExceededError,
    ConstraintSyntaxError,
    InputError,
    KindMismatchError,
    SiftmineError,
)
from .formats import (
    BinaryMatrix,
    LoadedPatterns,
    WeightTable,
    load_graphs,
    load_matrix,
    load_patterns,
    load_sequences,
    load_tiles,
    load_transactions,
    load_weights,
    write_patterns,
    write_tiling,
)
from .graphs import canonical_code, mine_frequent_graphs_general, mine_frequent_graphs_unique
from .itemsets import mine_frequent_itemsets
from .oracle import brute_force_condense
from .sequences import mine_frequent_sequences
from .tiling import (
    SelectionResult,
    Tile,
    TileSelection,
    area,
    error,
    error_terms,
    exact_select,
    generate_candidates,
    greedy_select,
    tile_of,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryMatrix",
    "BoundExceededError",
    "ConstraintAtom",
    "ConstraintExpr",
    "ConstraintSyntaxError",
    "DEFAULT_EDGE_LABEL",
    "DominanceRelation",
    "EMPTY_EXPR",
    "Embedding",
    "GraphDB",
    "InputError",
    "Itemset",
    "KindMismatchError",
    "LabeledGraph",
    "LoadedPatterns",
    "MinSupport",
    "PatternRecord",
    "SelectionResult",
    "Sequence",
    "SequenceDB",
    "SiftmineError",
    "SymbolTable",
    "Tile",
    "TileSelection",
    "TransactionDB",
    "WeightTable",
    "__version__",
    "area",
    "brute_force_condense",
    "canonical_code",
    "condense",
    "cover_itemset",
    "dominates",
    "edge_itemize",
    "error",
    "error_terms",
    "evaluate",
    "exact_select",
    "find_embedding",
    "generate_candidates",
    "graph_included",
    "greedy_select",
    "load_graphs",
    "load_matrix",
    "load_patterns",
    "load_sequences",
    "load_tiles",
    "load_transactions",
    "load_weights",
    "mine_frequent_graphs_general",
    "mine_frequent_graphs_unique",
    "mine_frequent_itemsets",
    "mine_frequent_sequences",
    "parse_constraints",
    "partition_valid",
    "subgraph_isomorphic",
    "tile_of",
    "write_patterns",
    "write_tiling",
]
