"""The paper's primary contribution: hop-doubling label indexing.

Public surface:

* :class:`HopDoublingIndex` — build / query / save / load facade;
* the three builders (:class:`HopDoubling`, :class:`HopStepping`,
  :class:`HybridBuilder`) for callers that want iteration-level control;
* :class:`LabelIndex` — the frozen 2-hop index;
* ranking strategies, pruning and the query helpers.
"""

from repro.core.labels import (
    INF,
    BYTES_PER_ENTRY,
    DirectedLabelState,
    LabelDelta,
    LabelIndex,
    LabelStats,
    UndirectedLabelState,
    merge_join_distance,
)
from repro.core.ranking import (
    Ranking,
    RANKING_STRATEGIES,
    betweenness_sample_ranking,
    degree_ranking,
    inout_product_ranking,
    make_ranking,
    random_ranking,
)
from repro.core.rules import (
    CandidateBatch,
    CandidateSet,
    DirectedRuleEngine,
    RULE_SETS,
    UndirectedRuleEngine,
    array_doubling,
    array_stepping,
    make_engine,
)
from repro.core.pruning import (
    PruneOutcome,
    admit_and_prune,
    admit_and_prune_arrays,
    exhaustive_prune,
)
from repro.core.engine import (
    BUILD_ENGINES,
    ArrayBuildEngine,
    DictBuildEngine,
    make_build_engine,
)
from repro.core.hop_doubling import (
    BuildResult,
    HopDoubling,
    IterationStats,
    LabelingBuilder,
)
from repro.core.hop_stepping import HopStepping
from repro.core.hybrid import DEFAULT_SWITCH_ITERATION, HybridBuilder, make_builder
from repro.core.query import (
    average_distance,
    closeness_centrality,
    distance_histogram,
    is_reachable,
    query_many,
    reconstruct_path,
)
from repro.core.index import HopDoublingIndex
from repro.core.dynamic import DynamicHopDoublingIndex
from repro.core.knn import InvertedLabelIndex
from repro.core.verify import VerificationReport, verify_index

__all__ = [
    "INF",
    "BYTES_PER_ENTRY",
    "DirectedLabelState",
    "UndirectedLabelState",
    "LabelDelta",
    "LabelIndex",
    "LabelStats",
    "merge_join_distance",
    "Ranking",
    "RANKING_STRATEGIES",
    "degree_ranking",
    "inout_product_ranking",
    "random_ranking",
    "betweenness_sample_ranking",
    "make_ranking",
    "CandidateBatch",
    "CandidateSet",
    "DirectedRuleEngine",
    "UndirectedRuleEngine",
    "RULE_SETS",
    "array_doubling",
    "array_stepping",
    "make_engine",
    "PruneOutcome",
    "admit_and_prune",
    "admit_and_prune_arrays",
    "exhaustive_prune",
    "BUILD_ENGINES",
    "ArrayBuildEngine",
    "DictBuildEngine",
    "make_build_engine",
    "BuildResult",
    "IterationStats",
    "LabelingBuilder",
    "HopDoubling",
    "HopStepping",
    "HybridBuilder",
    "DEFAULT_SWITCH_ITERATION",
    "make_builder",
    "query_many",
    "is_reachable",
    "reconstruct_path",
    "closeness_centrality",
    "average_distance",
    "distance_histogram",
    "HopDoublingIndex",
    "DynamicHopDoublingIndex",
    "InvertedLabelIndex",
    "VerificationReport",
    "verify_index",
]
