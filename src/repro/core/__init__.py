"""The paper's primary contribution: hop-doubling label indexing.

Public surface:

* :class:`HopDoublingIndex` — build / query / save / load facade;
* the three builders (:class:`HopDoubling`, :class:`HopStepping`,
  :class:`HybridBuilder`) for callers that want iteration-level control;
* ranking strategies, the array rule joins, pruning and the query
  helpers.  A build returns a
  :class:`~repro.core.flatstore.FlatLabelStore`, the one label store.
"""

from repro.core.labels import (
    INF,
    BYTES_PER_ENTRY,
    LabelDelta,
    LabelStats,
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
    RULE_SETS,
    array_doubling,
    array_stepping,
)
from repro.core.pruning import (
    PruneOutcome,
    admit_and_prune_arrays,
    exhaustive_prune,
)
from repro.core.engine import ArrayBuildEngine
from repro.core.hop_doubling import (
    BuildResult,
    HopDoubling,
    IterationStats,
    LabelingBuilder,
)
from repro.core.hop_stepping import HopStepping
from repro.core.hybrid import DEFAULT_SWITCH_ITERATION, HybridBuilder, make_builder
from repro.core.query import (
    closeness_centrality,
    distance_histogram,
    reconstruct_path,
)
from repro.core.index import HopDoublingIndex
from repro.core.dynamic import DynamicHopDoublingIndex
from repro.core.knn import InvertedLabelIndex
from repro.core.verify import VerificationReport, verify_index

__all__ = [
    "INF",
    "BYTES_PER_ENTRY",
    "LabelDelta",
    "LabelStats",
    "Ranking",
    "RANKING_STRATEGIES",
    "degree_ranking",
    "inout_product_ranking",
    "random_ranking",
    "betweenness_sample_ranking",
    "make_ranking",
    "CandidateBatch",
    "RULE_SETS",
    "array_doubling",
    "array_stepping",
    "PruneOutcome",
    "admit_and_prune_arrays",
    "exhaustive_prune",
    "ArrayBuildEngine",
    "BuildResult",
    "IterationStats",
    "LabelingBuilder",
    "HopDoubling",
    "HopStepping",
    "HybridBuilder",
    "DEFAULT_SWITCH_ITERATION",
    "make_builder",
    "reconstruct_path",
    "closeness_centrality",
    "distance_histogram",
    "HopDoublingIndex",
    "DynamicHopDoublingIndex",
    "InvertedLabelIndex",
    "VerificationReport",
    "verify_index",
]
