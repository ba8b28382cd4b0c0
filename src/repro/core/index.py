"""Public facade: :class:`HopDoublingIndex`.

This is the interface a downstream user of the library sees::

    from repro import HopDoublingIndex
    from repro.graphs import glp_graph

    g = glp_graph(10_000, seed=7)
    idx = HopDoublingIndex.build(g)          # hybrid strategy, paper defaults
    idx.query(3, 4021)                        # exact distance
    idx.stats()                               # label-size statistics
    idx.save("g.index")                       # compact binary format (v3)

Construction dispatches to the three builders of Sections 3 and 5
(``strategy`` = ``"hybrid"`` (default) / ``"stepping"`` /
``"doubling"``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from repro.core.flatstore import FlatLabelStore, drop_pendant_rows, load_store
from repro.core.hop_doubling import BuildResult, IterationStats
from repro.core.hybrid import check_strategy, make_builder
from repro.core.labels import INF, LabelStats
from repro.core.query import reconstruct_path
from repro.core.ranking import Ranking, make_ranking
from repro.core.rules import check_rule_set
from repro.graphs.digraph import Graph
from repro.graphs.transform import peel_pendants


class HopDoublingIndex:
    """A built 2-hop distance index with the paper's construction recipe."""

    def __init__(
        self,
        labels: FlatLabelStore,
        build_result: BuildResult | None = None,
        graph: Graph | None = None,
    ) -> None:
        self.labels = labels
        self.build_result = build_result
        self._graph = graph

    # -- construction ------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: Graph,
        strategy: str = "hybrid",
        ranking: Ranking | str = "auto",
        rule_set: str = "minimized",
        prune: bool = True,
        on_round: Callable[[IterationStats], None] | None = None,
    ) -> "HopDoublingIndex":
        """Build an index for ``graph``.

        Parameters mirror the paper's knobs: ``strategy`` selects
        Hop-Stepping / Hop-Doubling / hybrid (default, switch at
        iteration 10); ``ranking`` the vertex order (degree-based by
        default); ``rule_set`` the four minimized or six full rules;
        ``prune`` the Section 3.3 pruning step.  ``on_round`` is called
        with each round's :class:`IterationStats` as it finishes.

        Pendant vertices of an undirected graph (degree 1, under a
        higher-ranked neighbour of degree >= 2) are not labelled: the
        builder — the paper's algorithm,
        :func:`~repro.core.hybrid.make_builder` — runs on the graph
        without them, ranked as the full graph ranks it, and the index
        answers a pendant through its neighbour
        (:func:`~repro.graphs.transform.peel_pendants`).  Round
        counters and ``total_entries`` therefore describe the core.
        """
        check_strategy(strategy)
        check_rule_set(rule_set)
        if isinstance(ranking, str):
            ranking = make_ranking(graph, ranking)
        core, parent, hang = peel_pendants(graph, ranking.rank_of)
        builder = make_builder(
            core,
            strategy,
            ranking=ranking,
            rule_set=rule_set,
            prune=prune,
            on_round=on_round,
        )
        result = builder.build()
        if hang is not None:
            result.index = drop_pendant_rows(result.index, parent, hang)
        return cls(result.index, result, graph)

    # -- querying -----------------------------------------------------------
    def query(self, s: int, t: int) -> float:
        """Exact ``dist(s, t)``; ``float('inf')`` when unreachable."""
        return self.labels.query(s, t)

    def query_path(self, s: int, t: int) -> list[int] | None:
        """One shortest path ``s -> t`` (needs the graph kept at build time)."""
        if self._graph is None:
            raise ValueError(
                "path reconstruction needs the graph; build the index in "
                "this process or attach one via the `graph` attribute"
            )
        return reconstruct_path(self.labels, self._graph, s, t)

    def is_reachable(self, s: int, t: int) -> bool:
        """Whether ``t`` is reachable from ``s``."""
        return self.query(s, t) != INF

    # -- inspection ------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.labels.n

    @property
    def num_iterations(self) -> int:
        """Indexing iterations (paper counting), if built in this process."""
        if self.build_result is None:
            raise ValueError("index was loaded from disk; no build history")
        return self.build_result.num_iterations

    @property
    def iteration_stats(self) -> list[IterationStats]:
        """Per-iteration counters (Figure 10 series)."""
        if self.build_result is None:
            raise ValueError("index was loaded from disk; no build history")
        return list(self.build_result.iterations)

    def stats(self) -> LabelStats:
        """Label-size statistics (Table 7 ingredients)."""
        return self.labels.stats()

    def size_in_bytes(self) -> int:
        """Index size under the paper's storage convention."""
        return self.labels.size_in_bytes()

    # -- persistence --------------------------------------------------------------
    def save(self, path: str | Path, format: str = "v3") -> None:
        """Persist the 2-hop labels, atomically.

        ``format="v3"`` (default) writes the compact encoding of
        :mod:`repro.core.quantized` (~25-50% of the v2 bytes);
        ``format="v2"`` the flat-array blobs of
        :mod:`repro.core.flatstore`.  Same labels either way;
        ``repro convert`` translates between them on disk.
        """
        self.labels.encoded(format).save(path)

    @classmethod
    def load(cls, path: str | Path) -> "HopDoublingIndex":
        """Load an index file of any format version."""
        return cls(load_store(path))

    # -- serving ------------------------------------------------------------------
    def oracle(self, graph: Graph | None = None, **kwargs):
        """A :class:`~repro.oracle.DistanceOracle` serving this index.

        The oracle serves a fresh store over this index's arrays
        (:meth:`FlatLabelStore.from_index`), so each call gets its own
        update overlay and kernel cache.  Keyword arguments
        (``cache_size`` …) pass through to the oracle.  For path
        reconstruction the build graph, when retained, is attached
        automatically; pass ``graph=`` to attach one to a disk-loaded
        index.
        """
        from repro.oracle import DistanceOracle

        if graph is None:
            graph = self._graph
        return DistanceOracle(
            FlatLabelStore.from_index(self.labels), graph=graph, **kwargs
        )

    def __repr__(self) -> str:
        return f"HopDoublingIndex({self.labels!r})"
