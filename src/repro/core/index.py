"""Public facade: :class:`HopDoublingIndex`.

This is the interface a downstream user of the library sees::

    from repro import HopDoublingIndex
    from repro.graphs import glp_graph

    g = glp_graph(10_000, seed=7)
    idx = HopDoublingIndex.build(g)          # hybrid strategy, paper defaults
    idx.query(3, 4021)                        # exact distance
    idx.stats()                               # label-size statistics
    idx.save("g.index")                       # compact binary format

Construction dispatches to the three builders of Sections 3 and 5
(``strategy`` = ``"hybrid"`` (default) / ``"stepping"`` /
``"doubling"``) and can post-process with bit-parallel labels
(Section 6) on undirected unweighted graphs.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.bitparallel import BitParallelIndex, add_bitparallel
from repro.core.hop_doubling import BuildResult, IterationStats
from repro.core.hybrid import make_builder
from repro.core.labels import INF, LabelIndex, LabelStats
from repro.core.query import reconstruct_path
from repro.core.ranking import Ranking, make_ranking
from repro.graphs.digraph import Graph
from repro.graphs.transform import peel_pendants


class HopDoublingIndex:
    """A built 2-hop distance index with the paper's construction recipe."""

    def __init__(
        self,
        labels: LabelIndex,
        build_result: BuildResult | None = None,
        bitparallel: BitParallelIndex | None = None,
        graph: Graph | None = None,
    ) -> None:
        self.labels = labels
        self.build_result = build_result
        self.bitparallel = bitparallel
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
        use_bitparallel: bool = False,
        num_roots: int = 50,
        **builder_kwargs,
    ) -> "HopDoublingIndex":
        """Build an index for ``graph``.

        Parameters mirror the paper's knobs: ``strategy`` selects
        Hop-Stepping / Hop-Doubling / hybrid (default, switch at
        iteration 10); ``ranking`` the vertex order (degree-based by
        default); ``rule_set`` the four minimized or six full rules;
        ``use_bitparallel`` adds Section 6's root labels (undirected
        unweighted graphs only).

        Performance knobs pass through ``builder_kwargs``: ``engine``
        (default ``"auto"``: the vectorized array engine when numpy
        imports, else the reference ``"dict"`` engine — bit-identical
        output either way), ``jobs=N`` to fan candidate generation over
        N worker processes, and ``on_round`` to be called with each
        round's :class:`IterationStats` as it finishes — see
        :mod:`repro.core.engine`.

        Pendant vertices of an undirected graph (degree 1, under a
        higher-ranked neighbour of degree >= 2) are not labelled: the
        builder — the paper's algorithm,
        :func:`~repro.core.hybrid.make_builder` — runs on the graph
        without them, ranked as the full graph ranks it, and the index
        answers a pendant through its neighbour
        (:func:`~repro.graphs.transform.peel_pendants`).  Round
        counters and ``total_entries`` therefore describe the core.
        """
        if isinstance(ranking, str):
            ranking = make_ranking(graph, ranking)
        core, parent, hang = peel_pendants(graph, ranking.rank_of)
        builder = make_builder(
            core,
            strategy,
            ranking=ranking,
            rule_set=rule_set,
            prune=prune,
            **builder_kwargs,
        )
        result = builder.build()
        if hang is not None:
            result.index = result.index.with_pendants(parent, hang)
        bp = None
        if use_bitparallel:
            bp = add_bitparallel(graph, result.index, num_roots=num_roots)
        return cls(result.index, result, bp, graph)

    # -- querying -----------------------------------------------------------
    def query(self, s: int, t: int) -> float:
        """Exact ``dist(s, t)``; ``float('inf')`` when unreachable."""
        if self.bitparallel is not None:
            return self.bitparallel.query(s, t)
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
        if self.bitparallel is not None:
            return self.bitparallel.size_in_bytes()
        return self.labels.size_in_bytes()

    # -- persistence --------------------------------------------------------------
    def save(self, path: str | Path, format: str = "v1") -> None:
        """Persist the plain 2-hop labels (bit-parallel side not saved).

        ``format="v1"`` writes the per-entry struct format;
        ``format="v2"`` writes the flat-array blobs of
        :mod:`repro.core.flatstore` (same contents, bulk-loadable);
        ``format="v3"`` writes the compact quantized arrays of
        :mod:`repro.core.quantized` (same contents, ~25-50% of the v2
        bytes).  All writes are atomic.  ``repro convert`` translates
        between the formats on disk.
        """
        if format == "v1":
            self.labels.save(path)
        elif format == "v2":
            from repro.core.flatstore import FlatLabelStore

            FlatLabelStore.from_index(self.labels).save(path)
        elif format == "v3":
            from repro.core.quantized import QuantizedLabelStore

            QuantizedLabelStore.from_index(self.labels).save(path)
        else:
            raise ValueError(f"unknown index format {format!r}")

    @classmethod
    def load(cls, path: str | Path) -> "HopDoublingIndex":
        """Load an index saved with :meth:`save` (either format)."""
        return cls(LabelIndex.load(path))

    # -- serving ------------------------------------------------------------------
    def oracle(self, backend: str = "flat", graph: Graph | None = None,
               **kwargs):
        """A :class:`~repro.oracle.DistanceOracle` serving this index.

        ``backend="flat"`` (default) serves a CSR store — packed from
        the tuple lists, or for an array-built index a fresh store over
        the build's own arrays (each call its own overlay and kernel
        cache); ``"list"`` serves the index object itself.  Keyword
        arguments (``cache_size`` …) pass through to the oracle.  For
        path reconstruction the build graph, when retained, is attached
        automatically; pass ``graph=`` to attach one to a disk-loaded
        index.
        """
        from repro.oracle import DistanceOracle

        if backend == "flat":
            from repro.core.flatstore import FlatLabelStore

            store = FlatLabelStore.from_index(self.labels)
        elif backend == "list":
            store = self.labels
        else:
            raise ValueError(f"unknown backend {backend!r}")
        if graph is None:
            graph = self._graph
        return DistanceOracle(store, graph=graph, **kwargs)

    def __repr__(self) -> str:
        bp = ", bit-parallel" if self.bitparallel is not None else ""
        return f"HopDoublingIndex({self.labels!r}{bp})"
