"""The build engine: the construction backend of the builders.

:class:`~repro.core.hop_doubling.LabelingBuilder` owns the iteration
*schedule* (which rounds step, which double, when to stop); an engine
owns the iteration *mechanics* — seeding the label state from the
edges, applying the generation rules, admitting and pruning candidates,
and freezing the final index.  :class:`ArrayBuildEngine` runs them
vectorized over :mod:`repro.core.arraystate`, in one process.  It
reads the graph once into arc columns and freezes straight into the CSR
arrays of a :class:`~repro.core.flatstore.FlatLabelStore`.

A round's memory beyond the label state (24 bytes per stored entry)
is bounded step by step: generation holds the previous round's
survivors, the candidates' running minimum per pair and one block of
raw candidates (:mod:`repro.core.rules`); admission and pruning hold
the staged overlays and a block of expanded rows
(:mod:`repro.core.pruning`, :mod:`repro.core.arraystate`); and the
builder drops each round's ``prev`` and candidates as soon as the next
step stands for them (:meth:`~repro.core.hop_doubling.LabelingBuilder.build`).

The per-entry reference engine over dict label states lives in
``tests/reference/dict_build.py``; the bit-identity suites
(``tests/core/test_parallel_build.py``,
``tests/core/test_write_path.py``) hold this engine to its entries,
distances, hops, per-iteration counters and file bytes.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.core.flatstore import FlatLabelStore
from repro.core.pruning import admit_and_prune_arrays, exhaustive_prune
from repro.core.ranking import Ranking
from repro.graphs.digraph import Graph

def seed_array_state(graph: Graph, rank_of: Sequence[int], arcs):
    """Seed an array state from :func:`~repro.core.arraystate.arc_columns`.

    Returns the state and the iteration-1 ``prev`` block: one entry per
    edge (the paper's iteration 1).  Self loops are dropped, an
    undirected edge is taken once and normalized to ``(owner, pivot)``,
    and parallel arcs collapse to the lightest.  ``prev`` comes out in
    pair-key order rather than edge order, which nothing downstream can
    see: candidate deduplication is canonical in pair-key order.
    """
    import numpy as np

    from repro.core.arraystate import ArrayLabelState, PrevBlock, id_dtype
    from repro.core.rules import CandidateBatch

    n = graph.num_vertices
    src, tgt, wt = arcs
    once = src != tgt if graph.directed else src < tgt
    a, b, wt = src[once], tgt[once], wt[once]
    if not graph.directed:
        rank = np.asarray(rank_of, dtype=np.int64)
        swap = rank[a] < rank[b]
        a, b = np.where(swap, b, a), np.where(swap, a, b)
    ones = np.ones(a.size, dtype=id_dtype(n))
    prev = PrevBlock.from_keys(n, *CandidateBatch(n, a, b, wt, ones).take())
    return ArrayLabelState.from_block(rank_of, graph.directed, prev), prev


class BuildEngine(Protocol):
    """Contract between the iteration skeleton and a construction backend."""

    def initialize(self):
        """Seed the label state; return the first ``prevLabel``."""
        ...

    def generate(self, mode: str, prev):
        """Apply the rules (``mode`` = ``"step"`` or ``"double"``)."""
        ...

    def admit_round(self, candidates, prune: bool = True):
        """Stage candidates; return ``(survivors, PruneOutcome)``."""
        ...

    def total_entries(self) -> int:
        """Non-trivial entries currently in the state."""
        ...

    def exhaustive_prune(self) -> int:
        """Section 5.2's final sweep; returns entries removed."""
        ...

    def freeze(self) -> FlatLabelStore:
        """Freeze the state into the queryable store."""
        ...


class ArrayBuildEngine:
    """The vectorized engine over struct-of-arrays state."""

    name = "array"

    def __init__(self, graph: Graph, ranking: Ranking, rule_set: str) -> None:
        self.graph = graph
        self.ranking = ranking
        self.full = rule_set == "full"
        self.state = None
        self._arcs = None
        self._edges = None

    def initialize(self):
        from repro.core.arraystate import arc_columns

        # One bulk read of the adjacency serves the seed now and the
        # stepping partners later.
        self._arcs = arc_columns(self.graph)
        self.state, prev = seed_array_state(
            self.graph, self.ranking.rank_of, self._arcs
        )
        return prev

    def edge_snapshot(self):
        """The static stepping partners (built once per engine)."""
        if self._edges is None:
            from repro.core.arraystate import EdgeSnapshot

            self._edges = EdgeSnapshot.from_arcs(
                self.state.n, self.graph.directed, self.state.rank, *self._arcs
            )
            self._arcs = None  # ~24 B per arc, not needed past this point
        return self._edges

    def generate(self, mode: str, prev):
        from repro.core.rules import array_doubling, array_stepping

        if mode == "step":
            return array_stepping(self.edge_snapshot(), prev, self.full)
        # doubling_snapshot restricts the partner views to the prev
        # entries' vertices when the frontier is small (the tail
        # iterations, and every dynamic-repair round) — identical rule
        # applications either way.
        return array_doubling(self.state.doubling_snapshot(prev), prev, self.full)

    def admit_round(self, candidates, prune: bool = True):
        return admit_and_prune_arrays(self.state, candidates, prune=prune)

    def total_entries(self) -> int:
        return self.state.total_entries()

    def exhaustive_prune(self) -> int:
        return exhaustive_prune(self.state)

    def freeze(self) -> FlatLabelStore:
        return self.state.freeze()
