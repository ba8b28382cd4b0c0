"""Incremental edge insertion — an extension beyond the paper.

The paper targets *static* graphs ("given a static directed unweighted
scale-free graph, construct a disk-based index").  A natural follow-up
question is how far the same machinery carries toward dynamic graphs.
This module answers the insert-only half:

* keep the mutable label state alive after the initial build;
* when edges arrive (one at a time or in batches), admit each as a
  unit-hop entry and run **Hop-Doubling repair rounds** seeded with
  just those entries.

Why doubling and not stepping: the repair must stitch a new edge to
*existing* labels on both sides in one round (``(a -> u) + (u -> v)``
and ``(a -> v) + (v -> b)``); doubling's label-partner joins do exactly
that, so any new trough shortest path through the edge is covered
within two rounds plus the usual fixpoint iteration, and admission
replaces any entry whose distance improved.  Batches are sound for the
same reason: all seeds are admitted before the first round, each round
joins the surviving frontier against *all* current labels, and any
derivation combining two fresh entries occurs in the round where the
later-derived one is the frontier and the earlier sits in the store.

Two repair engines implement the rounds, selected by ``engine=``:

* ``"dict"`` — the reference per-entry path over the dict states of
  :mod:`repro.core.labels` (exactly the original implementation);
* ``"array"`` — the vectorized path over
  :class:`~repro.core.arraystate.ArrayLabelState`: seeds admitted as a
  block, candidates generated through
  :func:`~repro.core.rules.array_doubling` over **frontier-restricted**
  label snapshots (only the affected vertices' partner slices are
  gathered and sorted), admission and pruning through
  :func:`~repro.core.pruning.admit_and_prune_arrays`.  Both engines
  produce bit-identical label states for the same insertion sequence
  (``benchmarks/test_update_throughput.py`` gates the array path at
  >= 3x the dict path on a 10k-vertex insertion stream).

Updates reach the serving layer as :class:`~repro.core.labels.LabelDelta`
objects: every admission/removal records the owner whose label changed
and :meth:`DynamicHopDoublingIndex.pop_label_delta` drains those
vertices as complete replacement label slices, which
``FlatLabelStore.apply_updates`` / ``ShardedLabelStore.apply_updates``
stage as a query-time overlay (and reconcile to disk per shard).

**Pendants.**  A serving store built by ``HopDoublingIndex.build``
does not label pendant vertices (degree 1; see
:mod:`repro.core.flatstore`): it answers ``v`` through its neighbour
``u`` until a delta carries a label for ``v``, and from then on from
that label.  That is sound only if every vertex that stops being a
pendant is in the delta, and repair alone does not guarantee it: insert
``(v, x)`` where pendant ``v`` outranks ``x`` — ``x`` isolated, say —
and only ``x``'s label changes, yet ``dist(v, x)`` is now 1, not ``1 +
dist(u, x)``.  So :meth:`DynamicHopDoublingIndex.insert_edges` marks
both endpoints of every accepted undirected edge as touched, and the
delta carries their complete labels.  A pendant no edge touches still
has degree 1, so it stays exact whatever happens to ``u``'s label.
:meth:`~DynamicHopDoublingIndex.from_store` reads derived labels: the
repair state holds every vertex's full label.

Scope and guarantees:

* queries stay **exact** after any number of insertions (asserted
  against full rebuilds in the test suite);
* the label set may retain entries that a from-scratch rebuild would
  have pruned (insertion can make old entries dominated; we do not
  re-sweep by default — call :meth:`DynamicHopDoublingIndex.compact`
  for an exhaustive re-prune);
* deletions are out of scope (they can invalidate entries that nothing
  local can certify; the paper's future work, and ours).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.engine import resolve_engine, seed_dict_state
from repro.core.labels import (
    DirectedLabelState,
    LabelDelta,
    LabelIndex,
    LabelStore,
    UndirectedLabelState,
)
from repro.core.pruning import admit_and_prune, admit_entries, exhaustive_prune
from repro.core.ranking import Ranking, make_ranking
from repro.core.rules import PrevEntry, make_engine
from repro.graphs.builder import GraphBuilder
from repro.graphs.digraph import Graph

def _edge_keys(graph: Graph) -> set[tuple[int, int]]:
    """``DynamicHopDoublingIndex._edge_key`` of every edge of ``graph``,
    read off the adjacency rows (an undirected edge once, ``u <= v``)."""
    out, n = graph.out_neighbors, graph.num_vertices
    if graph.directed:
        return {(u, v) for u in range(n) for v in out(u)}
    return {(u, v) for u in range(n) for v in out(u) if u <= v}


class _DictRepairEngine:
    """The reference repair path over the dict-based label states.

    Repair must use the FULL rule set: the minimized rules'
    equivalence (Lemma 4) relies on alternative derivations that exist
    when building from scratch but not when extending a single fresh
    entry — e.g. stitching the new edge to partners reachable only
    through its own pivot.
    """

    name = "dict"

    def __init__(self, state: DirectedLabelState | UndirectedLabelState) -> None:
        self.state = state
        # The rule engines consult the graph only for *stepping* joins;
        # repair rounds are pure doubling, so no graph is attached.
        self.rules = make_engine(state, None, "full")

    @classmethod
    def from_graph(cls, graph: Graph, ranking: Ranking) -> "_DictRepairEngine":
        state, prev = seed_dict_state(graph, ranking.rank_of)
        engine = cls(state)
        engine.repair(prev)
        return engine

    @classmethod
    def from_label_entries(
        cls,
        rank_of: Sequence[int],
        directed: bool,
        entries: Iterable[tuple[int, int, float, int]],
    ) -> "_DictRepairEngine":
        if directed:
            state: DirectedLabelState | UndirectedLabelState = (
                DirectedLabelState(rank_of)
            )
        else:
            state = UndirectedLabelState(rank_of)
        for a, b, dist, hops in entries:
            state.set_pair(a, b, dist, hops)
        return cls(state)

    # -- repair --------------------------------------------------------
    def admit_and_repair(self, entries: list[PrevEntry]) -> int:
        staged = admit_entries(self.state, entries)
        self.repair(staged)
        return len(staged)

    def repair(self, prev: list[PrevEntry]) -> None:
        """Doubling rounds until no surviving candidate remains."""
        while prev:
            candidates = self.rules.doubling(prev)
            prev, _ = admit_and_prune(self.state, candidates)

    # -- queries / maintenance -----------------------------------------
    def query(self, s: int, t: int) -> float:
        return self.state.two_hop_bound(s, t)

    def snapshot(self) -> LabelIndex:
        return LabelIndex.from_state(self.state)

    def compact(self) -> int:
        return exhaustive_prune(self.state)

    def total_entries(self) -> int:
        return self.state.total_entries()

    def track_touched(self):
        return self.state.track_touched()

    def owner_pivot(self, a: int, b: int) -> tuple[int, int]:
        return self.state.owner_pivot(a, b)

    # -- serving labels ------------------------------------------------
    # The dict stores keep the trivial (v, 0) self entries inline, so a
    # serving label is one sorted() away.
    def serving_out_label(self, v: int) -> list[tuple[int, float]]:
        state = self.state
        if isinstance(state, DirectedLabelState):
            return sorted((p, d) for p, (d, _) in state.out[v].items())
        return sorted((p, d) for p, (d, _) in state.lab[v].items())

    def serving_in_label(self, v: int) -> list[tuple[int, float]]:
        return sorted((p, d) for p, (d, _) in self.state.inn[v].items())


class _ArrayRepairEngine:
    """The vectorized repair path over the struct-of-arrays state."""

    name = "array"

    def __init__(self, state) -> None:
        self.state = state

    @classmethod
    def from_graph(cls, graph: Graph, ranking: Ranking) -> "_ArrayRepairEngine":
        from repro.core.arraystate import arc_columns
        from repro.core.engine import seed_array_state

        state, prev = seed_array_state(
            graph, ranking.rank_of, arc_columns(graph)
        )
        engine = cls(state)
        engine.repair(prev)
        return engine

    @classmethod
    def from_label_entries(
        cls,
        rank_of: Sequence[int],
        directed: bool,
        entries: Iterable[tuple[int, int, float, int]],
    ) -> "_ArrayRepairEngine":
        from repro.core.arraystate import ArrayLabelState

        state = ArrayLabelState.from_initial_entries(
            rank_of, directed, list(entries)
        )
        return cls(state)

    @classmethod
    def from_columns(
        cls, rank_of: Sequence[int], directed: bool, a, b, dist
    ) -> "_ArrayRepairEngine":
        """:meth:`from_label_entries` over int64/float64 numpy columns."""
        import numpy as np

        from repro.core.arraystate import ArrayLabelState, PrevBlock

        block = PrevBlock(a, b, dist, np.ones(a.size, dtype=np.int64))
        return cls(ArrayLabelState.from_block(rank_of, directed, block))

    # -- repair --------------------------------------------------------
    def admit_and_repair(self, entries: list[PrevEntry]) -> int:
        from repro.core.arraystate import PrevBlock

        block = PrevBlock.from_lists(entries)
        admitted = self.state.admit(block.a, block.b, block.dist, block.hops)
        self.repair(
            PrevBlock(
                block.a[admitted],
                block.b[admitted],
                block.dist[admitted],
                block.hops[admitted],
            )
        )
        return int(admitted.sum())

    def repair(self, prev) -> None:
        """Doubling rounds until no surviving candidate remains.

        Each round's partner views are restricted to the frontier's
        vertices (:meth:`ArrayLabelState.doubling_snapshot`), so the
        round's cost tracks the number of affected vertices, not the
        index size — the full rule set is preserved (see
        :class:`_DictRepairEngine`'s Lemma 4 caveat).
        """
        from repro.core.pruning import admit_and_prune_arrays
        from repro.core.rules import array_doubling

        while len(prev):
            candidates = array_doubling(
                self.state.doubling_snapshot(prev), prev, full=True
            )
            prev, _ = admit_and_prune_arrays(self.state, candidates)

    # -- queries / maintenance -----------------------------------------
    def query(self, s: int, t: int) -> float:
        return self.state.two_hop_distance(s, t)

    def snapshot(self) -> LabelIndex:
        return self.state.freeze()

    def compact(self) -> int:
        """Exhaustive re-prune via the dict twin, then re-adopt.

        The sweep has data-dependent per-entry control flow (same
        reasoning as ``ArrayBuildEngine.exhaustive_prune``), so it
        runs on a materialized dict state; the pruned entries are then
        packed back into a fresh array state.  Touched-vertex tracking
        survives the swap: the dict twin records the removals into the
        same sets the callers already hold.
        """
        from repro.core.arraystate import ArrayLabelState

        touched = self.state._touched
        dict_state = self.state.to_dict_state()
        if touched is not None:
            dict_state.track_touched(touched)
        removed = exhaustive_prune(dict_state)
        directed = self.state.directed
        entries = []
        for owner, pivot, dist, hops, is_out in dict_state.iter_entries():
            if directed and not is_out:
                entries.append((pivot, owner, dist, hops))
            else:
                entries.append((owner, pivot, dist, hops))
        state = ArrayLabelState.from_initial_entries(
            self.state.rank.tolist(), directed, entries
        )
        if touched is not None:
            state.track_touched(touched)
        self.state = state
        return removed

    def total_entries(self) -> int:
        return self.state.total_entries()

    def track_touched(self):
        return self.state.track_touched()

    def owner_pivot(self, a: int, b: int) -> tuple[int, int]:
        return self.state.owner_pivot(a, b)

    # -- serving labels ------------------------------------------------
    # The array state excludes trivial self entries; re-insert (v, 0.0)
    # at its sorted position to match the frozen stores' label shape.
    def _serving_label(self, side, v: int) -> list[tuple[int, float]]:
        import numpy as np

        o, e = side.off[v], side.off[v + 1]
        label = list(
            zip(side.piv[o:e].tolist(), side.dist[o:e].tolist())
        )
        label.insert(int(np.searchsorted(side.piv[o:e], v)), (v, 0.0))
        return label

    def serving_out_label(self, v: int) -> list[tuple[int, float]]:
        return self._serving_label(self.state.out, v)

    def serving_in_label(self, v: int) -> list[tuple[int, float]]:
        return self._serving_label(self.state.inn, v)


class DynamicHopDoublingIndex:
    """A hop-doubling index that accepts edge insertions.

    Build once from a base graph (or adopt a built store with
    :meth:`from_store`), then insert edges as the graph grows::

        dyn = DynamicHopDoublingIndex(base_graph, engine="array")
        dyn.query(s, t)
        dyn.insert_edge(u, v)            # index repaired in-place
        dyn.insert_edges([(a, b), ...])  # batched: one repair fixpoint
        dyn.query(s, t)                  # still exact

        delta = dyn.pop_label_delta()    # changed per-vertex labels
        store.apply_updates(delta)       # serving store follows along

    The ranking is fixed at construction time (new high-degree vertices
    do not get re-ranked; quality degrades gracefully, exactness does
    not — the paper's Section 7 point that any total order stays
    correct).
    """

    def __init__(
        self,
        graph: Graph,
        ranking: Ranking | str = "auto",
        engine: str = "auto",
    ) -> None:
        if isinstance(ranking, str):
            ranking = make_ranking(graph, ranking)
        self.ranking = ranking
        self.rule_set = "full"  # see the engines' Lemma 4 caveat
        self.engine = resolve_engine(engine)
        self.n = graph.num_vertices
        self.directed = graph.directed
        self.weighted = graph.weighted
        if self.engine == "array":
            self._impl = _ArrayRepairEngine.from_graph(graph, ranking)
        else:
            self._impl = _DictRepairEngine.from_graph(graph, ranking)
        # Tracking starts *after* the initial build: the first delta
        # covers insertions only, not the base index.
        self._touched = self._impl.track_touched()
        self._new_edges: list[tuple[int, int, float]] = []
        self._edge_keys = _edge_keys(graph)
        self._graph: Graph | None = graph
        self.insertions = 0

    @classmethod
    def from_store(
        cls,
        store: LabelStore,
        graph: Graph | None = None,
        ranking: Ranking | Sequence[int] | None = None,
        engine: str = "auto",
    ) -> "DynamicHopDoublingIndex":
        """Adopt a frozen label store as the live repair state.

        This is how an index loaded from disk (flat v2, quantized v3,
        or a shard directory) becomes updatable without a rebuild: the
        store's entries seed the mutable state directly.  ``ranking``
        defaults to the ranking recorded in the store; pass ``graph``
        to enable duplicate-edge detection and the :attr:`graph`
        accessor (label repair itself never consults the graph — the
        rounds are pure doubling).  Hop counters are not persisted in
        the index formats, so adopted entries carry ``hops=1``; repair
        distances do not depend on hop counts, only the (unpersisted)
        per-iteration statistics ever did.
        """
        if ranking is None:
            rank = getattr(store, "rank", None)
            if rank is None:
                raise ValueError(
                    "store carries no ranking; pass ranking= (the rank_of "
                    "list or a Ranking) to adopt it"
                )
            ranking = Ranking.from_order(
                sorted(range(store.n), key=lambda v: rank[v])
            )
        elif not isinstance(ranking, Ranking):
            ranking = Ranking.from_order(
                sorted(range(len(ranking)), key=lambda v: ranking[v])
            )
        if graph is not None and graph.num_vertices != store.n:
            raise ValueError(
                f"graph covers {graph.num_vertices} vertices, store has "
                f"{store.n}"
            )

        self = cls.__new__(cls)
        self.ranking = ranking
        self.rule_set = "full"
        self.engine = resolve_engine(engine)
        self.n = store.n
        self.directed = store.directed
        self.weighted = graph.weighted if graph is not None else True

        def entries():
            for v in range(store.n):
                for p, d in store.out_label(v):
                    if p != v:
                        yield (v, p, d, 1)
                if store.directed:
                    for p, d in store.in_label(v):
                        if p != v:
                            yield (p, v, d, 1)

        if self.engine == "array":
            from repro.oracle import kernel

            if kernel.supports(store):
                # CSR columns in, CSR columns out: no tuple per entry.
                self._impl = _ArrayRepairEngine.from_columns(
                    ranking.rank_of, store.directed,
                    *kernel.label_entries(store),
                )
            else:
                self._impl = _ArrayRepairEngine.from_label_entries(
                    ranking.rank_of, store.directed, entries()
                )
        else:
            self._impl = _DictRepairEngine.from_label_entries(
                ranking.rank_of, store.directed, entries()
            )
        self._touched = self._impl.track_touched()
        if graph is not None:
            self._edge_keys = _edge_keys(graph)
        else:
            # No graph: pre-existing edges cannot be detected (their
            # re-insertion is a harmless no-better seed), but edges
            # inserted through this index still dedupe.
            self._edge_keys = set()
        self._new_edges = []
        self._graph = graph
        self.insertions = 0
        return self

    # -- queries -----------------------------------------------------------
    def query(self, s: int, t: int) -> float:
        """Exact ``dist(s, t)`` on the current (grown) graph."""
        if s == t:
            return 0.0
        return self._impl.query(s, t)

    def snapshot(self) -> LabelIndex:
        """Freeze the current labels into an immutable index."""
        return self._impl.snapshot()

    @property
    def graph(self) -> Graph:
        """The current (grown) graph, rebuilt lazily after insertions.

        Graph instances are immutable by design, and label repair
        never reads the adjacency (the rounds are pure doubling), so
        edges inserted since the last access are folded into a fresh
        graph only when someone asks for it — verification, path
        reconstruction, statistics.  No separate edge-list copy is
        retained: the previous graph re-enumerates its own edges.
        """
        if self._graph is None:
            raise ValueError(
                "no graph attached (index adopted from a store); pass "
                "graph= to from_store() to track the growing graph"
            )
        if self._new_edges:
            builder = GraphBuilder(
                num_vertices=self.n,
                directed=self.directed,
                weighted=self.weighted,
            )
            for u, v, w in self._graph.edges():
                if self.weighted:
                    builder.add_edge(u, v, w)
                else:
                    builder.add_edge(u, v)
            for u, v, w in self._new_edges:
                if self.weighted:
                    builder.add_edge(u, v, w)
                else:
                    builder.add_edge(u, v)
            self._graph = builder.build()
            self._new_edges.clear()
        return self._graph

    # -- mutation --------------------------------------------------------------
    def insert_edge(self, u: int, v: int, weight: float = 1.0) -> bool:
        """Add the edge ``u -> v`` (``{u, v}`` if undirected) and repair.

        Returns ``False`` when the edge already exists or is a self
        loop (no work done).  ``weight`` must be positive for weighted
        graphs and is ignored (treated as 1) otherwise.
        """
        return self.insert_edges([(u, v, weight)]) == 1

    def insert_edges(
        self,
        edges: Iterable[tuple[int, int] | tuple[int, int, float]],
    ) -> int:
        """Add a batch of edges and repair the index once.

        Each edge is ``(u, v)`` or ``(u, v, weight)``.  Self loops and
        edges already present (in the graph or earlier in the batch)
        are skipped; out-of-range endpoints raise ``IndexError`` and
        non-positive weights on weighted graphs raise ``ValueError``.
        All surviving edges are admitted as unit-hop entries together
        and a single doubling fixpoint repairs the index — far cheaper
        than per-edge repair for insertion streams, and queries are
        exact either way.  Returns the number of edges added.  A
        validation error rejects the **whole batch**: no edge of it is
        recorded or repaired.
        """
        validated: list[tuple[int, int, float]] = []
        for edge in edges:
            u, v = int(edge[0]), int(edge[1])
            weight = float(edge[2]) if len(edge) > 2 else 1.0
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise IndexError(
                    f"edge ({u}, {v}) out of range for {self.n} vertices"
                )
            if u == v:
                continue
            if not self.weighted:
                weight = 1.0
            elif not weight > 0:
                raise ValueError(
                    f"edge weight must be > 0, got {edge[2]!r}"
                )
            validated.append((u, v, weight))

        seeds: list[PrevEntry] = []
        added = 0
        for u, v, weight in validated:
            key = self._edge_key(u, v)
            if key in self._edge_keys:
                continue
            self._edge_keys.add(key)
            if self._graph is not None:
                self._new_edges.append((u, v, weight))
            added += 1
            if self.directed:
                a, b = u, v
            else:
                a, b = self._impl.owner_pivot(u, v)
                # Both ends are in the next delta whether or not their
                # labels change (module docstring, "pendants").
                self._touched[0].update((u, v))
            seeds.append((a, b, weight, 1))
        if not added:
            return 0
        self.insertions += added
        self._impl.admit_and_repair(seeds)
        return added

    def compact(self) -> int:
        """Exhaustively re-prune; returns the number of entries removed.

        Insertions can make pre-existing entries dominated; a periodic
        compaction restores the canonical-size index (Section 5.2's
        exhaustive sweep).  Removals are recorded like any other label
        change, so the next :meth:`pop_label_delta` carries them.
        """
        return self._impl.compact()

    # -- serving-layer hand-off -------------------------------------------
    def pop_label_delta(self) -> LabelDelta:
        """Drain the label changes staged since the last call.

        Returns a :class:`~repro.core.labels.LabelDelta` holding the
        complete replacement label of every vertex whose ``Lout`` /
        ``Lin`` changed (trivial self entries included, sorted by
        pivot) — ready for ``apply_updates`` on any serving store.
        Idempotent between mutations: a second call returns an empty
        delta.
        """
        out_touched, in_touched = self._touched
        delta = LabelDelta.empty(self.n, self.directed)
        for v in sorted(out_touched):
            delta.out[v] = self._impl.serving_out_label(v)
        if self.directed:
            for v in sorted(in_touched):
                delta.inn[v] = self._impl.serving_in_label(v)
        out_touched.clear()
        in_touched.clear()
        return delta

    # -- internals ---------------------------------------------------------------
    def _edge_key(self, u: int, v: int) -> tuple[int, int]:
        if not self.directed and u > v:
            return v, u
        return u, v

    def __repr__(self) -> str:
        if self._graph is not None:
            edges = self._graph.num_edges + len(self._new_edges)
            shape = f"|V|={self.n}, |E|={edges}"
        else:
            shape = f"|V|={self.n}"
        return (
            f"DynamicHopDoublingIndex({shape}, "
            f"insertions={self.insertions}, engine={self.engine!r})"
        )
