"""Build engines: the pluggable construction backends of the builders.

:class:`~repro.core.hop_doubling.LabelingBuilder` owns the iteration
*schedule* (which rounds step, which double, when to stop); an engine
owns the iteration *mechanics* — seeding the label state from the
edges, applying the generation rules, admitting and pruning candidates,
and freezing the final index.  Two engines implement the same
contract:

* :class:`DictBuildEngine` — the reference implementation over the
  dict-based states of :mod:`repro.core.labels` (exactly the original
  single-threaded construction path);
* :class:`ArrayBuildEngine` — the vectorized engine over
  :mod:`repro.core.arraystate`, with
  :class:`repro.core.parallel_build.ParallelBuildEngine` layering
  multiprocess candidate generation on top for ``jobs > 1``.  It reads
  the graph once into arc columns, and what it freezes is the CSR
  arrays of a :class:`~repro.core.flatstore.FlatLabelStore` inside the
  :class:`~repro.core.labels.LabelIndex` — the tuple lists the dict
  engine produces are, for this engine, a view derived on demand.

Every engine produces **bit-identical** label entries, distances, hops
and per-iteration counters for the same graph and ranking, and
byte-identical v2/v3 files — the benchmarks,
``tests/core/test_parallel_build.py`` and
``tests/core/test_write_path.py`` enforce it — so ``engine=`` and
``jobs=`` are pure performance knobs.  ``engine="auto"``, the default
everywhere, is the array engine (:func:`resolve_engine`).
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.core.labels import (
    DirectedLabelState,
    LabelIndex,
    UndirectedLabelState,
)
from repro.core.pruning import (
    PruneOutcome,
    admit_and_prune,
    exhaustive_prune,
)
from repro.core.ranking import Ranking
from repro.core.rules import RULE_SETS, PrevEntry, make_engine
from repro.graphs.digraph import Graph

BUILD_ENGINES = ("auto", "array", "dict")


def _check_engine_name(engine: str) -> None:
    if engine not in BUILD_ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {BUILD_ENGINES}")


def check_engine_options(engine: str, jobs: int) -> None:
    """Validate an engine/jobs combination (one shared implementation).

    Called by every entry point that accepts the knobs — the builders'
    constructors (eager, so a bad configuration fails before any
    build work) and :func:`make_build_engine` — so the rules and the
    error wording can never drift apart.
    """
    _check_engine_name(engine)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if engine == "dict" and jobs != 1:
        raise ValueError(
            "jobs > 1 requires engine='array' (the dict engine is "
            "single-process)"
        )


def resolve_engine(engine: str) -> str:
    """Resolve the ``engine`` knob to ``"array"`` or ``"dict"``.

    ``"auto"`` (the default of the builders and the CLI) is the
    vectorized array engine.
    """
    _check_engine_name(engine)
    return "dict" if engine == "dict" else "array"


def seed_dict_state(
    graph: Graph, rank_of: Sequence[int]
) -> tuple[DirectedLabelState | UndirectedLabelState, list[PrevEntry]]:
    """Seed dict stores with one entry per edge (the paper's iteration 1)."""
    if graph.directed:
        state: DirectedLabelState | UndirectedLabelState = DirectedLabelState(rank_of)
    else:
        state = UndirectedLabelState(rank_of)
    prev: list[PrevEntry] = []
    for u, v, w in graph.edges():
        if u == v:
            continue
        if graph.directed:
            entry = (u, v, w, 1)
        else:
            owner, pivot = state.owner_pivot(u, v)
            entry = (owner, pivot, w, 1)
        existing = state.get_pair(entry[0], entry[1])
        if existing is not None and existing[0] <= w:
            continue
        state.set_pair(entry[0], entry[1], w, 1)
        prev.append(entry)
    return state, prev


def seed_array_state(graph: Graph, rank_of: Sequence[int], arcs):
    """Seed an array state from :func:`~repro.core.arraystate.arc_columns`.

    The array twin of :func:`seed_dict_state`: returns the state and
    the iteration-1 ``prev`` block.  Self loops are dropped, an
    undirected edge is taken once and normalized to ``(owner, pivot)``,
    and parallel arcs collapse to the lightest.  ``prev`` comes out in
    pair-key order rather than edge order, which nothing downstream can
    see: candidate deduplication is canonical in pair-key order.
    """
    import numpy as np

    from repro.core.arraystate import ArrayLabelState, PrevBlock
    from repro.core.rules import CandidateBatch

    src, tgt, wt = arcs
    once = src != tgt if graph.directed else src < tgt
    a, b, wt = src[once], tgt[once], wt[once]
    if not graph.directed:
        rank = np.asarray(rank_of, dtype=np.int64)
        swap = rank[a] < rank[b]
        a, b = np.where(swap, b, a), np.where(swap, a, b)
    ones = np.ones(a.size, dtype=np.int64)
    prev = PrevBlock(*CandidateBatch(graph.num_vertices, a, b, wt, ones).dedupe())
    return ArrayLabelState.from_block(rank_of, graph.directed, prev), prev


class BuildEngine(Protocol):
    """Contract between the iteration skeleton and a construction backend."""

    def initialize(self):
        """Seed the label state; return the first ``prevLabel``."""
        ...

    def generate(self, mode: str, prev):
        """Apply the rules (``mode`` = ``"step"`` or ``"double"``)."""
        ...

    def admit_and_prune(self, candidates, prune: bool = True):
        """Stage candidates; return ``(survivors, PruneOutcome)``."""
        ...

    def total_entries(self) -> int:
        """Non-trivial entries currently in the state."""
        ...

    def exhaustive_prune(self) -> int:
        """Section 5.2's final sweep; returns entries removed."""
        ...

    def freeze(self) -> LabelIndex:
        """Freeze the state into the queryable index."""
        ...

    def close(self) -> None:
        """Release any engine resources (worker pools)."""
        ...


class DictBuildEngine:
    """The reference engine over the dict-based label states."""

    name = "dict"

    def __init__(self, graph: Graph, ranking: Ranking, rule_set: str) -> None:
        self.graph = graph
        self.ranking = ranking
        self.rule_set = rule_set
        self.state: DirectedLabelState | UndirectedLabelState | None = None
        self._rules = None

    def initialize(self) -> list[PrevEntry]:
        self.state, prev = seed_dict_state(self.graph, self.ranking.rank_of)
        self._rules = make_engine(self.state, self.graph, self.rule_set)
        return prev

    def generate(self, mode: str, prev):
        if mode == "step":
            return self._rules.stepping(prev)
        return self._rules.doubling(prev)

    def admit_and_prune(
        self, candidates, prune: bool = True
    ) -> tuple[list[PrevEntry], PruneOutcome]:
        return admit_and_prune(self.state, candidates, prune=prune)

    def total_entries(self) -> int:
        return self.state.total_entries()

    def exhaustive_prune(self) -> int:
        return exhaustive_prune(self.state)

    def freeze(self) -> LabelIndex:
        return LabelIndex.from_state(self.state)

    def close(self) -> None:
        pass


class ArrayBuildEngine:
    """The vectorized engine over struct-of-arrays state."""

    name = "array"

    def __init__(self, graph: Graph, ranking: Ranking, rule_set: str) -> None:
        if rule_set not in RULE_SETS:
            raise ValueError(
                f"unknown rule_set {rule_set!r}; expected one of {RULE_SETS}"
            )
        self.graph = graph
        self.ranking = ranking
        self.full = rule_set == "full"
        self.state = None
        self._arcs = None
        self._edges = None
        self._final_dict_state = None

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
        # applications, so the build stays bit-identical to the dict
        # engine's.
        return array_doubling(self.state.doubling_snapshot(prev), prev, self.full)

    def admit_and_prune(self, candidates, prune: bool = True):
        from repro.core.pruning import admit_and_prune_arrays

        return admit_and_prune_arrays(self.state, candidates, prune=prune)

    def total_entries(self) -> int:
        return self.state.total_entries()

    def exhaustive_prune(self) -> int:
        # The final sweep is a one-shot post-pass with data-dependent
        # per-entry control flow; run it on a materialized dict state
        # (same entries, same canonical visiting order, same result).
        dict_state = self.state.to_dict_state()
        removed = exhaustive_prune(dict_state)
        self._final_dict_state = dict_state
        return removed

    def freeze(self) -> LabelIndex:
        if self._final_dict_state is not None:
            return LabelIndex.from_state(self._final_dict_state)
        return self.state.freeze()

    def close(self) -> None:
        pass


def make_build_engine(
    graph: Graph,
    ranking: Ranking,
    rule_set: str = "minimized",
    engine: str = "auto",
    jobs: int = 1,
) -> BuildEngine:
    """Instantiate a construction backend by name.

    ``engine`` is ``"auto"`` or ``"array"`` (vectorized) or ``"dict"``
    (reference); ``jobs > 1`` selects the multiprocess
    :class:`~repro.core.parallel_build.ParallelBuildEngine` and is
    only available with the array engine.
    """
    check_engine_options(engine, jobs)
    if resolve_engine(engine) == "dict":
        return DictBuildEngine(graph, ranking, rule_set)
    if jobs > 1:
        from repro.core.parallel_build import ParallelBuildEngine

        return ParallelBuildEngine(graph, ranking, rule_set, jobs=jobs)
    return ArrayBuildEngine(graph, ranking, rule_set)
