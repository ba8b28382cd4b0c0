"""The reference build engine, over the dict label states.

The package builds on the struct-of-arrays state
(:class:`~repro.core.engine.ArrayBuildEngine`).  This is the per-entry
path it grew out of — the dict rule engines, the dict seeding, the
exhaustive sweep and :class:`DictBuildEngine` — kept here as the oracle
the bit-identity tests hold the array engine to: the same graph,
ranking and options must give the same entries, the same per-round
counters and the same file bytes.  Inside :func:`dict_engine` every
build runs its own schedule on it, through the builders' one engine
factory, ``LabelingBuilder._engine``.  The states, :class:`CandidateSet` and the
dict ``admit_and_prune`` live in :mod:`paper.labels`, which the
external-memory build shares.

Importable from ``tests/`` and ``benchmarks/`` alike as
``tests.reference.dict_build`` (the repository root is on the pytest
``pythonpath``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Sequence

from paper.labels import (
    CandidateSet,
    DirectedLabelState,
    LabelIndex,
    UndirectedLabelState,
    admit_and_prune,
    to_store,
)
from repro.core.flatstore import FlatLabelStore
from repro.core.hop_doubling import LabelingBuilder
from repro.core.pruning import PruneOutcome
from repro.core.ranking import Ranking
from repro.core.rules import RULE_SETS, PrevEntry
from repro.graphs.digraph import Graph

# ---------------------------------------------------------------------------
# Rule engines (Section 3.1-3.2 and Section 5.1)
# ---------------------------------------------------------------------------
#
# A candidate entry concatenates two known entries that share a middle
# vertex ``m``: ``(x -> m) + (m -> y) => (x -> y)``, trough-valid when
# ``m`` ranks below the higher-ranked of ``x`` and ``y``
# (Definition 1).  The paper's six rules of Table 5 are the six
# (prev-entry type x partner store) templates of this join; Lemmas 3-4
# show four of them suffice (``rule_set="minimized"``, the default;
# ``"full"`` applies all six).  :meth:`doubling` takes partners from
# all current labels (Hop-Doubling, Section 3), :meth:`stepping` from
# the graph's edges (Hop-Stepping, Section 5.1).


def _check_rule_set(rule_set: str) -> None:
    if rule_set not in RULE_SETS:
        raise ValueError(
            f"unknown rule_set {rule_set!r}; expected one of {RULE_SETS}"
        )


class DirectedRuleEngine:
    """Generation rules over a :class:`DirectedLabelState`."""

    def __init__(
        self,
        state: DirectedLabelState,
        graph: Graph,
        rule_set: str = "minimized",
    ) -> None:
        _check_rule_set(rule_set)
        self.state = state
        self.graph = graph
        self.full = rule_set == "full"

    def doubling(self, prev: Sequence[PrevEntry]) -> CandidateSet:
        """Apply the rules with label partners (Hop-Doubling joins)."""
        state = self.state
        rank = state.rank
        out = state.out
        inn = state.inn
        rev_out = state.rev_out
        rev_in = state.rev_in
        cands = CandidateSet()
        full = self.full

        for u, v, d, h in prev:
            if rank[v] < rank[u]:
                # prev is an out-entry of u: (u -> v), pivot v outranks u.
                rank_v = rank[v]
                # Rule 1: partners (x -> u) in Lin(u); minimized keeps
                # only x ranked between u and v.
                for x, (d1, h1) in inn[u].items():
                    if x == u or x == v:
                        continue
                    if full or rank[x] > rank_v:
                        cands.offer(x, v, d1 + d, h1 + h)
                # Rule 2: partners (x -> u) held as out-entries of x
                # (x ranked below u) — reached through the reverse index.
                for x, (d1, h1) in rev_out[u].items():
                    if x == v:
                        continue
                    cands.offer(x, v, d1 + d, h1 + h)
                if full:
                    # Rule 3: partners (v -> y) in Lout(v); redundant by
                    # Lemma 3 but kept in the full rule set.
                    for y, (d2, h2) in out[v].items():
                        if y == v or y == u:
                            continue
                        cands.offer(u, y, d + d2, h + h2)
            else:
                # prev is an in-entry of v: (u -> v), pivot u outranks v.
                rank_u = rank[u]
                # Rule 4: partners (v -> y) in Lout(v); minimized keeps
                # only y ranked between v and u.
                for y, (d2, h2) in out[v].items():
                    if y == v or y == u:
                        continue
                    if full or rank[y] > rank_u:
                        cands.offer(u, y, d + d2, h + h2)
                # Rule 5: partners (v -> y) held as in-entries of y
                # (y ranked below v) — reached through the reverse index.
                for y, (d2, h2) in rev_in[v].items():
                    if y == u:
                        continue
                    cands.offer(u, y, d + d2, h + h2)
                if full:
                    # Rule 6: partners (x -> u) in Lin(u); redundant by
                    # Lemma 3 but kept in the full rule set.
                    for x, (d1, h1) in inn[u].items():
                        if x == u or x == v:
                            continue
                        cands.offer(x, v, d1 + d, h1 + h)
        return cands

    def stepping(self, prev: Sequence[PrevEntry]) -> CandidateSet:
        """Apply the rules with edge partners (Hop-Stepping joins)."""
        state = self.state
        rank = state.rank
        graph = self.graph
        cands = CandidateSet()
        full = self.full

        for u, v, d, h in prev:
            if rank[v] < rank[u]:
                # prev out-entry (u -> v): extend backwards over in-edges
                # of u.  Minimized: partner x must rank below v (union of
                # Rules 1 and 2); full: any x (adds Rule 1's dropped
                # branch), plus Rule 3 partners over out-edges of v.
                rank_v = rank[v]
                for x, w in graph.in_edges(u):
                    if x == v:
                        continue
                    if full or rank[x] > rank_v:
                        cands.offer(x, v, w + d, h + 1)
                if full:
                    for y, w in graph.out_edges(v):
                        if y == u:
                            continue
                        if rank[y] < rank_v:
                            cands.offer(u, y, d + w, h + 1)
            else:
                # prev in-entry (u -> v): extend forwards over out-edges
                # of v.  Minimized: partner y must rank below u (union of
                # Rules 4 and 5); full: any y, plus Rule 6 partners over
                # in-edges of u.
                rank_u = rank[u]
                for y, w in graph.out_edges(v):
                    if y == u:
                        continue
                    if full or rank[y] > rank_u:
                        cands.offer(u, y, d + w, h + 1)
                if full:
                    for x, w in graph.in_edges(u):
                        if x == v:
                            continue
                        if rank[x] < rank_u:
                            cands.offer(x, v, w + d, h + 1)
        return cands


class UndirectedRuleEngine:
    """Generation rules over an :class:`UndirectedLabelState` (Section 7).

    Entries are unordered pairs ``{owner, pivot}`` with the pivot
    outranking the owner.  The directed rules collapse pairwise
    (Rule 1 with Rule 4, Rule 2 with Rule 5), leaving:

    * minimized — partners of the owner ranked below the pivot;
    * full — additionally, any owner partner and pivot-side partners
      (the analogue of Rules 3/6).
    """

    def __init__(
        self,
        state: UndirectedLabelState,
        graph: Graph,
        rule_set: str = "minimized",
    ) -> None:
        _check_rule_set(rule_set)
        self.state = state
        self.graph = graph
        self.full = rule_set == "full"

    def _offer(
        self, cands: CandidateSet, a: int, b: int, dist: float, hops: int
    ) -> None:
        """Offer the unordered pair ``{a, b}`` in (owner, pivot) order,
        so each pair has one candidate key whichever join produced it."""
        if self.state.rank[a] < self.state.rank[b]:
            a, b = b, a
        cands.offer(a, b, dist, hops)

    def doubling(self, prev: Sequence[PrevEntry]) -> CandidateSet:
        """Apply the rules with label partners (Hop-Doubling joins)."""
        state = self.state
        rank = state.rank
        lab = state.lab
        rev = state.rev
        cands = CandidateSet()
        full = self.full

        for owner, pivot, d, h in prev:
            rank_p = rank[pivot]
            # Rule 1 analogue: partners in L(owner).
            for x, (d1, h1) in lab[owner].items():
                if x == owner or x == pivot:
                    continue
                if full or rank[x] > rank_p:
                    self._offer(cands, x, pivot, d1 + d, h1 + h)
            # Rule 2 analogue: partners holding `owner` as their pivot.
            for x, (d1, h1) in rev[owner].items():
                if x == pivot:
                    continue
                self._offer(cands, x, pivot, d1 + d, h1 + h)
            if full:
                # Rule 3/6 analogue: extend through the pivot side.
                for y, (d2, h2) in lab[pivot].items():
                    if y == pivot or y == owner:
                        continue
                    self._offer(cands, owner, y, d + d2, h + h2)
        return cands

    def stepping(self, prev: Sequence[PrevEntry]) -> CandidateSet:
        """Apply the rules with edge partners (Hop-Stepping joins)."""
        state = self.state
        rank = state.rank
        graph = self.graph
        cands = CandidateSet()
        full = self.full

        for owner, pivot, d, h in prev:
            rank_p = rank[pivot]
            for x, w in graph.out_edges(owner):
                if x == pivot:
                    continue
                if full or rank[x] > rank_p:
                    self._offer(cands, x, pivot, w + d, h + 1)
            if full:
                for y, w in graph.out_edges(pivot):
                    if y == owner:
                        continue
                    if rank[y] < rank_p:
                        self._offer(cands, owner, y, d + w, h + 1)
        return cands


def make_engine(
    state: DirectedLabelState | UndirectedLabelState,
    graph: Graph,
    rule_set: str = "minimized",
) -> DirectedRuleEngine | UndirectedRuleEngine:
    """Instantiate the rule engine matching the state's directedness."""
    if isinstance(state, DirectedLabelState):
        return DirectedRuleEngine(state, graph, rule_set)
    return UndirectedRuleEngine(state, graph, rule_set)


# ---------------------------------------------------------------------------
# The exhaustive sweep (Section 5.2)
# ---------------------------------------------------------------------------


def exhaustive_prune(state: DirectedLabelState | UndirectedLabelState) -> int:
    """Re-run the pruning test over *all* non-trivial entries until fixpoint.

    Entries are visited from lowest-priority pivots upward, then by
    owner, out-side first — the visiting order of
    :func:`repro.core.pruning.exhaustive_prune` — and a removal is
    seen by every later test of the sweep.  Confirmation sweeps
    re-check only the entries incident to a vertex whose ``Lout`` /
    ``Lin`` lost an entry (the dirty set).  Returns the number of
    entries removed.
    """
    directed = isinstance(state, DirectedLabelState)
    removed_total = 0
    entries = _canonical_entry_order(state, state.iter_entries())
    while entries:
        # (a, b, was_out) per removal this sweep, for dirty tracking.
        removed_pairs: list[tuple[int, int, bool]] = []
        for owner, pivot, dist, _hops, is_out in entries:
            if directed:
                a, b = (owner, pivot) if is_out else (pivot, owner)
            else:
                a, b = owner, pivot
            if state.get_pair(a, b) is None:
                continue  # already removed within this sweep
            bound = state.two_hop_bound(a, b, exclude_pivot=pivot)
            if bound <= dist:
                state.remove_pair(a, b)
                removed_pairs.append((a, b, is_out))
        removed_total += len(removed_pairs)
        if not removed_pairs:
            break
        entries = _canonical_entry_order(
            state, _dirty_entries(state, directed, removed_pairs)
        )
    return removed_total


def _canonical_entry_order(state, entries):
    """Sort entries lowest-priority pivot first, then owner, then side."""
    rank = state.rank
    return sorted(entries, key=lambda e: (-rank[e[1]], e[0], not e[4]))


def _dirty_entries(state, directed, removed_pairs):
    """Entries whose pruning bound may have changed after removals.

    The bound of a pair ``(x, y)`` joins ``Lout(x)`` with ``Lin(y)``
    (``L(x)`` with ``L(y)`` when undirected), so removing ``(a, b)``
    dirties exactly the entries with source ``a`` (when an out-entry
    shrank ``Lout(a)``) or target ``b`` (when an in-entry shrank
    ``Lin(b)``); for undirected states the owner's single store shrank.
    Entries are gathered through the stores and reverse indexes.
    """
    seen: dict[tuple[int, int], tuple] = {}
    if not directed:
        dirty = {a for a, _b, _ in removed_pairs}
        for o in dirty:
            for p, (d, h) in state.lab[o].items():
                if p != o:
                    seen[(o, p)] = (o, p, d, h, True)
            for x, (d, h) in state.rev[o].items():
                seen[(x, o)] = (x, o, d, h, True)
        return seen.values()

    dirty_src = {a for a, _b, was_out in removed_pairs if was_out}
    dirty_dst = {b for _a, b, was_out in removed_pairs if not was_out}
    for x in dirty_src:
        # Pairs with source x: out-entries of x plus entries (x -> y)
        # held in Lin(y), reached through rev_in[x].
        for p, (d, h) in state.out[x].items():
            if p != x:
                seen[(x, p)] = (x, p, d, h, True)
        for y, (d, h) in state.rev_in[x].items():
            seen[(x, y)] = (y, x, d, h, False)
    for y in dirty_dst:
        # Pairs with target y: in-entries of y plus entries (x -> y)
        # held in Lout(x), reached through rev_out[y].
        for p, (d, h) in state.inn[y].items():
            if p != y:
                seen[(p, y)] = (y, p, d, h, False)
        for x, (d, h) in state.rev_out[y].items():
            seen[(x, y)] = (x, y, d, h, True)
    return seen.values()


# ---------------------------------------------------------------------------
# The build engine
# ---------------------------------------------------------------------------


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


class DictBuildEngine:
    """The reference engine: the ``BuildEngine`` contract of
    :mod:`repro.core.engine` over the dict label states."""

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

    def admit_round(
        self, candidates, prune: bool = True
    ) -> tuple[list[PrevEntry], PruneOutcome]:
        return admit_and_prune(self.state, candidates, prune=prune)

    def total_entries(self) -> int:
        return self.state.total_entries()

    def exhaustive_prune(self) -> int:
        return exhaustive_prune(self.state)

    def freeze(self) -> FlatLabelStore:
        return to_store(LabelIndex.from_state(self.state))


@contextmanager
def dict_engine():
    """Run every build inside the block on :class:`DictBuildEngine`.

    Each builder keeps its own schedule, ranking, rule set and pruning
    options; only the builders' one engine factory,
    ``LabelingBuilder._engine``, is swapped — so ``HopDoublingIndex.build`` (pendant peel included)
    runs on the reference too.
    """
    factory = LabelingBuilder._engine
    LabelingBuilder._engine = lambda builder: DictBuildEngine(
        builder.graph, builder.ranking, builder.rule_set
    )
    try:
        yield
    finally:
        LabelingBuilder._engine = factory
