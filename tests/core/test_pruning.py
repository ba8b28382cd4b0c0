"""Tests for candidate admission and pruning (Section 3.3, Theorem 3)."""

from hypothesis import given, settings

import numpy as np

from paper.baselines.apsp import APSPOracle
from paper.labels import (
    CandidateSet,
    DirectedLabelState,
    UndirectedLabelState,
    admit_and_prune,
)
from repro.core.arraystate import ArrayLabelState, PrevBlock
from repro.core.hybrid import make_builder
from repro.core.pruning import exhaustive_prune
from repro.graphs.digraph import Graph
from tests.conftest import graph_strategy
from tests.reference import dict_build


class TestAdmission:
    def test_worse_candidate_dropped(self):
        st = DirectedLabelState([0, 1])
        st.set_pair(1, 0, 2.0, 1)
        cands = CandidateSet()
        cands.offer(1, 0, 3.0, 2)
        survivors, outcome = admit_and_prune(st, cands)
        assert survivors == []
        assert outcome.admitted == 0
        assert st.get_pair(1, 0) == (2.0, 1)

    def test_equal_candidate_dropped(self):
        st = DirectedLabelState([0, 1])
        st.set_pair(1, 0, 2.0, 1)
        cands = CandidateSet()
        cands.offer(1, 0, 2.0, 1)
        survivors, _ = admit_and_prune(st, cands)
        assert survivors == []

    def test_better_candidate_replaces(self):
        st = DirectedLabelState([0, 1])
        st.set_pair(1, 0, 5.0, 1)
        cands = CandidateSet()
        cands.offer(1, 0, 2.0, 2)
        survivors, outcome = admit_and_prune(st, cands)
        assert survivors == [(1, 0, 2.0, 2)]
        assert st.get_pair(1, 0) == (2.0, 2)
        assert outcome.admitted == 1
        assert outcome.pruned == 0


class TestPruneStep:
    def test_dominated_candidate_pruned(self):
        # Ranks: 0 > 1 > 2.  Existing: (2 -> 0, 1), (0 -> 1, 1).
        # Candidate (2 -> 1, 3) is dominated via pivot 0 (1 + 1 <= 3).
        st = DirectedLabelState([0, 1, 2])
        st.set_pair(2, 0, 1.0, 1)
        st.set_pair(0, 1, 1.0, 1)
        cands = CandidateSet()
        cands.offer(2, 1, 3.0, 2)
        survivors, outcome = admit_and_prune(st, cands)
        assert survivors == []
        assert outcome.pruned == 1
        assert st.get_pair(2, 1) is None

    def test_equal_distance_pruned_toward_higher_pivot(self):
        st = DirectedLabelState([0, 1, 2])
        st.set_pair(2, 0, 1.0, 1)
        st.set_pair(0, 1, 1.0, 1)
        cands = CandidateSet()
        cands.offer(2, 1, 2.0, 2)  # same distance as the pivot-0 route
        survivors, _ = admit_and_prune(st, cands)
        assert survivors == []

    def test_candidates_prune_each_other(self):
        # Both candidates arrive in the same iteration; the longer pair
        # is pruned by the route through the two shorter ones.
        st = DirectedLabelState([0, 1, 2])
        cands = CandidateSet()
        cands.offer(2, 0, 1.0, 1)
        cands.offer(0, 1, 1.0, 1)
        cands.offer(2, 1, 2.0, 2)
        survivors, outcome = admit_and_prune(st, cands)
        assert (2, 1, 2.0, 2) not in survivors
        assert outcome.pruned == 1

    def test_prune_disabled_keeps_everything(self):
        st = DirectedLabelState([0, 1, 2])
        st.set_pair(2, 0, 1.0, 1)
        st.set_pair(0, 1, 1.0, 1)
        cands = CandidateSet()
        cands.offer(2, 1, 3.0, 2)
        survivors, outcome = admit_and_prune(st, cands, prune=False)
        assert len(survivors) == 1
        assert outcome.pruned == 0

    def test_own_route_does_not_self_prune(self):
        # A fresh entry must not be pruned by its own trivial route
        # (candidate + self entry gives exactly its own distance).
        st = DirectedLabelState([0, 1])
        cands = CandidateSet()
        cands.offer(1, 0, 4.0, 2)
        survivors, _ = admit_and_prune(st, cands)
        assert survivors == [(1, 0, 4.0, 2)]


class TestCanonicalSafety:
    """Theorem 3: canonical entries survive pruning, so queries stay exact.

    Verified indirectly-but-completely: with pruning on, every pair
    query equals ground truth (if a canonical entry were ever pruned
    some query would come out too large).
    """

    @settings(max_examples=50, deadline=None)
    @given(graph_strategy())
    def test_pruned_index_exact(self, g):
        truth = APSPOracle(g)
        idx = make_builder(g, "hybrid").build().index
        for s in range(g.num_vertices):
            for t in range(g.num_vertices):
                assert idx.query(s, t) == truth.query(s, t)

    @settings(max_examples=25, deadline=None)
    @given(graph_strategy(weighted=False, max_n=14))
    def test_pruning_never_larger_than_unpruned(self, g):
        pruned = make_builder(g, "stepping").build().index
        unpruned = make_builder(g, "stepping", prune=False).build().index
        assert pruned.total_entries() <= unpruned.total_entries()


def _unpruned_entries(g):
    """``(rank, entries)`` of an unpruned stepping build: every stored
    non-trivial entry as an ``(a, b, dist)`` pair of the graph."""
    result = make_builder(g, "stepping", prune=False).build()
    entries = []
    for v in range(g.num_vertices):
        for p, d in result.index.out_label(v):
            if p != v:
                entries.append((v, p, d))
        if g.directed:
            for p, d in result.index.in_label(v):
                if p != v:
                    entries.append((p, v, d))
    return result.ranking.rank_of, entries


def _array_state(rank, directed, entries):
    a, b, d = (np.asarray(col) for col in zip(*entries))
    block = PrevBlock(a, b, d.astype(np.float64), np.ones(a.size, np.int64))
    return ArrayLabelState.from_block(rank, directed, block)


def _dict_state(rank, directed, entries):
    st = (DirectedLabelState if directed else UndirectedLabelState)(rank)
    for a, b, d in entries:
        st.set_pair(a, b, d, 1)
    return st


def _array_entries(state):
    """The state's entries as sorted ``(owner, pivot, dist, is_out)``."""
    sides = [(state.out, True)]
    if state.directed:
        sides.append((state.inn, False))
    return sorted(
        (o, p, d, is_out)
        for side, is_out in sides
        for o, p, d in zip(
            side.owner.tolist(), side.piv.tolist(), side.dist.tolist()
        )
    )


class TestExhaustivePrune:
    """The package's sweep runs on the array state; every check also
    holds it to the per-entry reference sweep over a dict state."""

    def test_unpruned_build_plus_exhaustive_matches_pruned(self):
        """Section 5.2: exhaustive pruning equalizes the label sets."""
        g = Graph.from_edges(
            6,
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)],
            directed=False,
        )
        rank, entries = _unpruned_entries(g)
        st = _array_state(rank, False, entries)
        removed = exhaustive_prune(st)
        assert removed > 0
        pruned = make_builder(g, "stepping", prune=True).build().index
        assert st.total_entries() == pruned.total_entries()
        assert dict_build.exhaustive_prune(_dict_state(rank, False, entries)) == removed

    def test_exhaustive_prune_noop_on_pruned_state(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)], directed=True)
        result = make_builder(g, "stepping").build()
        entries = []
        for v in range(g.num_vertices):
            entries += [(v, p, d) for p, d in result.index.out_label(v) if p != v]
            entries += [(p, v, d) for p, d in result.index.in_label(v) if p != v]
        st = _array_state(result.ranking.rank_of, True, entries)
        assert exhaustive_prune(st) == 0

    def test_dirty_sweeps_reach_fixpoint(self):
        """A second call after the dirty-set sweeps must find nothing."""
        from repro.graphs.generators import glp_graph

        for directed in (False, True):
            g = glp_graph(80, seed=17, directed=directed)
            rank, entries = _unpruned_entries(g)
            st = _array_state(rank, directed, entries)
            assert exhaustive_prune(st) > 0
            assert exhaustive_prune(st) == 0

    def test_dirty_sweeps_deterministic(self):
        """Same entry set in, same surviving entries out — always, and
        the entries the per-entry reference sweep keeps."""
        from repro.graphs.generators import glp_graph

        g = glp_graph(70, seed=23, directed=True)
        rank, entries = _unpruned_entries(g)
        st1 = _array_state(rank, True, entries)
        st2 = _array_state(rank, True, entries[::-1])
        ref = _dict_state(rank, True, entries)
        removed = exhaustive_prune(st1)
        assert removed == exhaustive_prune(st2) == dict_build.exhaustive_prune(ref)
        assert _array_entries(st1) == _array_entries(st2)
        assert _array_entries(st1) == sorted(
            (o, p, d, is_out) for o, p, d, _, is_out in ref.iter_entries()
        )

    def test_directed_exhaustive_matches_pruned_build(self):
        """The directed twin of the Section 5.2 equalization check."""
        from repro.graphs.generators import ba_graph

        g = ba_graph(60, m=2, seed=3, directed=True)
        rank, entries = _unpruned_entries(g)
        st = _array_state(rank, True, entries)
        exhaustive_prune(st)
        pruned = make_builder(g, "stepping", prune=True).build().index
        assert st.total_entries() == pruned.total_entries()
