"""Tests for the rule engines (Table 5 / Figure 6, Lemmas 3-4)."""

import pytest
from hypothesis import given, settings

from paper.labels import CandidateSet, DirectedLabelState, UndirectedLabelState
from repro.core.hybrid import make_builder
from repro.graphs.digraph import Graph
from tests.conftest import graph_strategy
from tests.reference.dict_build import (
    DirectedRuleEngine,
    UndirectedRuleEngine,
    make_engine,
)
from tests.reference.label_lists import label_lists


class TestCandidateSet:
    def test_keeps_minimum_distance(self):
        c = CandidateSet()
        c.offer(0, 1, 5.0, 2)
        c.offer(0, 1, 3.0, 4)
        c.offer(0, 1, 7.0, 1)
        assert c.pairs[(0, 1)] == (3.0, 4)
        assert c.raw_generated == 3
        assert len(c) == 1

    def test_tie_prefers_fewer_hops(self):
        c = CandidateSet()
        c.offer(0, 1, 3.0, 4)
        c.offer(0, 1, 3.0, 2)
        assert c.pairs[(0, 1)] == (3.0, 2)

    def test_distinct_pairs(self):
        c = CandidateSet()
        c.offer(0, 1, 1.0, 1)
        c.offer(1, 0, 1.0, 1)
        assert len(c) == 2


class TestEngineConstruction:
    def test_unknown_rule_set_rejected(self):
        g = Graph.from_edges(2, [(0, 1)], directed=True)
        st = DirectedLabelState([0, 1])
        with pytest.raises(ValueError, match="rule_set"):
            DirectedRuleEngine(st, g, rule_set="bogus")

    def test_make_engine_dispatch(self):
        gd = Graph.from_edges(2, [(0, 1)], directed=True)
        gu = Graph.from_edges(2, [(0, 1)], directed=False)
        assert isinstance(
            make_engine(DirectedLabelState([0, 1]), gd), DirectedRuleEngine
        )
        assert isinstance(
            make_engine(UndirectedLabelState([0, 1]), gu), UndirectedRuleEngine
        )


class TestDirectedGeneration:
    """Hand-checked rule applications on a 3-vertex chain.

    Ranks: vertex 0 highest, then 1, then 2.
    """

    def _state(self):
        st = DirectedLabelState([0, 1, 2])
        return st

    def test_rule1_like_concatenation(self):
        # prev out-entry (1 -> 0); partner in Lin(1): (x -> 1).
        g = Graph.from_edges(3, [(2, 1), (1, 0)], directed=True)
        st = self._state()
        st.set_pair(1, 0, 1.0, 1)   # out-entry of 1
        st.set_pair(2, 1, 1.0, 1)   # out-entry of 2... rank[1] < rank[2]
        engine = DirectedRuleEngine(st, g, "minimized")
        cands = engine.doubling([(1, 0, 1.0, 1)])
        # (2 -> 1) is an out-entry of 2, reachable via rev_out[1]: Rule 2
        # concatenates to (2 -> 0, 2).
        assert cands.pairs.get((2, 0)) == (2.0, 2)

    def test_stepping_equals_doubling_on_first_round(self):
        # After initialization both modes see only 1-hop entries.
        g = Graph.from_edges(
            4, [(0, 1), (1, 2), (2, 3), (3, 0)], directed=True
        )
        res_step = make_builder(g, "stepping").build()
        res_double = make_builder(g, "doubling").build()
        assert label_lists(res_step.index) == label_lists(res_double.index)


class TestMinimizedEqualsFull:
    """Lemmas 3-4: the four simplified rules produce the same index."""

    @settings(max_examples=60, deadline=None)
    @given(graph_strategy(weighted=False))
    def test_final_indexes_identical_unweighted(self, g):
        for strategy in ("stepping", "doubling"):
            a = make_builder(g, strategy, rule_set="minimized").build().index
            b = make_builder(g, strategy, rule_set="full").build().index
            assert label_lists(a) == label_lists(b)

    @settings(max_examples=30, deadline=None)
    @given(graph_strategy(weighted=True))
    def test_queries_identical_weighted(self, g):
        """Weighted graphs may tie-break label sets differently, but
        query answers must agree everywhere."""
        a = make_builder(g, "stepping", rule_set="minimized").build().index
        b = make_builder(g, "stepping", rule_set="full").build().index
        for s in range(g.num_vertices):
            for t in range(g.num_vertices):
                assert a.query(s, t) == b.query(s, t)


class TestEntryInvariants:
    @settings(max_examples=40, deadline=None)
    @given(graph_strategy())
    def test_pivot_always_outranks_owner(self, g):
        result = make_builder(g, "hybrid").build()
        rank = result.ranking.rank_of
        idx = result.index
        for v in range(g.num_vertices):
            for pivot, _ in idx.out_label(v):
                assert pivot == v or rank[pivot] < rank[v]
            for pivot, _ in idx.in_label(v):
                assert pivot == v or rank[pivot] < rank[v]

    @settings(max_examples=40, deadline=None)
    @given(graph_strategy(weighted=False))
    def test_entry_distances_are_real_path_lengths(self, g):
        """Every label entry must be >= the true distance and correspond
        to an actual path (never an underestimate)."""
        from paper.baselines.apsp import APSPOracle

        truth = APSPOracle(g)
        result = make_builder(g, "hybrid").build()
        idx = result.index
        for v in range(g.num_vertices):
            for pivot, d in idx.out_label(v):
                assert d >= truth.query(v, pivot)
            for pivot, d in idx.in_label(v):
                assert d >= truth.query(pivot, v)
