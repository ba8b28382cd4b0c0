"""Tests for the inverted label index (one-to-all and k-NN)."""

import pytest
from hypothesis import given, settings

from paper.baselines.apsp import APSPOracle
from repro.core.hybrid import make_builder
from repro.core.knn import InvertedLabelIndex
from repro.graphs.digraph import Graph
from repro.graphs.generators import glp_graph, path_graph, star_graph
from tests.conftest import graph_strategy


def _build(g):
    idx = make_builder(g, "hybrid").build().index
    return InvertedLabelIndex(idx)


class TestOneToAll:
    @settings(max_examples=30, deadline=None)
    @given(graph_strategy())
    def test_distances_from_matches_truth(self, g):
        truth = APSPOracle(g)
        inv = _build(g)
        for s in range(g.num_vertices):
            dist = inv.distances_from(s)
            for t in range(g.num_vertices):
                assert dist[t] == truth.query(s, t)

    @settings(max_examples=20, deadline=None)
    @given(graph_strategy(directed=True))
    def test_distances_to_matches_truth(self, g):
        truth = APSPOracle(g)
        inv = _build(g)
        for t in range(g.num_vertices):
            dist = inv.distances_to(t)
            for s in range(g.num_vertices):
                assert dist[s] == truth.query(s, t)

    def test_unreachable_is_inf(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)], directed=False)
        inv = _build(g)
        assert inv.distances_from(0)[3] == float("inf")


class TestKNN:
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_nearest_matches_bruteforce(self, k):
        g = glp_graph(120, seed=6)
        truth = APSPOracle(g)
        inv = _build(g)
        for s in range(0, 120, 17):
            got = inv.nearest(s, k)
            want = sorted(
                (truth.query(s, t), t)
                for t in range(120)
                if t != s and truth.query(s, t) != float("inf")
            )[:k]
            assert [d for d, _ in got] == [d for d, _ in want]

    def test_star_center_neighbours(self):
        g = star_graph(6)
        inv = _build(g)
        nn = inv.nearest(0, 3)
        assert all(d == 1.0 for d, _ in nn)

    def test_k_zero(self):
        inv = _build(path_graph(4))
        assert inv.nearest(0, 0) == []

    def test_k_larger_than_reachable(self):
        g = Graph.from_edges(4, [(0, 1)], directed=False)
        inv = _build(g)
        nn = inv.nearest(0, 10)
        assert nn == [(1.0, 1)]

    def test_include_self(self):
        inv = _build(path_graph(4))
        nn = inv.nearest(0, 2, include_self=True)
        assert nn[0] == (0.0, 0)

    def test_directed_knn(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (3, 0)], directed=True)
        inv = _build(g)
        nn = inv.nearest(0, 3)
        # 3 -> 0 must not appear (wrong direction).
        assert [v for _, v in nn] == [1, 2]


class TestStructure:
    def test_size_in_entries_matches_labels(self):
        g = glp_graph(80, seed=2)
        idx = make_builder(g, "hybrid").build().index
        inv = InvertedLabelIndex(idx)
        assert inv.size_in_entries() == idx.total_entries(include_trivial=True)

    def test_undirected_aliases_inversions(self):
        inv = _build(glp_graph(40, seed=1))
        assert inv.inverted_out is inv.inverted_in
