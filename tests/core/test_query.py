"""Tests for the query-side helpers."""

import pytest

from repro.core.hybrid import HybridBuilder
from repro.core.index import HopDoublingIndex
from repro.core.query import (
    closeness_centrality,
    distance_histogram,
    reconstruct_path,
)
from repro.graphs.digraph import Graph
from repro.graphs.generators import glp_graph, path_graph, star_graph
from repro.oracle.batch import evaluate_batch
from tests.conftest import random_graph


@pytest.fixture(scope="module")
def built():
    g = glp_graph(150, seed=10)
    idx = HybridBuilder(g).build().index
    return g, idx


class TestQueryMany:
    def test_order_preserved(self, built):
        g, idx = built
        pairs = [(0, 1), (5, 9), (2, 2)]
        assert evaluate_batch(idx, pairs) == [idx.query(*p) for p in pairs]

    def test_empty(self, built):
        _, idx = built
        assert evaluate_batch(idx, []) == []


class TestReachability:
    def test_connected_pair(self, built):
        g, _ = built
        assert HopDoublingIndex.build(g).is_reachable(0, 10)

    def test_disconnected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)], directed=False)
        assert not HopDoublingIndex.build(g).is_reachable(0, 3)

    def test_directed_one_way(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)], directed=True)
        idx = HopDoublingIndex.build(g)
        assert idx.is_reachable(0, 2)
        assert not idx.is_reachable(2, 0)


class TestPathReconstruction:
    @pytest.mark.parametrize("seed", range(8))
    def test_paths_are_valid_and_shortest(self, seed):
        g = random_graph(seed, max_n=25)
        idx = HybridBuilder(g).build().index
        n = g.num_vertices
        for s in range(0, n, 3):
            for t in range(0, n, 3):
                d = idx.query(s, t)
                path = reconstruct_path(idx, g, s, t)
                if d == float("inf"):
                    assert path is None
                    continue
                assert path[0] == s and path[-1] == t
                total = sum(
                    g.edge_weight(path[i], path[i + 1])
                    for i in range(len(path) - 1)
                )
                assert total == d

    def test_trivial_path(self, built):
        g, idx = built
        assert reconstruct_path(idx, g, 3, 3) == [3]

    def test_edge_path(self):
        g = path_graph(4)
        idx = HybridBuilder(g).build().index
        assert reconstruct_path(idx, g, 0, 3) == [0, 1, 2, 3]


class TestAnalytics:
    def test_closeness_star_center_highest(self):
        g = star_graph(10)
        idx = HybridBuilder(g).build().index
        targets = list(range(11))
        center = closeness_centrality(idx, 0, targets)
        leaf = closeness_centrality(idx, 1, targets)
        assert center > leaf

    def test_closeness_isolated_zero(self):
        g = Graph.from_edges(3, [(0, 1)], directed=False)
        idx = HybridBuilder(g).build().index
        assert closeness_centrality(idx, 2, [0, 1]) == 0.0

    def test_histogram_buckets(self):
        g = path_graph(4)
        idx = HybridBuilder(g).build().index
        hist = distance_histogram(idx, [(0, 1), (1, 2), (0, 2), (0, 3)])
        assert hist == {1.0: 2, 2.0: 1, 3.0: 1}
