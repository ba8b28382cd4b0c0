"""Traversal correctness: BFS, Dijkstra, bidirectional variants."""

import pytest
from hypothesis import given, settings

from repro.graphs.digraph import Graph
from repro.graphs.generators import path_graph
from repro.graphs.traversal import (
    INF,
    bfs_distances,
    bidirectional_bfs,
    bidirectional_dijkstra,
    dijkstra_distances,
)
from tests.conftest import graph_strategy, random_graph


class TestBFS:
    def test_path_graph_distances(self):
        g = path_graph(5)
        assert bfs_distances(g, 0) == [0, 1, 2, 3, 4]

    def test_unreachable_is_inf(self):
        g = Graph.from_edges(3, [(0, 1)], directed=True)
        dist = bfs_distances(g, 0)
        assert dist[2] == INF

    def test_reverse_direction(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)], directed=True)
        assert bfs_distances(g, 2, reverse=True) == [2, 1, 0]

    def test_max_dist_truncates(self):
        g = path_graph(6)
        dist = bfs_distances(g, 0, max_dist=2)
        assert dist[2] == 2
        assert dist[3] == INF

    def test_invalid_source(self):
        g = path_graph(3)
        with pytest.raises(IndexError):
            bfs_distances(g, 5)


class TestDijkstra:
    def test_weighted_shortcut(self):
        # 0 -> 1 -> 2 costs 2; direct edge costs 5.
        g = Graph.from_edges(
            3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)], weighted=True,
            directed=True,
        )
        assert dijkstra_distances(g, 0) == [0.0, 1.0, 2.0]

    def test_matches_bfs_on_unweighted(self):
        g = random_graph(7, weighted=False)
        for s in range(min(5, g.num_vertices)):
            assert dijkstra_distances(g, s) == bfs_distances(g, s)

    def test_reverse(self):
        g = Graph.from_edges(
            3, [(0, 1, 2.0), (1, 2, 3.0)], weighted=True, directed=True
        )
        assert dijkstra_distances(g, 2, reverse=True) == [5.0, 3.0, 0.0]


class TestBidirectional:
    @settings(max_examples=40, deadline=None)
    @given(graph_strategy(weighted=False))
    def test_bibfs_matches_bfs(self, g):
        dist = bfs_distances(g, 0)
        for t in range(g.num_vertices):
            assert bidirectional_bfs(g, 0, t) == dist[t]

    @settings(max_examples=40, deadline=None)
    @given(graph_strategy(weighted=True))
    def test_bidijkstra_matches_dijkstra(self, g):
        dist = dijkstra_distances(g, 0)
        for t in range(g.num_vertices):
            assert bidirectional_dijkstra(g, 0, t) == dist[t]

    def test_same_vertex(self):
        g = path_graph(4)
        assert bidirectional_bfs(g, 2, 2) == 0.0
        assert bidirectional_dijkstra(g, 2, 2) == 0.0

    def test_disconnected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)], directed=False)
        assert bidirectional_bfs(g, 0, 3) == INF

    def test_directed_asymmetry(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)], directed=True)
        assert bidirectional_bfs(g, 0, 2) == 2.0
        assert bidirectional_bfs(g, 2, 0) == INF
