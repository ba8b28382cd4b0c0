"""Tests for the HCL-lite, BIDIJ and APSP baselines."""

import pytest
from hypothesis import given, settings

from paper.baselines.apsp import APSPOracle
from paper.baselines.bidij import BidirectionalSearchOracle
from paper.baselines.hcl import build_hcl
from repro.graphs.digraph import Graph
from repro.graphs.generators import glp_graph, path_graph, star_graph
from tests.conftest import graph_strategy


class TestHCLLite:
    @settings(max_examples=30, deadline=None)
    @given(graph_strategy())
    def test_all_pairs_exact(self, g):
        truth = APSPOracle(g)
        hcl = build_hcl(g, num_landmarks=4)
        for s in range(g.num_vertices):
            for t in range(g.num_vertices):
                assert hcl.query(s, t) == truth.query(s, t)

    def test_landmark_endpoints(self):
        g = star_graph(6)
        hcl = build_hcl(g, num_landmarks=1)  # the hub is the landmark
        assert hcl.landmarks == [0]
        assert hcl.query(0, 3) == 1.0
        assert hcl.query(2, 5) == 2.0

    def test_landmark_count_capped_by_n(self):
        g = path_graph(3)
        hcl = build_hcl(g, num_landmarks=50)
        assert len(hcl.landmarks) == 3

    def test_invalid_landmarks(self):
        with pytest.raises(ValueError):
            build_hcl(star_graph(2), num_landmarks=0)

    def test_size_scales_with_landmarks(self):
        g = glp_graph(100, seed=1)
        small = build_hcl(g, num_landmarks=2)
        big = build_hcl(g, num_landmarks=8)
        assert big.size_in_bytes() == 4 * small.size_in_bytes()

    def test_landmark_free_search_needed(self):
        # Two parallel paths, landmarks cover only one of them: the
        # local search must find the landmark-free shortcut.
        # 0-1-2 (via high-degree 1) and 0-3-2 with 3 low degree.
        g = Graph.from_edges(
            5, [(0, 1), (1, 2), (0, 3), (3, 2), (1, 4)], directed=False
        )
        hcl = build_hcl(g, num_landmarks=1)  # landmark = vertex 1
        assert hcl.landmarks == [1]
        assert hcl.query(0, 2) == 2.0  # found via either route
        assert hcl.query(3, 3) == 0.0


class TestBIDIJ:
    @settings(max_examples=25, deadline=None)
    @given(graph_strategy())
    def test_all_pairs_exact(self, g):
        truth = APSPOracle(g)
        oracle = BidirectionalSearchOracle(g)
        for s in range(g.num_vertices):
            for t in range(g.num_vertices):
                assert oracle.query(s, t) == truth.query(s, t)

    def test_no_index_footprint(self):
        oracle = BidirectionalSearchOracle(star_graph(4))
        assert oracle.size_in_bytes() == 0
        assert oracle.build_seconds == 0.0


class TestAPSP:
    def test_star_distances(self):
        oracle = APSPOracle(star_graph(4))
        assert oracle.query(1, 2) == 2.0
        assert oracle.query(0, 3) == 1.0

    def test_hop_diameter(self):
        assert APSPOracle(path_graph(9)).hop_diameter() == 8

    def test_all_pairs_iterator(self):
        oracle = APSPOracle(path_graph(3))
        triples = list(oracle.all_pairs())
        assert len(triples) == 9
        assert (0, 2, 2.0) in triples

    def test_table_size(self):
        oracle = APSPOracle(path_graph(4))
        assert oracle.size_in_bytes() == 4 * 4 * 8

    def test_distances_from_row(self):
        oracle = APSPOracle(path_graph(4))
        assert oracle.distances_from(0) == [0.0, 1.0, 2.0, 3.0]
