"""Tests for the PLL baseline."""

from hypothesis import given, settings

from paper.baselines.apsp import APSPOracle
from paper.baselines.pll import build_pll
from repro.core.ranking import random_ranking
from repro.graphs.generators import glp_graph, path_graph, star_graph
from tests.conftest import graph_strategy


class TestPLLExactness:
    @settings(max_examples=40, deadline=None)
    @given(graph_strategy())
    def test_all_pairs_exact(self, g):
        truth = APSPOracle(g)
        index, _ = build_pll(g)
        for s in range(g.num_vertices):
            for t in range(g.num_vertices):
                assert index.query(s, t) == truth.query(s, t)

    @settings(max_examples=15, deadline=None)
    @given(graph_strategy())
    def test_exact_with_random_ranking(self, g):
        truth = APSPOracle(g)
        index, _ = build_pll(g, ranking=random_ranking(g, seed=3))
        for s in range(g.num_vertices):
            for t in range(g.num_vertices):
                assert index.query(s, t) == truth.query(s, t)


class TestPLLLabels:
    def test_star_labels_canonical(self):
        index, _ = build_pll(star_graph(5))
        # Center first in degree order: leaves get exactly {self, center}.
        for leaf in range(1, 6):
            assert dict(index.out_label(leaf)) == {leaf: 0.0, 0: 1.0}

    def test_pivots_outrank_owners(self):
        g = glp_graph(100, seed=7)
        index, _ = build_pll(g)
        rank = index.rank
        for v in range(g.num_vertices):
            for pivot, _ in index.out_labels[v]:
                assert pivot == v or rank[pivot] < rank[v]

    def test_path_graph_degree_ranking_degenerates(self):
        # Section 7's motivation, seen through PLL: a path has no hubs,
        # so degree ranking (ties by id) produces a near-quadratic
        # canonical cover — the pivot for a pair is just its smaller-id
        # endpoint.
        n = 64
        index, _ = build_pll(path_graph(n))
        assert index.total_entries() > n * n / 4

    def test_scale_free_labels_stay_small(self):
        # ...whereas on a scale-free graph of the same size the cover
        # is tiny (the Section 2 hitting-set story).
        g = glp_graph(64, m=1.5, seed=5)
        index, _ = build_pll(g)
        assert index.total_entries() < 64 * 12

    def test_build_seconds_reported(self):
        _, seconds = build_pll(glp_graph(50, seed=0))
        assert seconds >= 0.0
