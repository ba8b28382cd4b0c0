"""Tests for scale-free statistics (Section 2's measurable quantities)."""

import math

from repro.graphs.digraph import Graph
from repro.graphs.generators import glp_graph, grid_graph, path_graph, star_graph
from repro.graphs.stats import (
    degree_sequence,
    expansion_factor,
    hop_diameter,
    predicted_diameter,
    predicted_expansion,
    rank_exponent,
    summarize,
)


class TestDegreeStats:
    def test_sequence_sorted_descending(self):
        g = star_graph(3)
        assert degree_sequence(g) == [3, 1, 1, 1]

    def test_rank_exponent_scale_free(self):
        g = glp_graph(1000, seed=1)
        assert rank_exponent(g) < -0.5

    def test_rank_exponent_regular_graph_flat(self):
        g = grid_graph(15, 15)
        # Grid degrees are nearly constant: exponent close to zero.
        assert rank_exponent(g) > -0.2

    def test_rank_exponent_trivial(self):
        assert rank_exponent(Graph.from_edges(1, [])) == 0.0


class TestExpansion:
    def test_star_expansion_zero(self):
        # From the center everything is 1 hop; from leaves z2 covers the
        # other leaves -> nonzero; just check it computes and is finite.
        g = star_graph(5)
        r = expansion_factor(g)
        assert 0 <= r < 10

    def test_scale_free_expansion_near_log_n(self):
        g = glp_graph(2000, m=2.0, seed=3)
        r = expansion_factor(g, num_samples=128)
        predicted = predicted_expansion(2000)  # ~7.6
        assert 0.3 * predicted < r < 6 * predicted

    def test_empty_graph(self):
        assert expansion_factor(Graph.from_edges(0, [])) == 0.0


class TestHopDiameter:
    def test_path_graph_exact(self):
        assert hop_diameter(path_graph(17)) == 16

    def test_disconnected_ignores_inf(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)], directed=False)
        assert hop_diameter(g) == 1

    def test_sampled_mode_lower_bounds(self):
        g = path_graph(100)
        est = hop_diameter(g, exact_threshold=10, num_samples=8, seed=1)
        assert 50 <= est <= 99  # double sweep gets close on a path

    def test_scale_free_diameter_small(self):
        g = glp_graph(1000, seed=2)
        d = hop_diameter(g)
        # Equation 1 predicts log n / log log n ~ 3.6; allow slack.
        assert d <= 4 * predicted_diameter(1000)


class TestPredictions:
    def test_predicted_diameter_growth(self):
        assert predicted_diameter(10**6) > predicted_diameter(10**3)

    def test_predicted_diameter_tiny(self):
        assert predicted_diameter(2) == 1.0

    def test_predicted_expansion_is_log(self):
        assert abs(predicted_expansion(1000) - math.log(1000)) < 1e-9


class TestSummary:
    def test_summary_fields(self):
        g = glp_graph(300, seed=0)
        s = summarize(g)
        assert s.num_vertices == 300
        assert s.num_edges == g.num_edges
        assert s.max_degree == max(g.degree(v) for v in g.vertices())
        assert not s.directed
        assert not s.weighted
        assert s.size_bytes == g.size_in_bytes()

    def test_summary_row_renders(self):
        s = summarize(glp_graph(100, seed=0))
        row = s.as_row()
        assert len(row) == 5
        assert all(isinstance(cell, str) for cell in row)
