"""Tests for the Section 2.2 hitting-set machinery."""

from paper.hitting import (
    h_excluded_neighborhood,
    hub_dimension_estimate,
    max_excluded_neighborhood,
    verify_long_path_hitting,
)
from repro.graphs.digraph import Graph
from repro.graphs.generators import glp_graph, grid_graph, path_graph, star_graph


class TestLongPathHitting:
    def test_scale_free_hit_by_few_hubs(self):
        g = glp_graph(600, m=1.5, seed=3)
        report = verify_long_path_hitting(g, d0=4, num_pairs=60)
        assert report.assumption_holds
        if report.long_pairs:
            # Assumption 1: a small top-degree prefix suffices.
            assert report.h_needed <= 64

    def test_star_paths_hit_by_center(self):
        g = star_graph(30)
        # All 2-hop paths go through the hub; d0=2 makes them "long".
        report = verify_long_path_hitting(g, d0=2, num_pairs=40)
        assert report.long_pairs > 0
        assert report.h_needed == 1

    def test_path_graph_fails_assumption(self):
        # A long path has no hubs: paths of length >= 4 cannot all be
        # hit by any fixed small prefix of the (flat) degree order.
        g = path_graph(300)
        report = verify_long_path_hitting(
            g, d0=4, num_pairs=60, max_h=8, seed=1
        )
        assert report.long_pairs > 0
        assert report.h_needed is None

    def test_no_long_pairs(self):
        g = star_graph(5)  # diameter 2 < d0=4
        report = verify_long_path_hitting(g, d0=4, num_pairs=20)
        assert report.long_pairs == 0
        assert report.assumption_holds

    def test_tiny_graph(self):
        report = verify_long_path_hitting(Graph.from_edges(1, []))
        assert report.sampled_pairs == 0


class TestExcludedNeighborhood:
    def test_star_leaf_neighborhood_collapses_to_hub(self):
        g = star_graph(40)
        ne = h_excluded_neighborhood(g, 1, hub_set={0}, d0=3)
        # Every other leaf is reached through the hub, so Ne(leaf) is
        # just {hub}: the leaf's label only needs the hub.
        assert ne == {0}

    def test_without_hubs_neighborhood_is_ball(self):
        g = path_graph(9)
        ne = h_excluded_neighborhood(g, 4, hub_set=set(), d0=2)
        assert ne == {3, 5}  # radius-1 ball, nothing excluded

    def test_hub_exclusion_shrinks_neighborhood(self):
        g = glp_graph(300, m=2.0, seed=5)
        order = sorted(g.vertices(), key=lambda v: -g.degree(v))
        v = order[150]
        without = h_excluded_neighborhood(g, v, set(), d0=3)
        with_hubs = h_excluded_neighborhood(g, v, set(order[:16]), d0=3)
        assert len(with_hubs) <= len(without)

    def test_aggregate_probe(self):
        g = glp_graph(200, seed=2)
        avg, peak = max_excluded_neighborhood(g, num_hubs=8, num_samples=8)
        assert 0 <= avg <= peak <= g.num_vertices


class TestHubDimension:
    def test_star_hub_dimension_one(self):
        g = star_graph(25)
        assert hub_dimension_estimate(g, num_vertices_sampled=6) <= 2

    def test_scale_free_small(self):
        g = glp_graph(300, m=1.5, seed=7)
        assert hub_dimension_estimate(g) <= 10

    def test_grid_larger_than_star(self):
        grid = grid_graph(12, 12)
        star = star_graph(143)
        assert hub_dimension_estimate(grid, seed=3) >= hub_dimension_estimate(
            star, seed=3
        )

    def test_tiny_graph(self):
        assert hub_dimension_estimate(Graph.from_edges(2, [(0, 1)])) == 2


class TestAssumptionsDriver:
    def test_row_structure(self):
        from paper.bench.assumptions import AssumptionsTable, run_one

        g = glp_graph(200, seed=4)
        row = run_one("mini", g)
        assert row.diameter >= 1
        assert row.avg_label > 0
        table = AssumptionsTable([row])
        assert "Assumptions" in table.render()
