"""Tests for the IS-Label baseline."""

import pytest
from hypothesis import given, settings

from paper.baselines.apsp import APSPOracle
from paper.baselines.islabel import build_islabel
from repro.graphs.generators import glp_graph, path_graph
from tests.conftest import graph_strategy, random_graph


class TestFullIndexMode:
    @settings(max_examples=30, deadline=None)
    @given(graph_strategy())
    def test_all_pairs_exact(self, g):
        truth = APSPOracle(g)
        isl = build_islabel(g)
        assert isl.is_full_index
        for s in range(g.num_vertices):
            for t in range(g.num_vertices):
                assert isl.query(s, t) == truth.query(s, t)

    def test_no_residual_in_full_mode(self):
        isl = build_islabel(glp_graph(60, seed=1))
        assert isl.residual_vertices == set()
        assert isl.residual_out is None

    @settings(max_examples=15, deadline=None)
    @given(graph_strategy(max_n=16))
    def test_unpruned_also_exact(self, g):
        truth = APSPOracle(g)
        isl = build_islabel(g, prune=False)
        for s in range(g.num_vertices):
            for t in range(g.num_vertices):
                assert isl.query(s, t) == truth.query(s, t)

    def test_pruning_shrinks_labels(self):
        g = glp_graph(120, seed=5)
        pruned = build_islabel(g, prune=True)
        unpruned = build_islabel(g, prune=False)
        assert (
            pruned.labels.total_entries() <= unpruned.labels.total_entries()
        )


class TestPartialMode:
    @pytest.mark.parametrize("levels", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(5))
    def test_residual_mode_exact(self, levels, seed):
        g = random_graph(seed, max_n=25)
        truth = APSPOracle(g)
        isl = build_islabel(g, max_levels=levels)
        for s in range(g.num_vertices):
            for t in range(g.num_vertices):
                assert isl.query(s, t) == truth.query(s, t)

    def test_residual_exists_with_level_cap(self):
        g = glp_graph(80, seed=2)
        isl = build_islabel(g, max_levels=1)
        assert not isl.is_full_index
        assert len(isl.residual_vertices) > 0

    def test_residual_counts_in_size(self):
        """The paper's criticism: G_k must be loaded for querying, so it
        belongs in the index footprint."""
        g = glp_graph(80, seed=2)
        partial = build_islabel(g, max_levels=1)
        assert partial.size_in_bytes() > partial.labels.size_in_bytes()


class TestHierarchy:
    def test_levels_assigned(self):
        g = path_graph(10)
        isl = build_islabel(g)
        assert all(lvl >= 1 for lvl in isl.levels)
        assert max(isl.levels) >= 2  # a path needs several peels

    def test_independent_set_is_independent(self):
        # Level-1 vertices must form an independent set of the original
        # graph (no two adjacent).
        g = glp_graph(100, seed=3)
        isl = build_islabel(g)
        level1 = {v for v in g.vertices() if isl.levels[v] == 1}
        for u, v, _ in g.edges():
            assert not (u in level1 and v in level1)

    def test_labels_bigger_than_hopdb(self):
        """The paper's headline comparison: IS-Label's weaker pruning
        yields larger labels than HopDb on scale-free graphs."""
        from repro.core.hybrid import make_builder

        g = glp_graph(200, seed=11)
        isl = build_islabel(g)
        hop = make_builder(g, "hybrid").build().index
        assert isl.labels.total_entries() >= hop.total_entries()
