"""Tests for the incremental-insertion extension."""

import pytest

from paper.baselines.apsp import APSPOracle
from repro.core.dynamic import DynamicHopDoublingIndex
from repro.core.hybrid import make_builder
from repro.graphs.digraph import Graph
from repro.graphs.generators import glp_graph, path_graph
from tests.conftest import random_graph


class TestBasicInsertion:
    def test_insert_shortcut_updates_distance(self):
        g = path_graph(6)
        dyn = DynamicHopDoublingIndex(g)
        assert dyn.query(0, 5) == 5.0
        assert dyn.insert_edge(0, 5)
        assert dyn.query(0, 5) == 1.0
        assert dyn.query(1, 5) == 2.0

    def test_insert_connects_components(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)], directed=False)
        dyn = DynamicHopDoublingIndex(g)
        assert dyn.query(0, 3) == float("inf")
        dyn.insert_edge(1, 2)
        assert dyn.query(0, 3) == 3.0

    def test_duplicate_insert_is_noop(self):
        g = path_graph(4)
        dyn = DynamicHopDoublingIndex(g)
        assert not dyn.insert_edge(0, 1)
        assert dyn.insertions == 0

    def test_self_loop_rejected_quietly(self):
        dyn = DynamicHopDoublingIndex(path_graph(3))
        assert not dyn.insert_edge(1, 1)

    def test_out_of_range_raises(self):
        dyn = DynamicHopDoublingIndex(path_graph(3))
        with pytest.raises(IndexError):
            dyn.insert_edge(0, 9)

    def test_directed_insert_is_one_way(self):
        g = Graph.from_edges(3, [(0, 1)], directed=True)
        dyn = DynamicHopDoublingIndex(g)
        dyn.insert_edge(1, 2)
        assert dyn.query(0, 2) == 2.0
        assert dyn.query(2, 0) == float("inf")


class TestExactnessAfterInsertions:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_full_rebuild(self, seed):
        import random

        rng = random.Random(seed)
        g = random_graph(seed, max_n=20, weighted=False)
        n = g.num_vertices
        dyn = DynamicHopDoublingIndex(g)
        for _ in range(6):
            dyn.insert_edge(rng.randrange(n), rng.randrange(n))
        truth = APSPOracle(dyn.graph)
        for s in range(n):
            for t in range(n):
                assert dyn.query(s, t) == truth.query(s, t)

    @pytest.mark.parametrize("seed", range(4))
    def test_weighted_insertions(self, seed):
        import random

        rng = random.Random(seed)
        g = random_graph(seed, max_n=15, weighted=True)
        n = g.num_vertices
        dyn = DynamicHopDoublingIndex(g)
        for _ in range(4):
            dyn.insert_edge(
                rng.randrange(n), rng.randrange(n), float(rng.randint(1, 5))
            )
        truth = APSPOracle(dyn.graph)
        for s in range(n):
            for t in range(n):
                assert dyn.query(s, t) == truth.query(s, t)

    def test_weight_validation(self):
        g = Graph.from_edges(2, [(0, 1, 1.0)], weighted=True)
        dyn = DynamicHopDoublingIndex(g)
        with pytest.raises(ValueError):
            dyn.insert_edge(1, 0, weight=0.0)


class TestCompaction:
    def test_compact_restores_canonical_size(self):
        # Build incrementally in random order, then compact: the label
        # count must match a from-scratch build of the final graph.
        g = glp_graph(60, seed=13)
        edges = [(u, v) for u, v, _ in g.edges()]
        base = Graph.from_edges(
            g.num_vertices, edges[: len(edges) // 2], directed=False
        )
        dyn = DynamicHopDoublingIndex(base, ranking="degree")
        for u, v in edges[len(edges) // 2:]:
            dyn.insert_edge(u, v)
        dyn.compact()
        rebuilt = make_builder(
            dyn.graph, "hybrid", ranking=dyn.ranking
        ).build().index
        assert dyn.snapshot().total_entries() == rebuilt.total_entries()

    def test_snapshot_queryable(self):
        g = path_graph(5)
        dyn = DynamicHopDoublingIndex(g)
        dyn.insert_edge(0, 4)
        snap = dyn.snapshot()
        assert snap.query(1, 4) == 2.0

    def test_repr(self):
        dyn = DynamicHopDoublingIndex(path_graph(3))
        assert "insertions=0" in repr(dyn)
