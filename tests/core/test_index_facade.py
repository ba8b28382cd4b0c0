"""Tests for the public HopDoublingIndex facade."""

import pytest

from paper.baselines.apsp import APSPOracle
from repro import HopDoublingIndex, INF
from repro.graphs.digraph import Graph
from repro.graphs.generators import glp_graph


@pytest.fixture(scope="module")
def graph():
    return glp_graph(200, seed=20)


@pytest.fixture(scope="module")
def index(graph):
    return HopDoublingIndex.build(graph)


class TestBuildAndQuery:
    def test_default_build_exact(self, graph, index):
        truth = APSPOracle(graph)
        for s in range(0, graph.num_vertices, 7):
            for t in range(0, graph.num_vertices, 7):
                assert index.query(s, t) == truth.query(s, t)

    @pytest.mark.parametrize("strategy", ["stepping", "doubling", "hybrid"])
    def test_strategies_accepted(self, graph, strategy):
        idx = HopDoublingIndex.build(graph, strategy=strategy)
        assert idx.query(0, 1) == HopDoublingIndex.build(graph).query(0, 1)

    def test_reachability(self, index):
        assert index.is_reachable(0, 100)

    def test_query_path(self, graph, index):
        path = index.query_path(0, 50)
        assert path[0] == 0 and path[-1] == 50
        assert len(path) - 1 == index.query(0, 50)


class TestInspection:
    def test_num_vertices(self, graph, index):
        assert index.num_vertices == graph.num_vertices

    def test_iteration_stats_exposed(self, index):
        stats = index.iteration_stats
        assert len(stats) >= 1
        assert index.num_iterations >= 1

    def test_stats_and_size(self, index):
        s = index.stats()
        assert s.total_entries > 0
        assert index.size_in_bytes() > 0

    def test_repr(self, index):
        assert "HopDoublingIndex" in repr(index)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, graph, index):
        path = tmp_path / "facade.idx"
        index.save(path)
        loaded = HopDoublingIndex.load(path)
        for s in range(0, graph.num_vertices, 13):
            for t in range(0, graph.num_vertices, 13):
                assert loaded.query(s, t) == index.query(s, t)

    def test_loaded_index_has_no_history(self, tmp_path, index):
        path = tmp_path / "facade.idx"
        index.save(path)
        loaded = HopDoublingIndex.load(path)
        with pytest.raises(ValueError, match="loaded from disk"):
            _ = loaded.num_iterations
        with pytest.raises(ValueError, match="loaded from disk"):
            _ = loaded.iteration_stats

    def test_loaded_index_cannot_reconstruct_paths(self, tmp_path, index):
        path = tmp_path / "facade.idx"
        index.save(path)
        loaded = HopDoublingIndex.load(path)
        with pytest.raises(ValueError, match="graph"):
            loaded.query_path(0, 1)


class TestUnreachable:
    def test_inf_for_unreachable(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)], directed=False)
        idx = HopDoublingIndex.build(g)
        assert idx.query(0, 3) == INF
        assert not idx.is_reachable(0, 3)
