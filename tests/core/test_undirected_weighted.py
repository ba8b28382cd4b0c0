"""Section 7 adaptations: undirected and weighted graphs."""

from hypothesis import given, settings

from paper.baselines.apsp import APSPOracle
from repro.core.hybrid import make_builder
from repro.graphs.digraph import Graph
from repro.graphs.generators import glp_graph, grid_graph
from tests.conftest import graph_strategy


class TestUndirectedSingleLabel:
    """Undirected graphs use one label per vertex; the frozen store
    aliases in/out sides."""

    def test_label_sides_alias(self):
        g = glp_graph(80, seed=1)
        idx = make_builder(g, "hybrid").build().index
        assert idx.in_offsets is idx.out_offsets
        assert idx.in_pivots is idx.out_pivots
        assert idx.in_dists is idx.out_dists

    def test_symmetry_of_queries(self):
        g = glp_graph(120, seed=2)
        idx = make_builder(g, "hybrid").build().index
        for s in range(0, 120, 7):
            for t in range(0, 120, 11):
                assert idx.query(s, t) == idx.query(t, s)

    @settings(max_examples=40, deadline=None)
    @given(graph_strategy(directed=False))
    def test_exact_all_strategies(self, g):
        truth = APSPOracle(g)
        for strategy in ("stepping", "doubling", "hybrid"):
            idx = make_builder(g, strategy).build().index
            for s in range(g.num_vertices):
                for t in range(g.num_vertices):
                    assert idx.query(s, t) == truth.query(s, t)

    def test_undirected_smaller_than_directed_encoding(self):
        """Treating an undirected graph as bidirected must not beat the
        native single-label mode by much; the single-label mode stores
        roughly half the entries."""
        g = glp_graph(150, seed=3)
        und = make_builder(g, "hybrid").build().index
        bidirected = Graph.from_edges(
            g.num_vertices,
            [(u, v) for u, v, _ in g.edges()]
            + [(v, u) for u, v, _ in g.edges()],
            directed=True,
        )
        dire = make_builder(bidirected, "hybrid").build().index
        assert und.total_entries() < dire.total_entries()
        # And they agree on answers.
        for s in range(0, 150, 13):
            for t in range(0, 150, 17):
                assert und.query(s, t) == dire.query(s, t)


class TestWeighted:
    def test_weighted_shortcut_beats_hopcount(self):
        # 0-1-2 with weights 1+1 beats the direct heavy edge 0-2.
        g = Graph.from_edges(
            3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)], weighted=True,
            directed=False,
        )
        idx = make_builder(g, "hybrid").build().index
        assert idx.query(0, 2) == 2.0

    def test_heavier_but_shorter_hop_path(self):
        # Direct edge wins when lighter.
        g = Graph.from_edges(
            3, [(0, 1, 5.0), (1, 2, 5.0), (0, 2, 3.0)], weighted=True,
            directed=False,
        )
        idx = make_builder(g, "hybrid").build().index
        assert idx.query(0, 2) == 3.0

    @settings(max_examples=40, deadline=None)
    @given(graph_strategy(weighted=True))
    def test_exact_weighted(self, g):
        truth = APSPOracle(g)
        idx = make_builder(g, "hybrid").build().index
        for s in range(g.num_vertices):
            for t in range(g.num_vertices):
                assert idx.query(s, t) == truth.query(s, t)

    def test_iterations_bounded_by_hop_diameter_weighted(self):
        """Stepping on weighted graphs converges within the maximum hop
        count over all shortest paths (which may exceed the unweighted
        diameter)."""
        # Chain of cheap edges parallel to one expensive edge: the
        # cheap chain is the shortest path with many hops.
        edges = [(i, i + 1, 1.0) for i in range(8)] + [(0, 8, 100.0)]
        g = Graph.from_edges(9, edges, weighted=True, directed=False)
        result = make_builder(g, "stepping").build()
        assert result.index.query(0, 8) == 8.0
        assert result.num_iterations <= 8

    def test_fractional_weights(self):
        g = Graph.from_edges(
            4,
            [(0, 1, 0.5), (1, 2, 0.25), (2, 3, 0.125)],
            weighted=True,
            directed=False,
        )
        idx = make_builder(g, "hybrid").build().index
        assert idx.query(0, 3) == 0.875


class TestNonScaleFreeGraphs:
    """Section 7: the algorithms stay exact on road-like graphs."""

    def test_grid_exact(self):
        g = grid_graph(8, 8)
        truth = APSPOracle(g)
        idx = make_builder(g, "hybrid").build().index
        for s in range(0, 64, 5):
            for t in range(64):
                assert idx.query(s, t) == truth.query(s, t)

    def test_grid_betweenness_ranking_no_worse_than_random(self):
        from repro.core.ranking import make_ranking

        g = grid_graph(9, 9)
        by_bet = make_builder(
            g, "hybrid", ranking=make_ranking(g, "betweenness", num_samples=30)
        ).build().index
        by_rand = make_builder(g, "hybrid", ranking="random").build().index
        assert by_bet.total_entries() <= by_rand.total_entries()
