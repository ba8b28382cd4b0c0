"""Builder-level behaviour: construction options, stats, results."""

import pytest

from repro.core.hop_doubling import HopDoubling, LabelingBuilder
from repro.core.hop_stepping import HopStepping
from repro.core.hybrid import HybridBuilder, make_builder
from repro.core.ranking import Ranking
from repro.graphs.digraph import Graph
from repro.graphs.generators import glp_graph, path_graph, star_graph


class TestBuilderOptions:
    def test_unknown_strategy_rejected(self):
        g = star_graph(3)
        with pytest.raises(ValueError, match="unknown strategy"):
            make_builder(g, "teleport")

    def test_ranking_size_mismatch_rejected(self):
        g = star_graph(3)
        with pytest.raises(ValueError, match="ranking covers"):
            HopStepping(g, ranking=Ranking.from_order([0, 1]))

    def test_base_class_mode_abstract(self):
        g = star_graph(2)
        with pytest.raises(NotImplementedError):
            LabelingBuilder(g).build()

    def test_invalid_switch_iteration(self):
        g = star_graph(2)
        with pytest.raises(ValueError):
            HybridBuilder(g, switch_iteration=0)

    def test_builder_names(self):
        g = star_graph(2)
        assert HopDoubling(g).name == "hop-doubling"
        assert HopStepping(g).name == "hop-stepping"
        assert HybridBuilder(g).name == "hybrid"


class TestModeSchedule:
    def test_doubling_always_doubles(self):
        g = star_graph(2)
        b = HopDoubling(g)
        assert all(b.mode_for(i) == "double" for i in range(2, 30))

    def test_stepping_always_steps(self):
        g = star_graph(2)
        b = HopStepping(g)
        assert all(b.mode_for(i) == "step" for i in range(2, 30))

    def test_hybrid_switches_after_default_10(self):
        g = star_graph(2)
        b = HybridBuilder(g)
        assert b.mode_for(10) == "step"
        assert b.mode_for(11) == "double"

    def test_hybrid_custom_switch(self):
        g = star_graph(2)
        b = HybridBuilder(g, switch_iteration=3)
        assert b.mode_for(3) == "step"
        assert b.mode_for(4) == "double"


class TestBuildResult:
    def test_iteration_stats_consistency(self):
        g = glp_graph(150, seed=6)
        result = HopStepping(g).build()
        for it in result.iterations:
            assert it.admitted == it.pruned + it.survived
            assert it.distinct_generated >= it.admitted
            assert it.raw_generated >= it.distinct_generated
            assert 0.0 <= it.pruning_factor <= 1.0

    def test_num_iterations_counts_init(self):
        # A single-edge graph: init covers everything; one empty round.
        g = Graph.from_edges(2, [(0, 1)], directed=True)
        result = HopStepping(g).build()
        assert result.num_iterations == 1

    def test_build_seconds_positive(self):
        g = glp_graph(100, seed=1)
        result = HybridBuilder(g).build()
        assert result.build_seconds > 0

    def test_result_query_passthrough(self):
        g = path_graph(5)
        result = HybridBuilder(g).build()
        assert result.query(0, 4) == 4.0

    def test_total_entries_monotone_nondecreasing(self):
        g = glp_graph(200, seed=3)
        result = HopStepping(g).build()
        sizes = [it.total_entries for it in result.iterations]
        assert sizes == sorted(sizes)


class TestFinalExhaustivePrune:
    def test_doubling_with_final_sweep_matches_stepping_size(self):
        """Section 5.2: 'by exhaustive pruning, the label size is the
        same as that of Hop-Stepping'."""
        g = glp_graph(120, seed=12)
        stepping = HopStepping(g).build().index
        doubling = HopDoubling(g, final_exhaustive_prune=True).build().index
        assert doubling.total_entries() == stepping.total_entries()


class TestEmptyAndTinyGraphs:
    def test_empty_graph(self):
        g = Graph.from_edges(0, [])
        result = HybridBuilder(g).build()
        assert result.index.n == 0

    def test_single_vertex(self):
        g = Graph.from_edges(1, [])
        result = HybridBuilder(g).build()
        assert result.index.query(0, 0) == 0.0

    def test_no_edges(self):
        g = Graph.from_edges(5, [])
        result = HybridBuilder(g).build()
        assert result.index.query(0, 4) == float("inf")
        assert result.num_iterations == 1

    def test_isolated_vertices_mixed_in(self):
        g = Graph.from_edges(5, [(0, 1)], directed=False)
        idx = HybridBuilder(g).build().index
        assert idx.query(0, 1) == 1.0
        assert idx.query(2, 3) == float("inf")


class TestOptionRefusals:
    """A bad ``rule_set`` or ``strategy`` is refused before any work."""

    def test_builder_refuses_rule_set_at_construction(self, monkeypatch):
        from repro.core import hop_doubling

        def never(*args, **kwargs):
            raise AssertionError("ranked before the rule_set was checked")

        monkeypatch.setattr(hop_doubling, "make_ranking", never)
        with pytest.raises(ValueError, match="unknown rule_set"):
            HybridBuilder(star_graph(3), rule_set="bogus")

    @pytest.mark.parametrize(
        "option, match",
        [({"rule_set": "bogus"}, "unknown rule_set"),
         ({"strategy": "bogus"}, "unknown strategy")],
    )
    def test_index_build_refuses_before_ranking(self, monkeypatch, option, match):
        from repro.core import index

        def never(*args, **kwargs):
            raise AssertionError("ranked before the options were checked")

        monkeypatch.setattr(index, "make_ranking", never)
        with pytest.raises(ValueError, match=match):
            index.HopDoublingIndex.build(glp_graph(200, seed=1), **option)
