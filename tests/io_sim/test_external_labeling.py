"""The external builder must match the in-memory builders bit for bit,
and its I/O counters must behave like Section 4/5.3 predict."""

import pytest
from hypothesis import given, settings

from paper.baselines.apsp import APSPOracle
from paper.io_sim.diskmodel import DiskModel
from paper.io_sim.external_labeling import ExternalLabelingBuilder
from repro.core.hybrid import make_builder
from repro.graphs.generators import glp_graph
from tests.conftest import graph_strategy, random_graph

STRATEGIES = ("stepping", "doubling", "hybrid")


class TestBitIdentity:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @settings(max_examples=20, deadline=None)
    @given(graph_strategy())
    def test_labels_identical_to_inmemory(self, strategy, g):
        mem = make_builder(g, strategy, switch_iteration=3).build() \
            if strategy == "hybrid" else make_builder(g, strategy).build()
        ext = ExternalLabelingBuilder(
            g, DiskModel(256, 16), strategy=strategy, switch_iteration=3
        ).build()
        assert ext.index.out_labels == mem.index.out_labels
        assert ext.index.in_labels == mem.index.in_labels

    @pytest.mark.parametrize("seed", range(4))
    def test_queries_exact(self, seed):
        g = random_graph(seed, max_n=30)
        truth = APSPOracle(g)
        ext = ExternalLabelingBuilder(g, DiskModel(256, 16)).build()
        for s in range(g.num_vertices):
            for t in range(g.num_vertices):
                assert ext.index.query(s, t) == truth.query(s, t)

    def test_disk_backend_identical(self):
        g = glp_graph(120, seed=8)
        mem = make_builder(g, "hybrid").build()
        ext = ExternalLabelingBuilder(
            g, DiskModel(256, 16), backend="disk"
        ).build()
        assert ext.index.out_labels == mem.index.out_labels

    def test_iteration_counters_match_inmemory(self):
        g = glp_graph(150, seed=9)
        mem = make_builder(g, "hybrid").build()
        ext = ExternalLabelingBuilder(g, DiskModel(512, 16)).build()
        assert len(ext.iterations) == len(mem.iterations)
        for a, b in zip(ext.iterations, mem.iterations):
            assert a.stats.distinct_generated == b.distinct_generated
            assert a.stats.admitted == b.admitted
            assert a.stats.pruned == b.pruned
            assert a.stats.survived == b.survived


class TestIOAccounting:
    def test_every_iteration_charges_io(self):
        g = glp_graph(150, seed=2)
        ext = ExternalLabelingBuilder(g, DiskModel(256, 16)).build()
        for it in ext.iterations:
            assert it.io.total > 0

    def test_total_io_is_sum_plus_setup(self):
        g = glp_graph(100, seed=3)
        ext = ExternalLabelingBuilder(g, DiskModel(256, 16)).build()
        per_iter = sum(it.io.total for it in ext.iterations)
        assert ext.total_io.total >= per_iter

    def test_smaller_memory_means_more_io(self):
        """The M factor in O(|old|/M x scan(...)): shrinking memory
        must increase block traffic."""
        g = glp_graph(300, m=2.0, seed=5)
        small = ExternalLabelingBuilder(g, DiskModel(128, 16)).build()
        large = ExternalLabelingBuilder(g, DiskModel(8192, 16)).build()
        assert small.total_io.total > large.total_io.total
        # Identical output regardless of the budget.
        assert small.index.out_labels == large.index.out_labels

    def test_stepping_cheaper_per_iteration_than_doubling(self):
        """Doubling's inner loop scans the whole label file per outer
        batch; stepping joins the co-sorted edge file instead (the
        Section 5 motivation)."""
        g = glp_graph(300, m=2.0, seed=6)
        step = ExternalLabelingBuilder(
            g, DiskModel(256, 16), strategy="stepping"
        ).build()
        double = ExternalLabelingBuilder(
            g, DiskModel(256, 16), strategy="doubling"
        ).build()
        step_gen = max(it.io.reads for it in step.iterations)
        double_gen = max(it.io.reads for it in double.iterations)
        assert double_gen > step_gen

    def test_unknown_strategy_rejected(self):
        g = glp_graph(20, seed=0)
        with pytest.raises(ValueError):
            ExternalLabelingBuilder(g, strategy="warp")

    def test_num_iterations_counting(self):
        g = glp_graph(100, seed=4)
        mem = make_builder(g, "hybrid").build()
        ext = ExternalLabelingBuilder(g).build()
        assert ext.num_iterations == mem.num_iterations
