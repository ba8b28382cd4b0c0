"""Tests for the benchmark substrate: datasets, workloads, metrics."""

import time

import pytest

from paper.bench.datasets import (
    DATASETS,
    DENSITY_CAP,
    dataset_by_name,
    load_dataset,
    profile_names,
)
from paper.bench.metrics import run_with_budget, time_queries
from paper.bench.workloads import random_pairs, reachable_pairs, stratified_pairs
from repro.graphs.generators import glp_graph
from repro.graphs.traversal import INF, bfs_distances


class TestDatasets:
    def test_catalog_covers_all_paper_rows(self):
        # The paper's Table 6 has 27 datasets across four categories
        # (8 undirected unweighted, 9 directed, 6 synthetic, 4 weighted).
        assert len(DATASETS) == 27
        categories = {spec.paper_category for spec in DATASETS}
        assert categories == {
            "undirected unweighted",
            "directed unweighted",
            "synthetic",
            "undirected weighted",
        }

    def test_profiles(self):
        quick = profile_names("quick")
        full = profile_names("full")
        assert set(quick) <= set(full)
        assert len(full) == 27
        assert 5 <= len(quick) <= 10

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            profile_names("gigantic")

    def test_lookup(self):
        spec = dataset_by_name("enron")
        assert spec.paper_category == "undirected unweighted"
        with pytest.raises(ValueError):
            dataset_by_name("nope")

    def test_density_capped(self):
        spec = dataset_by_name("delicious")  # paper density ~113
        assert spec.paper_density > DENSITY_CAP
        assert spec.density == DENSITY_CAP

    def test_load_is_deterministic_and_matches_spec(self):
        g1 = load_dataset("enron")
        g2 = load_dataset("enron")
        assert g1 is g2  # lru-cached
        spec = dataset_by_name("enron")
        assert g1.num_vertices == spec.num_vertices()
        assert g1.directed == spec.directed
        assert g1.weighted == spec.weighted

    def test_directed_dataset(self):
        g = load_dataset("slashdot")
        assert g.directed

    def test_weighted_dataset(self):
        g = load_dataset("movrating")
        assert g.weighted
        assert all(1.0 <= w <= 10.0 for _, _, w in g.edges())

    def test_density_approximates_spec(self):
        spec = dataset_by_name("cat")
        g = load_dataset("cat")
        assert 0.4 * spec.density <= g.density <= 1.6 * spec.density


class TestWorkloads:
    def test_random_pairs_properties(self):
        pairs = random_pairs(100, 50, seed=1)
        assert len(pairs) == 50
        assert all(s != t and 0 <= s < 100 and 0 <= t < 100 for s, t in pairs)

    def test_random_pairs_deterministic(self):
        assert random_pairs(50, 20, seed=3) == random_pairs(50, 20, seed=3)

    def test_random_pairs_tiny_graph(self):
        assert random_pairs(1, 10) == []

    def test_reachable_pairs_are_reachable(self):
        g = glp_graph(120, seed=4, directed=True)
        pairs = reachable_pairs(g, 40, seed=2)
        assert len(pairs) > 0
        for s, t in pairs:
            assert bfs_distances(g, s)[t] != INF

    def test_stratified_buckets(self):
        g = glp_graph(200, seed=5)
        buckets = stratified_pairs(g, per_bucket=5, seed=1)
        for (lo, hi), pairs in buckets.items():
            for s, t in pairs:
                d = bfs_distances(g, s)[t]
                assert lo <= d <= hi


class TestMetrics:
    def test_time_queries(self):
        calls = []

        def fake_query(s, t):
            calls.append((s, t))
            return 1.0

        timing = time_queries(fake_query, [(0, 1), (1, 2)])
        assert timing.queries == 2
        assert timing.avg_micros >= 0.0
        # warm pass + timed pass
        assert len(calls) == 4

    def test_run_with_budget_completes(self):
        assert run_with_budget(lambda: 42, seconds=5.0) == 42

    def test_run_with_budget_times_out(self):
        def slow():
            time.sleep(2.0)
            return "done"

        assert run_with_budget(slow, seconds=0.05) is None

    def test_run_with_budget_disabled(self):
        assert run_with_budget(lambda: "x", seconds=None) == "x"
