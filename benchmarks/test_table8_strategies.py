"""Table 8 — Hop-Doubling vs Hop-Stepping vs Hybrid.

Asserts the paper's strategy-comparison findings on scaled inputs:

* on small-diameter scale-free graphs the hybrid behaves exactly like
  stepping (the switch never fires) and doubling is the slowest;
* on a long-diameter graph the hybrid needs far fewer iterations than
  stepping (the paper: BTC 38 -> 14, wikiItaly 59 -> 15);
* all three strategies produce indexes answering identically.
"""

from __future__ import annotations

import pytest

from paper.bench.datasets import load_dataset
from paper.bench.table8 import long_diameter_graph
from repro.core.hybrid import make_builder

STRATEGIES = ("doubling", "stepping", "hybrid")


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_strategy_build_time(benchmark, strategy):
    graph = load_dataset("cat")
    result = benchmark.pedantic(
        lambda: make_builder(graph, strategy).build(), rounds=1, iterations=1
    )
    assert result.index.total_entries() > 0


def test_doubling_generates_more_candidates(benchmark):
    """The early candidate blow-up that motivates stepping."""
    graph = load_dataset("skitter")

    def measure():
        doubling = make_builder(graph, "doubling").build()
        stepping = make_builder(graph, "stepping").build()
        return doubling, stepping

    doubling, stepping = benchmark.pedantic(measure, rounds=1, iterations=1)
    d_cands = sum(it.distinct_generated for it in doubling.iterations)
    s_cands = sum(it.distinct_generated for it in stepping.iterations)
    assert d_cands > s_cands
    # Identical final index regardless of strategy.
    assert doubling.index.out_labels == stepping.index.out_labels


def test_hybrid_limits_iterations_on_long_diameter(benchmark):
    """The Table 8 BTC/wikiItaly effect, on the diameter-control graph."""
    graph = long_diameter_graph(500, seed=3)

    def measure():
        hybrid = make_builder(graph, "hybrid").build()
        stepping = make_builder(graph, "stepping").build()
        return hybrid, stepping

    hybrid, stepping = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert hybrid.num_iterations < stepping.num_iterations / 3
    # Answers agree on a sample.
    for s in range(0, 500, 41):
        for t in range(0, 500, 37):
            assert hybrid.index.query(s, t) == stepping.index.query(s, t)


def test_hybrid_matches_stepping_on_small_diameter(benchmark):
    graph = load_dataset("syn5")

    def measure():
        return (
            make_builder(graph, "hybrid").build(),
            make_builder(graph, "stepping").build(),
        )

    hybrid, stepping = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert hybrid.num_iterations == stepping.num_iterations
    assert hybrid.index.out_labels == stepping.index.out_labels
