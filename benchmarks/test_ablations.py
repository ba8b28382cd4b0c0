"""Ablations of the paper's design choices.

Not a paper artifact per se, but each ablation isolates one design
decision Section 2/3/5 argues for and measures what it buys:

* pruning on/off — the Section 3.3 step is what keeps the index near
  the canonical size;
* ranking strategy — degree-aware orders vs a random control
  (Section 2's hitting-set argument);
* minimized vs full rule set — same output, less generation work
  (Lemmas 3-4's practical payoff);
* hybrid switch point — early vs late switching (Section 5.4);
* bit-parallel post-processing — entry-count reduction (Section 6).
"""

from __future__ import annotations

import pytest

from paper.bench.datasets import load_dataset
from paper.bitparallel import add_bitparallel
from repro.core.hybrid import HybridBuilder, make_builder


def test_pruning_ablation(benchmark):
    """Without pruning the index inflates several-fold."""
    graph = load_dataset("syn5")

    def measure():
        pruned = make_builder(graph, "stepping").build()
        unpruned = make_builder(graph, "stepping", prune=False).build()
        return pruned, unpruned

    pruned, unpruned = benchmark.pedantic(measure, rounds=1, iterations=1)
    ratio = unpruned.index.total_entries() / pruned.index.total_entries()
    assert ratio > 2.0
    # Queries agree either way (Theorem 1).
    n = graph.num_vertices
    for s in range(0, n, 83):
        for t in range(0, n, 97):
            assert pruned.index.query(s, t) == unpruned.index.query(s, t)


def test_ranking_ablation(benchmark):
    """Degree-aware rankings beat the random control by a wide margin."""
    graph = load_dataset("enron")

    def measure():
        return {
            name: make_builder(graph, "hybrid", ranking=name).build()
            for name in ("degree", "betweenness", "random")
        }

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    degree = results["degree"].index.total_entries()
    random_ = results["random"].index.total_entries()
    betweenness = results["betweenness"].index.total_entries()
    assert degree < 0.5 * random_
    # The sampled-hitting heuristic lands between degree and random.
    assert degree <= betweenness <= random_


def test_rule_set_ablation(benchmark):
    """Minimized rules: identical index, strictly less generation."""
    graph = load_dataset("slashdot")

    def measure():
        return (
            make_builder(graph, "doubling", rule_set="minimized").build(),
            make_builder(graph, "doubling", rule_set="full").build(),
        )

    minimized, full = benchmark.pedantic(measure, rounds=1, iterations=1)
    assert minimized.index.out_labels == full.index.out_labels
    raw_min = sum(it.raw_generated for it in minimized.iterations)
    raw_full = sum(it.raw_generated for it in full.iterations)
    assert raw_min < raw_full


@pytest.mark.parametrize("switch", [2, 5, 10])
def test_hybrid_switch_point(benchmark, switch):
    """Any switch point yields the same answers; earlier switches trade
    candidate volume for fewer iterations on long-diameter graphs."""
    from paper.bench.table8 import long_diameter_graph

    graph = long_diameter_graph(300, seed=7)
    result = benchmark.pedantic(
        lambda: HybridBuilder(graph, switch_iteration=switch).build(),
        rounds=1,
        iterations=1,
    )
    reference = HybridBuilder(graph, switch_iteration=5).build()
    for s in range(0, 300, 37):
        for t in range(0, 300, 41):
            assert result.index.query(s, t) == reference.index.query(s, t)
    # Earlier switch -> fewer total iterations.
    if switch == 2:
        assert result.num_iterations <= reference.num_iterations


def test_bitparallel_ablation(benchmark):
    """Section 6: 50 roots absorb the vast majority of normal entries."""
    graph = load_dataset("cat")
    index = make_builder(graph, "hybrid").build().index

    bp = benchmark.pedantic(
        lambda: add_bitparallel(graph, index, num_roots=50),
        rounds=1,
        iterations=1,
    )
    absorbed = 1.0 - bp.normal.total_entries() / index.total_entries()
    assert absorbed > 0.7
    # Exactness spot-check.
    n = graph.num_vertices
    for s in range(0, n, 71):
        for t in range(0, n, 89):
            assert bp.query(s, t) == index.query(s, t)


def test_external_memory_budget_sweep(benchmark):
    """Section 5.3's I/O shape: block traffic grows as memory shrinks,
    output stays identical."""
    from paper.io_sim.diskmodel import DiskModel
    from paper.io_sim.external_labeling import ExternalLabelingBuilder

    graph = load_dataset("enron")

    def sweep():
        out = {}
        for m in (128, 512, 4096):
            result = ExternalLabelingBuilder(graph, DiskModel(m, 16)).build()
            out[m] = result
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    ios = [results[m].total_io.total for m in (128, 512, 4096)]
    assert ios[0] > ios[1] > ios[2]
    labels = [results[m].index.out_labels for m in (128, 512, 4096)]
    assert labels[0] == labels[1] == labels[2]
