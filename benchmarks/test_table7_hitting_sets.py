"""Table 7 — small hub dimension and hitting-set coverage.

Asserts the paper's Assumption-backing observations on every
quick-profile dataset:

* the average label size is a small constant relative to |V| (the
  O(h|V|) index bound with small h);
* label entries concentrate on top-ranked vertices far more than a
  uniform spread would (the hitting-set skew of Figure 8/Table 7).
"""

from __future__ import annotations

import pytest

from paper.bench.datasets import load_dataset, profile_names
from paper.bench.table7 import run_one
from paper.coverage import coverage_curve

QUICK = profile_names("quick")


@pytest.mark.parametrize("name", QUICK)
def test_table7_row(benchmark, name):
    row = benchmark.pedantic(run_one, args=(name,), rounds=1, iterations=1)
    graph = load_dataset(name)
    n = graph.num_vertices

    # Small hub dimension: average label a tiny fraction of |V|.
    assert row.avg_label < 0.15 * n

    # Coverage skew: 90% of entries covered by far fewer than 90% of
    # vertices; the three thresholds are ordered.
    assert row.top70 <= row.top80 <= row.top90
    assert row.top90 < 0.5

    # Termination: a handful of iterations (Theorems 4/6 at tiny
    # diameters).
    assert 1 <= row.iterations <= 20


def test_coverage_far_above_uniform(benchmark):
    """Top 10% of ranked vertices cover >> 10% of entries."""
    from repro.core.hybrid import HybridBuilder

    graph = load_dataset("skitter")

    def build_and_measure():
        index = HybridBuilder(graph).build().index
        return coverage_curve(index, [0.1])[0][1]

    coverage = benchmark.pedantic(build_and_measure, rounds=1, iterations=1)
    assert coverage > 0.4  # uniform would give 0.1
