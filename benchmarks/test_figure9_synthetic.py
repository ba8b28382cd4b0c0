"""Figure 9 — scalability on synthetic GLP graphs.

Asserts the paper's headline shape: as the graph grows (in density or
in vertex count) the **average label size stays nearly flat** — the
empirical O(h|V|) index bound — and iteration counts stay tiny.
"""

from __future__ import annotations

from paper.bench.figure9 import run_density_sweep, run_size_sweep


def test_density_sweep_label_flatness(benchmark):
    fig = benchmark.pedantic(
        lambda: run_density_sweep(num_vertices=800, densities=[2, 5, 10, 20]),
        rounds=1,
        iterations=1,
    )
    labels = [p.avg_label for p in fig.points]
    edges = [p.num_edges for p in fig.points]
    # Graph grew ~10x in edges...
    assert edges[-1] > 7 * edges[0]
    # ...but the average label grew far sublinearly (paper: flat).
    assert labels[-1] < 4 * labels[0]
    # And remains a small constant against |V|.
    assert labels[-1] < 0.1 * 800
    # Iterations stay in single digits.
    assert all(p.iterations <= 9 for p in fig.points)


def test_size_sweep_label_flatness(benchmark):
    fig = benchmark.pedantic(
        lambda: run_size_sweep(density=8.0, sizes=[200, 400, 800, 1600]),
        rounds=1,
        iterations=1,
    )
    labels = [p.avg_label for p in fig.points]
    # |V| grew 8x; avg label must grow far slower (paper: flat < 200).
    assert labels[-1] < 3 * labels[0]
    # Index stays linear-ish in |V|: total entries / |V| bounded.
    for p in fig.points:
        assert p.avg_label < 60


def test_graph_size_grows_linearly(benchmark):
    fig = benchmark.pedantic(
        lambda: run_size_sweep(density=8.0, sizes=[250, 500, 1000]),
        rounds=1,
        iterations=1,
    )
    sizes = [p.graph_bytes for p in fig.points]
    assert 1.5 * sizes[0] < sizes[1] < 3 * sizes[0]
    assert 1.5 * sizes[1] < sizes[2] < 3 * sizes[1]
