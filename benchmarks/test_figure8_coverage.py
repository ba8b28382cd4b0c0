"""Figure 8 — label coverage by top-ranked vertices.

The paper's curves jump to ~100% within the top 1% of vertices on
million-node graphs.  On thousand-node stand-ins the same skew is
visible at proportionally larger fractions (the top 1% is only ~10
vertices here); the benchmark asserts the scale-adjusted form:
coverage is strongly super-uniform and monotone, and the highest-ranked
single percent of vertices covers many times its uniform share.
"""

from __future__ import annotations

import pytest

from paper.bench.figure8 import DEFAULT_GRAPHS, FRACTIONS, run
from paper.coverage import coverage_curve


def test_figure8_curves(benchmark):
    fig = benchmark.pedantic(run, rounds=1, iterations=1)
    assert [c.name for c in fig.curves] == DEFAULT_GRAPHS
    for curve in fig.curves:
        values = [cov for _, cov in curve.points]
        # Monotone non-decreasing in the top-fraction.
        assert values == sorted(values)
        # Super-uniform: each point covers well above its uniform share.
        for (frac, cov) in curve.points:
            assert cov > 2.0 * frac
        # The top 1% already covers a disproportionate slice.
        one_percent = dict(curve.points)[0.01]
        assert one_percent > 0.1


@pytest.mark.parametrize("name", DEFAULT_GRAPHS)
def test_coverage_concentration_per_graph(benchmark, built_indexes, name):
    _, result = built_indexes(name)
    index = result.index

    curve = benchmark(lambda: coverage_curve(index, FRACTIONS))
    top10pct = coverage_curve(index, [0.10])[0][1]
    assert top10pct > 0.5  # uniform would give 0.10
    assert len(curve) == len(FRACTIONS)
