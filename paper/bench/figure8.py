"""Figure 8: label coverage by top-ranked vertices.

The paper plots, for three graph families (BTC/Skitter;
wikiEng/wikiTalk/EuAll; syn1/syn2/syn5), the percentage of label
entries covered by the top x% of ranked vertices for x in (0, 1].  The
curves shoot up to ~100% within the top 1% — the visual form of the
small-hitting-set assumption.

This driver reproduces the series on the scaled stand-ins and renders
them as aligned columns (one row per x) — a textual version of the
plot, plus the raw points for the pytest-benchmark assertions.
"""

from __future__ import annotations

from dataclasses import dataclass

from paper.bench.datasets import load_dataset
from paper.bench.export import render_table
from paper.coverage import coverage_curve
from repro.core.hybrid import HybridBuilder

#: Fractions of top vertices probed (the paper's x axis, 0..1%).
FRACTIONS = [0.001, 0.002, 0.004, 0.006, 0.008, 0.01, 0.02, 0.05, 0.1]

#: The graphs whose curves the paper overlays.
DEFAULT_GRAPHS = ["skitter", "wikieng", "syn5"]


@dataclass
class CoverageCurve:
    name: str
    points: list[tuple[float, float]]  # (top fraction, coverage fraction)


@dataclass
class Figure8:
    curves: list[CoverageCurve]

    def render(self) -> str:
        headers = ["top vertices"] + [c.name for c in self.curves]
        rows = []
        for i, frac in enumerate(FRACTIONS):
            row: list[object] = [f"{frac * 100:.1f}%"]
            for curve in self.curves:
                row.append(f"{curve.points[i][1] * 100:.1f}%")
            rows.append(row)
        return render_table(
            headers, rows, title="Figure 8 — label coverage by top ranked vertices"
        )


def run(graph_names: list[str] | None = None) -> Figure8:
    """Compute the coverage curves for the requested datasets."""
    names = graph_names if graph_names is not None else DEFAULT_GRAPHS
    curves = []
    for name in names:
        graph = load_dataset(name)
        index = HybridBuilder(graph).build().index
        curves.append(
            CoverageCurve(name=name, points=coverage_curve(index, FRACTIONS))
        )
    return Figure8(curves)


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
