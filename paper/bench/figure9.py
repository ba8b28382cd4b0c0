"""Figure 9: scalability on synthetic GLP graphs.

Two sweeps over GLP-generated scale-free graphs:

* **(a)** fixed ``|V|``, density ``|E|/|V|`` growing — the paper grows
  2 -> 70 at |V| = 10M; the scaled run grows 2 -> 20 at a laptop |V|;
* **(b)** fixed density, ``|V|`` growing — the paper grows 2M -> 30M at
  density 20; the scaled run grows over an order of magnitude.

The reported series are graph size and the **average label entries per
vertex**; the paper's headline is that the average label size stays
small and flat ("approaches a flat value below 200") while the graph
grows linearly — the empirical form of the O(h|V|) index-size bound.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from paper.bench.export import render_table
from repro.core.hybrid import HybridBuilder
from repro.graphs.generators import glp_graph
from repro.utils.prettyprint import format_bytes

_GLP_P = 0.4695


def _scale() -> float:
    return float(os.environ.get("REPRO_SCALE", "1"))


@dataclass
class SweepPoint:
    x: float  # density for (a), |V| for (b)
    num_vertices: int
    num_edges: int
    graph_bytes: int
    avg_label: float
    iterations: int


@dataclass
class Figure9:
    label: str
    x_name: str
    points: list[SweepPoint]

    def render(self) -> str:
        headers = [self.x_name, "|V|", "|E|", "|G|", "avg |label|", "iters"]
        rows = [
            [
                f"{p.x:g}",
                p.num_vertices,
                p.num_edges,
                format_bytes(p.graph_bytes),
                f"{p.avg_label:.1f}",
                p.iterations,
            ]
            for p in self.points
        ]
        return render_table(headers, rows, title=self.label)


def _measure(num_vertices: int, density: float, seed: int, x: float) -> SweepPoint:
    m = max(0.3, density * (1.0 - _GLP_P))
    graph = glp_graph(num_vertices, m=m, seed=seed)
    result = HybridBuilder(graph).build()
    stats = result.index.stats()
    return SweepPoint(
        x=x,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        graph_bytes=graph.size_in_bytes(),
        avg_label=stats.avg_label_size,
        iterations=result.num_iterations,
    )


def run_density_sweep(
    num_vertices: int | None = None,
    densities: list[float] | None = None,
) -> Figure9:
    """Figure 9(a): fixed |V|, growing density."""
    if num_vertices is None:
        num_vertices = int(1000 * _scale())
    if densities is None:
        densities = [2, 5, 10, 15, 20]
    points = [
        _measure(num_vertices, d, seed=900 + i, x=d)
        for i, d in enumerate(densities)
    ]
    return Figure9(
        label=f"Figure 9(a) — density sweep at |V|={num_vertices}",
        x_name="|E|/|V|",
        points=points,
    )


def run_size_sweep(
    density: float = 10.0,
    sizes: list[int] | None = None,
) -> Figure9:
    """Figure 9(b): fixed density, growing |V|."""
    if sizes is None:
        base = int(250 * _scale())
        sizes = [base, base * 2, base * 4, base * 8]
    points = [
        _measure(n, density, seed=950 + i, x=n) for i, n in enumerate(sizes)
    ]
    return Figure9(
        label=f"Figure 9(b) — size sweep at |E|/|V|={density:g}",
        x_name="|V|",
        points=points,
    )


def main() -> None:
    print(run_density_sweep().render())
    print()
    print(run_size_sweep().render())


if __name__ == "__main__":
    main()
