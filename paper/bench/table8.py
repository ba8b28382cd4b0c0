"""Table 8: Hop-Doubling vs Hop-Stepping vs Hybrid.

Per dataset: indexing time and iteration count for the three
strategies.  The paper's findings, which the scaled reproduction
retains:

* pure Doubling explodes early on large/denser graphs (too many
  candidates; in the paper it never finished BTC/Skitter/wikiItaly);
* pure Stepping needs more iterations on high-diameter graphs;
* Hybrid matches Stepping early and Doubling late, achieving the best
  (or tied-best) time everywhere.

A long-diameter control (``path`` plus a sparse ring-of-rings) is added
to the dataset list because the scaled scale-free stand-ins all have
tiny diameters, which would hide the stepping-vs-doubling iteration
trade-off the paper's Table 8 shows on BTC/wikiItaly.
"""

from __future__ import annotations

from dataclasses import dataclass

from paper.bench.datasets import load_dataset, profile_names
from paper.bench.export import render_table
from paper.bench.metrics import run_with_budget
from repro.core.hybrid import make_builder
from repro.graphs.digraph import Graph
from repro.graphs.generators import cycle_graph, glp_graph

HEADERS = [
    "Graph",
    "t Double(s)",
    "t Step(s)",
    "t Hybrid(s)",
    "it Double",
    "it Step",
    "it Hybrid",
]

STRATEGIES = ("doubling", "stepping", "hybrid")


def long_diameter_graph(num_vertices: int = 600, seed: int = 5) -> Graph:
    """A scale-free graph grafted onto a long cycle.

    Mimics datasets like BTC whose diameter far exceeds the scale-free
    prediction: the GLP core keeps the degree skew while the cycle tail
    stretches the hop diameter to dozens of hops.
    """
    core = glp_graph(num_vertices // 2, seed=seed)
    tail = cycle_graph(num_vertices - num_vertices // 2)
    offset = core.num_vertices
    edges = [(u, v) for u, v, _ in core.edges()]
    edges += [(u + offset, v + offset) for u, v, _ in tail.edges()]
    edges.append((0, offset))  # graft the tail onto the hub side
    return Graph.from_edges(num_vertices, edges, directed=False)


@dataclass
class Table8Row:
    name: str
    seconds: dict[str, float | None]
    iterations: dict[str, int | None]

    def cells(self) -> list[object]:
        return [
            self.name,
            *(
                f"{self.seconds[s]:.2f}" if self.seconds[s] is not None else None
                for s in STRATEGIES
            ),
            *(self.iterations[s] for s in STRATEGIES),
        ]


@dataclass
class Table8:
    rows: list[Table8Row]

    def render(self) -> str:
        return render_table(
            HEADERS,
            [r.cells() for r in self.rows],
            title="Table 8 — Hop-Doubling vs Hop-Stepping vs Hybrid",
        )

    def to_csv(self, path) -> int:
        """Write the table as CSV; returns the row count."""
        from paper.bench.export import write_csv

        return write_csv(path, HEADERS, (r.cells() for r in self.rows))


def run_one(name: str, graph: Graph, budget: float | None = None) -> Table8Row:
    seconds: dict[str, float | None] = {}
    iterations: dict[str, int | None] = {}
    for strategy in STRATEGIES:
        result = run_with_budget(
            lambda: make_builder(graph, strategy).build(), budget
        )
        seconds[strategy] = result.build_seconds if result else None
        iterations[strategy] = result.num_iterations if result else None
    return Table8Row(name=name, seconds=seconds, iterations=iterations)


def run(profile: str = "quick", budget: float | None = 120.0) -> Table8:
    """Run the strategy comparison over a profile + the diameter control."""
    names = profile_names(profile)
    rows = [run_one(n, load_dataset(n), budget) for n in names]
    rows.append(run_one("long-diam", long_diameter_graph(), budget))
    return Table8(rows)


def main(profile: str = "quick") -> None:
    print(run(profile).render())


if __name__ == "__main__":
    main()
