"""Assumption verification table (Section 2.2, Assumptions 1-3).

Not a numbered artifact in the paper, but the paper repeatedly appeals
to three measurable assumptions and claims its experiments "strongly
support" them.  This driver prints, per dataset:

* the measured hop diameter vs. Equation 1's prediction;
* the expansion factor vs. Equation 2's ``log |V|``;
* Assumption 1: the smallest top-degree prefix ``h`` hitting all
  sampled long (>= d0 hops) shortest paths;
* Assumption 2: average/max ``|Ne(v)|`` (H-excluded neighbourhood);
* Assumption 3: the greedy hub-dimension estimate;
* the average label size the index actually achieved — the quantity
  the assumptions are supposed to bound.

A grid "road network" row is appended as the negative control: the
assumptions visibly fail there (large h, large ``Ne``), matching
Section 7's warning.
"""

from __future__ import annotations

from dataclasses import dataclass

from paper.bench.datasets import load_dataset, profile_names
from paper.bench.export import render_table
from paper.hitting import (
    DEFAULT_D0,
    hub_dimension_estimate,
    max_excluded_neighborhood,
    verify_long_path_hitting,
)
from repro.core.hybrid import HybridBuilder
from repro.graphs.digraph import Graph
from repro.graphs.generators import grid_graph
from repro.graphs.stats import (
    expansion_factor,
    hop_diameter,
    predicted_diameter,
    predicted_expansion,
)

HEADERS = [
    "Graph",
    "D_H",
    "D_pred",
    "R",
    "R_pred",
    "h (A1)",
    "avg|Ne| (A2)",
    "max|Ne|",
    "hubdim (A3)",
    "avg |label|",
]


@dataclass
class AssumptionRow:
    name: str
    diameter: int
    diameter_pred: float
    expansion: float
    expansion_pred: float
    h_needed: int | None
    ne_avg: float
    ne_max: int
    hub_dim: int
    avg_label: float

    def cells(self) -> list[object]:
        return [
            self.name,
            self.diameter,
            f"{self.diameter_pred:.1f}",
            f"{self.expansion:.1f}",
            f"{self.expansion_pred:.1f}",
            self.h_needed,
            f"{self.ne_avg:.1f}",
            self.ne_max,
            self.hub_dim,
            f"{self.avg_label:.1f}",
        ]


@dataclass
class AssumptionsTable:
    rows: list[AssumptionRow]

    def render(self) -> str:
        return render_table(
            HEADERS,
            [r.cells() for r in self.rows],
            title="Assumptions 1-3 verification (Section 2.2)",
        )


def run_one(name: str, graph: Graph, d0: int = DEFAULT_D0) -> AssumptionRow:
    n = graph.num_vertices
    hitting = verify_long_path_hitting(graph, d0=d0, num_pairs=80)
    ne_avg, ne_max = max_excluded_neighborhood(
        graph, num_hubs=16, d0=d0, num_samples=16
    )
    hub_dim = hub_dimension_estimate(
        graph, num_vertices_sampled=8, paths_per_vertex=16
    )
    stats = HybridBuilder(graph).build().index.stats()
    return AssumptionRow(
        name=name,
        diameter=hop_diameter(graph),
        diameter_pred=predicted_diameter(n),
        expansion=expansion_factor(graph),
        expansion_pred=predicted_expansion(n),
        h_needed=hitting.h_needed,
        ne_avg=ne_avg,
        ne_max=ne_max,
        hub_dim=hub_dim,
        avg_label=stats.avg_label_size,
    )


def run(profile: str = "quick", include_control: bool = True) -> AssumptionsTable:
    """Verify the assumptions across a dataset profile (+ grid control)."""
    rows = [run_one(name, load_dataset(name)) for name in profile_names(profile)]
    if include_control:
        side = 25
        rows.append(run_one("grid-control", grid_graph(side, side)))
    return AssumptionsTable(rows)


def main(profile: str = "quick") -> None:
    print(run(profile).render())


if __name__ == "__main__":
    main()
