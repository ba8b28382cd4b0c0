"""Figure 10: growth and pruning dynamics across iterations.

The paper instruments a hybrid build of wiki-English and plots, per
iteration:

* left panel — the **growing factor** (candidates generated this
  iteration / label entries that survived the previous iteration) and
  the **pruning factor** (fraction of candidates pruned);
* right panel — ``|candidates|``, ``|old label|`` and ``|prev label|``
  as fractions of the final index size, plus each iteration's share of
  the total build time.

Expected shape (asserted by the benchmarks): the growing factor sits
around the expansion factor (3-4ish) during the stepping phase and
jumps after the switch to doubling; the pruning factor stays high
throughout; candidates never dwarf the final index.
"""

from __future__ import annotations

from dataclasses import dataclass

from paper.bench.datasets import load_dataset
from paper.bench.export import render_table
from repro.core.hop_doubling import BuildResult
from repro.core.hybrid import HybridBuilder
from repro.graphs.digraph import Graph

#: The paper instruments wiki-English; its scaled stand-in converges in
#: 3-4 stepping iterations, which would hide the doubling phase, so the
#: default is the long-diameter control graph (GLP core + cycle tail,
#: diameter comparable to the paper's high-diameter datasets).
DEFAULT_GRAPH = "long-diam"


@dataclass
class IterationPoint:
    iteration: int
    mode: str
    growing_factor: float
    pruning_factor: float
    cand_ratio: float  # |candidates| / |final index|
    old_ratio: float   # |old label|  / |final index|
    prev_ratio: float  # |prev label| / |final index|
    time_ratio: float  # iteration time / total build time


@dataclass
class Figure10:
    name: str
    points: list[IterationPoint]

    def render(self) -> str:
        headers = [
            "iter",
            "mode",
            "grow",
            "prune%",
            "|cand|/|idx|",
            "|old|/|idx|",
            "|prev|/|idx|",
            "time%",
        ]
        rows = [
            [
                p.iteration,
                p.mode,
                f"{p.growing_factor:.1f}",
                f"{p.pruning_factor * 100:.0f}%",
                f"{p.cand_ratio * 100:.0f}%",
                f"{p.old_ratio * 100:.0f}%",
                f"{p.prev_ratio * 100:.0f}%",
                f"{p.time_ratio * 100:.0f}%",
            ]
            for p in self.points
        ]
        return render_table(
            headers,
            rows,
            title=f"Figure 10 — growth and pruning per iteration ({self.name})",
        )


def from_build(name: str, result: BuildResult) -> Figure10:
    """Convert a build's iteration stats into the Figure 10 series."""
    final_size = max(1, result.index.total_entries())
    total_time = max(1e-9, sum(it.elapsed for it in result.iterations))
    points = []
    for it in result.iterations:
        points.append(
            IterationPoint(
                iteration=it.iteration,
                mode=it.mode,
                growing_factor=it.growing_factor,
                pruning_factor=it.pruning_factor,
                cand_ratio=it.distinct_generated / final_size,
                old_ratio=it.total_entries / final_size,
                prev_ratio=it.survived / final_size,
                time_ratio=it.elapsed / total_time,
            )
        )
    return Figure10(name=name, points=points)


def run(
    name: str = DEFAULT_GRAPH,
    graph: Graph | None = None,
    switch_iteration: int = 5,
) -> Figure10:
    """Instrument one hybrid build.

    ``switch_iteration`` defaults to 5 (not the paper's 10) because the
    scaled stand-ins converge in fewer iterations than wiki-English;
    switching mid-build is what exposes the doubling jump the paper's
    figure shows.
    """
    if graph is None:
        if name == "long-diam":
            from paper.bench.table8 import long_diameter_graph

            graph = long_diameter_graph()
        else:
            graph = load_dataset(name)
    result = HybridBuilder(graph, switch_iteration=switch_iteration).build()
    return from_build(name, result)


def main() -> None:
    print(run().render())


if __name__ == "__main__":
    main()
