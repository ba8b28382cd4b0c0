"""Table 7: small hitting sets — label sizes and top-vertex coverage.

For each dataset the paper reports the number of indexing iterations,
the average number of label entries per vertex, and how small a
fraction of top-ranked vertices covers 70% / 80% / 90% of all label
entries.  Small averages and sub-percent coverage fractions are the
empirical support for Assumptions 1-3 (small hitting sets / small hub
dimension).
"""

from __future__ import annotations

from dataclasses import dataclass

from paper.bench.datasets import load_dataset, profile_names
from paper.bench.export import render_table
from paper.coverage import top_fraction_for_coverage
from repro.core.hybrid import HybridBuilder

HEADERS = [
    "Graph",
    "iterations",
    "avg |label|",
    "top 70%",
    "top 80%",
    "top 90%",
]


@dataclass
class Table7Row:
    name: str
    iterations: int
    avg_label: float
    top70: float
    top80: float
    top90: float

    def cells(self) -> list[object]:
        return [
            self.name,
            self.iterations,
            f"{self.avg_label:.1f}",
            f"{self.top70 * 100:.2f}%",
            f"{self.top80 * 100:.2f}%",
            f"{self.top90 * 100:.2f}%",
        ]


@dataclass
class Table7:
    rows: list[Table7Row]

    def render(self) -> str:
        return render_table(
            HEADERS,
            [r.cells() for r in self.rows],
            title="Table 7 — small hub dimension and hitting-set coverage",
        )

    def to_csv(self, path) -> int:
        """Write the table as CSV; returns the row count."""
        from paper.bench.export import write_csv

        return write_csv(path, HEADERS, (r.cells() for r in self.rows))


def run_one(name: str) -> Table7Row:
    """Build with the paper's default hybrid and measure Table 7 cells."""
    graph = load_dataset(name)
    result = HybridBuilder(graph).build()
    index = result.index
    stats = index.stats()
    return Table7Row(
        name=name,
        iterations=result.num_iterations,
        avg_label=stats.avg_label_size,
        top70=top_fraction_for_coverage(index, 0.70),
        top80=top_fraction_for_coverage(index, 0.80),
        top90=top_fraction_for_coverage(index, 0.90),
    )


def run(profile: str = "quick") -> Table7:
    """Run the Table 7 experiment over a dataset profile."""
    return Table7([run_one(name) for name in profile_names(profile)])


def main(profile: str = "quick") -> None:
    print(run(profile).render())


if __name__ == "__main__":
    main()
