"""Table 6: performance comparison of BIDIJ / IS-Label / PLL / HopDb.

Regenerates, per dataset: the graph profile (|V|, |E|, max degree,
graph size), index sizes, indexing times, in-memory query times and
simulated disk query times — the same cell layout as the paper's
Table 6, on the scaled stand-in datasets.

Shape expectations (asserted by ``benchmarks/test_table6_performance``):
HopDb's index is no larger than IS-Label's and within noise of PLL's;
HopDb answers in-memory queries orders of magnitude faster than BIDIJ;
IS-Label (and HCL in the paper) drop out first as budgets shrink.
"""

from __future__ import annotations

from dataclasses import dataclass

from paper.bench.datasets import profile_names
from paper.bench.export import render_table
from paper.bench.harness import DatasetResult, run_dataset
from repro.utils.prettyprint import format_bytes, format_count

HEADERS = [
    "G",
    "|V|",
    "|E|",
    "maxdeg",
    "|G|",
    "idx ISL",
    "idx PLL",
    "idx HopDb",
    "t ISL(s)",
    "t PLL(s)",
    "t HopDb(s)",
    "q BIDIJ(us)",
    "q ISL(us)",
    "q PLL(us)",
    "q HopDb(us)",
    "dq ISL(ms)",
    "dq HopDb(ms)",
]


@dataclass
class Table6:
    """Structured result: one :class:`DatasetResult` per dataset."""

    results: list[DatasetResult]

    def rows(self) -> list[list[object]]:
        rows = []
        for r in self.results:
            s = r.summary
            isl = r.get("islabel")
            pll = r.get("pll")
            hop = r.get("hopdb")
            bid = r.get("bidij")

            def fmt_us(m):
                return f"{m.query_micros:.1f}" if m and m.query else None

            rows.append(
                [
                    r.spec.name,
                    format_count(s.num_vertices),
                    format_count(s.num_edges),
                    format_count(s.max_degree),
                    format_bytes(s.size_bytes),
                    format_bytes(isl.index_bytes) if isl else None,
                    format_bytes(pll.index_bytes) if pll else None,
                    format_bytes(hop.index_bytes) if hop else None,
                    f"{isl.build_seconds:.2f}" if isl else None,
                    f"{pll.build_seconds:.2f}" if pll else None,
                    f"{hop.build_seconds:.2f}" if hop else None,
                    fmt_us(bid),
                    fmt_us(isl),
                    fmt_us(pll),
                    fmt_us(hop),
                    f"{isl.disk_query_ms:.1f}" if isl and isl.disk_query_ms else None,
                    f"{hop.disk_query_ms:.1f}" if hop and hop.disk_query_ms else None,
                ]
            )
        return rows

    def render(self) -> str:
        return render_table(
            HEADERS,
            self.rows(),
            title="Table 6 — performance comparison on complete 2-hop indexing",
        )

    def to_csv(self, path) -> int:
        """Write the table as CSV; returns the row count."""
        from paper.bench.export import write_csv

        return write_csv(path, HEADERS, self.rows())


def run(
    profile: str = "quick",
    num_queries: int = 300,
    budget: float | None = None,
) -> Table6:
    """Run the Table 6 experiment over a dataset profile."""
    results = [
        run_dataset(name, num_queries=num_queries, budget=budget)
        for name in profile_names(profile)
    ]
    return Table6(results)


def main(profile: str = "quick") -> None:
    """CLI entry point: print the rendered table."""
    print(run(profile).render())


if __name__ == "__main__":
    main()
