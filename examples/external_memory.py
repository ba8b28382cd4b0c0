"""External-memory construction and disk-resident querying (Section 4).

The paper's setting: the graph and the index do not fit in RAM, so
construction runs as blocked nested-loop joins over sorted entry files
and queries read two labels from disk.  This example runs the
I/O-charged builder under a deliberately tiny memory budget, prints
the per-iteration I/O profile (the measured form of the paper's
``O(log D_H * |old|/M * scan(|old|+|cand|))`` bound) and compares the
simulated disk query cost with the in-memory query time.
"""

import time

from paper.bench.workloads import random_pairs
from paper.io_sim import DiskModel, DiskResidentIndex, ExternalLabelingBuilder
from repro.graphs import glp_graph


def main() -> None:
    graph = glp_graph(2_000, m=2.0, seed=19)
    print(f"graph: {graph}")

    # A memory budget of 2048 entries vs an index of tens of thousands:
    # everything must stream through block files.
    disk = DiskModel(memory_entries=2048, block_entries=64)
    builder = ExternalLabelingBuilder(graph, disk, strategy="hybrid")
    result = builder.build()

    print(
        f"\nexternal build: {result.num_iterations} iterations, "
        f"{result.index.total_entries()} entries, "
        f"{result.total_io.total} block I/Os "
        f"({result.total_io.reads} reads / {result.total_io.writes} writes)"
    )
    print("\nper-iteration I/O profile:")
    print("  iter  mode    cand  survived   reads  writes")
    for it in result.iterations:
        s = it.stats
        print(
            f"  {s.iteration:>4}  {s.mode:<6} {s.distinct_generated:>5} "
            f"{s.survived:>9} {it.io.reads:>7} {it.io.writes:>7}"
        )

    # --- disk-resident querying ------------------------------------------
    pairs = random_pairs(graph.num_vertices, 500, seed=5)
    disk_index = DiskResidentIndex(result.index, DiskModel(block_entries=64))
    for s, t in pairs:
        disk_index.query(s, t)
    t0 = time.perf_counter()
    for s, t in pairs:
        result.index.query(s, t)
    mem_us = (time.perf_counter() - t0) / len(pairs) * 1e6

    print(
        f"\nquerying 500 random pairs:"
        f"\n  in-memory:      {mem_us:8.1f} us/query"
        f"\n  disk-resident:  {disk_index.avg_query_seconds() * 1e3:8.1f} "
        f"ms/query simulated "
        f"({disk_index.avg_blocks_per_query():.1f} blocks/query)"
    )
    print(
        "\nThe two numbers bracket the paper's Table 6 columns: "
        "microseconds with the index in RAM, a few milliseconds "
        "(two label reads) straight off disk."
    )


if __name__ == "__main__":
    main()
