"""Quickstart: build a hop-doubling index and answer distance queries.

Run with::

    python examples/quickstart.py

Covers the 60-second tour of the library: generate a scale-free graph,
build the index with the paper's default hybrid strategy, query
distances through the DistanceOracle serving facade, reconstruct a
shortest path, and round-trip the index through its binary formats.
"""

import tempfile
from pathlib import Path

from repro import DistanceOracle, HopDoublingIndex, INF
from repro.graphs import glp_graph
from repro.graphs.traversal import bfs_distances


def main() -> None:
    # 1. A synthetic scale-free graph (the paper's GLP model).
    graph = glp_graph(2_000, seed=42)
    print(f"graph: {graph}")

    # 2. Build the index.  Default = hybrid strategy (Hop-Stepping for
    #    10 iterations, Hop-Doubling afterwards), degree ranking,
    #    minimized rule set, pruning on — the paper's configuration.
    index = HopDoublingIndex.build(graph)
    stats = index.stats()
    print(
        f"index: {index.num_iterations} iterations, "
        f"{stats.total_entries} entries "
        f"(avg {stats.avg_label_size:.1f}/vertex, "
        f"{index.size_in_bytes() / 1024:.0f} KB)"
    )

    # 3. Serve queries through the oracle facade.  `oracle()` packs the
    #    labels into the CSR flat store (the fast backend) and layers
    #    an LRU result cache plus batched evaluation on top.
    oracle = index.oracle()
    for s, t in [(0, 1999), (17, 1234), (3, 3)]:
        d = oracle.query(s, t)
        shown = "unreachable" if d == INF else f"{d:g} hops"
        print(f"  dist({s:>4}, {t:>4}) = {shown}")

    # 4. Sanity: agree with plain BFS — evaluated as one batch.
    bfs = bfs_distances(graph, 0)
    batch = oracle.query_batch([(0, t) for t in range(graph.num_vertices)])
    assert batch == bfs
    print("verified against BFS from vertex 0 (one query_batch call)")

    # 5. The index stores distances; paths are reconstructed on demand.
    path = index.query_path(17, 1234)
    print(f"one shortest path 17 -> 1234: {path}")

    # 6. Save in both encodings and reload.
    with tempfile.TemporaryDirectory() as tmp:
        v3 = Path(tmp) / "quickstart.index"
        v2 = Path(tmp) / "quickstart.index2"
        index.save(v3)                    # format v3 (compact, the default)
        index.save(v2, format="v2")       # format v2 (int32/f64 arrays)
        from_v3 = DistanceOracle.open(v3)
        reloaded = DistanceOracle.open(v2, use_mmap=True)
        assert from_v3.query(17, 1234) == oracle.query(17, 1234)
        assert reloaded.query(17, 1234) == oracle.query(17, 1234)
        print(f"round-tripped through {v3.name} "
              f"({v3.stat().st_size / 1024:.0f} KB on disk) and {v2.name} "
              f"({v2.stat().st_size / 1024:.0f} KB, mmap-loaded)")
        # Release the mapping before the tempdir is deleted (required
        # on Windows, where a mapped file cannot be removed).
        reloaded.close()


if __name__ == "__main__":
    main()
