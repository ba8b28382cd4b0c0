"""Beyond the paper: incremental updates and k-nearest-neighbour queries.

Two extensions built on the paper's machinery:

* **incremental edge insertion** (`repro.core.dynamic`) — the paper
  targets static graphs; the hop-doubling rules double as a repair
  procedure, keeping queries exact as edges arrive (batched here),
  with the changed labels handed to a serving store as a delta;
* **inverted label index** (`repro.core.knn`) — one-to-all distances
  and k-NN straight from the labels, serving the centrality-style
  workloads the paper's introduction motivates.
"""

import random
import time

from repro.core.dynamic import DynamicHopDoublingIndex
from repro.core.flatstore import FlatLabelStore
from repro.core.knn import InvertedLabelIndex
from repro.core.verify import verify_index
from repro.graphs import glp_graph
from repro.graphs.traversal import bfs_distances


def main() -> None:
    rng = random.Random(99)
    graph = glp_graph(1_200, m=1.8, seed=31)
    print(f"base graph: {graph}")

    # --- incremental insertion --------------------------------------
    dyn = DynamicHopDoublingIndex(graph)
    s, t = 3, 1_100
    print(f"dist({s}, {t}) before updates: {dyn.query(s, t):g}")

    # A serving store built from the same labels follows the updates
    # through label deltas — no rebuild, no full rewrite.
    store = FlatLabelStore.from_index(dyn.snapshot())

    t0 = time.perf_counter()
    batch = [
        (rng.randrange(1_200), rng.randrange(1_200)) for _ in range(30)
    ]
    inserted = dyn.insert_edges(batch)
    per_insert = (time.perf_counter() - t0) / max(inserted, 1)
    print(
        f"inserted {inserted} random edges in one batch "
        f"({per_insert * 1e3:.1f} ms/insert incl. repair); "
        f"dist({s}, {t}) now: {dyn.query(s, t):g}"
    )

    delta = dyn.pop_label_delta()
    store.apply_updates(delta)
    assert store.query(s, t) == dyn.query(s, t)
    print(
        f"label delta: {len(delta.vertices())} vertex labels replaced; "
        "serving store answers match after apply_updates"
    )

    # Spot-verify against BFS on the grown graph.
    truth = bfs_distances(dyn.graph, s)
    assert all(
        dyn.query(s, x) == truth[x] for x in range(0, 1_200, 7)
    )
    print("verified sampled queries against BFS on the grown graph")

    # Periodic compaction restores the canonical index size.
    before = dyn.snapshot().total_entries()
    removed = dyn.compact()
    print(f"compaction removed {removed} dominated entries "
          f"({before} -> {before - removed})")

    # --- k-NN / one-to-all from the labels ------------------------------
    snapshot = dyn.snapshot()
    report = verify_index(dyn.graph, snapshot, samples=500)
    print(f"verifier: {report}")

    inv = InvertedLabelIndex(snapshot)
    hub = max(range(1_200), key=lambda v: dyn.graph.degree(v))
    nn = inv.nearest(hub, 5)
    print(f"\n5 nearest to hub {hub}: {[(v, int(d)) for d, v in nn]}")

    t0 = time.perf_counter()
    dist = inv.distances_from(hub)
    label_time = time.perf_counter() - t0
    t0 = time.perf_counter()
    bfs = bfs_distances(dyn.graph, hub)
    bfs_time = time.perf_counter() - t0
    assert dist == bfs
    print(
        f"one-to-all from labels: {label_time * 1e3:.1f} ms "
        f"(BFS: {bfs_time * 1e3:.1f} ms) — identical results"
    )


if __name__ == "__main__":
    main()
