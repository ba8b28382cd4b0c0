"""Sharded serving: split an index by vertex range and serve the directory.

Run with::

    python examples/sharded_serving.py

Persists the index, splits it into range shards with a manifest
(`repro shard` does the same on the command line), then serves batched
queries from the memory-mapped directory through a DistanceOracle —
what `repro query` and `repro serve` do with a shard directory.  Prints
single-store vs sharded throughput on the same workload and shows the
shard directory layout.
"""

import random
import tempfile
import time
from pathlib import Path

from repro import DistanceOracle, HopDoublingIndex
from repro.graphs import glp_graph
from repro.oracle import ShardedLabelStore, load_manifest

NUM_SHARDS = 4


def main() -> None:
    graph = glp_graph(5_000, seed=13)
    index = HopDoublingIndex.build(graph)
    print(f"built {index.labels!r}")

    with tempfile.TemporaryDirectory() as tmp:
        # 1. Persist once, shard by contiguous vertex range.
        path = Path(tmp) / "serving.index2"
        index.save(path, format="v2")
        shard_dir = Path(tmp) / "serving.shards"
        from repro.core.flatstore import load_store

        ShardedLabelStore.split(load_store(path), NUM_SHARDS).save(shard_dir)
        manifest = load_manifest(shard_dir)
        print(f"shard directory {shard_dir.name}/:")
        for entry in manifest["shards"]:
            size = (shard_dir / entry["file"]).stat().st_size
            print(
                f"  {entry['file']}  vertices [{entry['lo']:>5}, "
                f"{entry['hi']:>5})  {size / 1024:6.0f} KB  "
                f"sha256 {entry['sha256'][:12]}..."
            )

        rng = random.Random(7)
        n = manifest["n"]
        stream = [
            (rng.randrange(n), rng.randrange(n)) for _ in range(50_000)
        ]

        # 2. Baseline: one process, the grouped-merge-join batch path.
        single = DistanceOracle.open(path, use_mmap=True, cache_size=0)
        t0 = time.perf_counter()
        expected = single.query_batch(stream)
        dt = time.perf_counter() - t0
        print(f"single store       : {len(stream) / dt:>9,.0f} pairs/s")

        # 3. Sharded: the same batch over the memory-mapped directory.
        sharded = ShardedLabelStore.load(shard_dir, use_mmap=True)
        served = DistanceOracle(sharded, cache_size=0)
        t0 = time.perf_counter()
        distances = served.query_batch(stream)
        dt = time.perf_counter() - t0
        print(f"sharded store      : {len(stream) / dt:>9,.0f} pairs/s")

        # 4. Same answers, bit for bit, in input order.
        assert distances == expected
        print("sharded answers identical to the single store")

        served.close()
        single.close()


if __name__ == "__main__":
    main()
