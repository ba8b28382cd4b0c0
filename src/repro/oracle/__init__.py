"""repro.oracle — the batched distance-query serving layer.

The :class:`DistanceOracle` facade is the single entry point for
answering queries over a built index: it attaches to any
:class:`~repro.core.labels.LabelStore` (the CSR
:class:`~repro.core.flatstore.FlatLabelStore` or a shard directory),
serves single-pair distances through an LRU result cache and batches
through the vectorized kernel, and exposes reachability, path
reconstruction, one-to-all, and k-NN on top.

Every batch is answered in the calling process: merging two short
labels is bound by memory traffic, not compute, so handing batches to
worker processes costs more than it saves.  A shard directory
(:mod:`repro.oracle.sharding`) is served like an index file, through
a :class:`DistanceOracle` over its :class:`ShardedLabelStore`.  The
asyncio request frontend lives one layer up in :mod:`repro.serve`.

Quick start::

    from repro.oracle import DistanceOracle, ShardedLabelStore

    oracle = DistanceOracle.open("g.index")        # any format version
    oracle.query(3, 4021)                          # exact distance
    oracle.query_batch([(0, 9), (3, 4021), ...])   # grouped evaluation
    oracle.nearest(3, k=10)                        # k-NN

    sharded = ShardedLabelStore.load("g.shards", use_mmap=True)
    DistanceOracle(sharded).query_batch(pairs)     # `repro shard` output
"""

from repro.oracle.batch import PairColumns, evaluate_batch, read_pair_file
from repro.oracle.cache import CacheInfo, LRUCache
from repro.oracle.oracle import DEFAULT_CACHE_SIZE, DistanceOracle
from repro.oracle.sharding import (
    ShardedLabelStore,
    ShardError,
    load_manifest,
    split_ranges,
)

__all__ = [
    "DistanceOracle",
    "ShardedLabelStore",
    "ShardError",
    "DEFAULT_CACHE_SIZE",
    "LRUCache",
    "PairColumns",
    "CacheInfo",
    "evaluate_batch",
    "load_manifest",
    "read_pair_file",
    "split_ranges",
]
