"""repro.oracle — the batched distance-query serving layer.

The :class:`DistanceOracle` facade is the single entry point for
answering queries over a built index: it attaches to any
:class:`~repro.core.labels.LabelStore` (the CSR
:class:`~repro.core.flatstore.FlatLabelStore` or a shard directory),
serves single-pair distances through an LRU result cache and batches
through the vectorized kernel, and exposes reachability, path
reconstruction, one-to-all, and k-NN on top.

For indexes too big (or traffic too heavy) for one core,
:class:`ParallelOracle` (:mod:`repro.oracle.parallel`) serves a shard
directory (:mod:`repro.oracle.sharding`) or an index file with N
workers.  It is the only inline-vs-pool router: a batch is answered
inline when it is small, when ``workers == 1``, while updates are
staged, when the index is cache-resident, or when ``fork`` or the
kernel is unavailable, and otherwise goes to the one pool — the forked
shared-memory fan-out of :mod:`repro.serve.shm`.  The asyncio request
frontend lives one layer up in :mod:`repro.serve`.

Quick start::

    from repro.oracle import DistanceOracle, ParallelOracle

    oracle = DistanceOracle.open("g.index")        # any format version
    oracle.query(3, 4021)                          # exact distance
    oracle.query_batch([(0, 9), (3, 4021), ...])   # grouped evaluation
    oracle.nearest(3, k=10)                        # k-NN

    served = ParallelOracle("g.shards", workers=4)  # `repro shard` output
    served.query_batch(pairs)                       # inline or fanned out
"""

from repro.oracle.batch import PairColumns, evaluate_batch, read_pair_file
from repro.oracle.cache import CacheInfo, LRUCache
from repro.oracle.oracle import DEFAULT_CACHE_SIZE, DistanceOracle
from repro.oracle.parallel import ParallelOracle
from repro.oracle.sharding import (
    ShardedLabelStore,
    ShardError,
    load_manifest,
    split_ranges,
)

__all__ = [
    "DistanceOracle",
    "ParallelOracle",
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
