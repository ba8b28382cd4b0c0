"""Shared-memory fan-out: bit-identity, hit counts, dead-worker recovery."""

import os
import signal
import time

import pytest

from paper.baselines.pll import build_pll
from paper.labels import to_store
from paper.bench.workloads import random_pairs
from repro.graphs.generators import ba_graph
from repro.oracle import ShardedLabelStore
from repro.serve import shm
from repro.serve.shm import (
    FanoutUnavailableError,
    SharedMemoryFanout,
)

pytestmark = pytest.mark.skipif(
    not shm.available(), reason="needs the fork start method"
)


@pytest.fixture(scope="module")
def flat():
    graph = ba_graph(500, m=2, seed=29)
    index, _ = build_pll(graph)
    return to_store(index)


@pytest.fixture(scope="module")
def expected(flat):
    pairs = random_pairs(flat.n, 800, seed=31)
    return pairs, [flat.query(s, t) for s, t in pairs]


@pytest.mark.parametrize("num_shards", [1, 3])
def test_sharded_bit_identity(flat, expected, num_shards):
    pairs, want = expected
    store = ShardedLabelStore.split(flat, num_shards)
    with SharedMemoryFanout(store, workers=2) as fanout:
        assert fanout.query_batch(pairs) == want


def test_flat_store_bit_identity(flat, expected):
    pairs, want = expected
    with SharedMemoryFanout(flat, workers=2) as fanout:
        assert fanout.query_batch(pairs) == want


def test_quantized_store_bit_identity(flat, expected):
    pairs, want = expected
    store = flat.encoded("v3")
    with SharedMemoryFanout(store, workers=2) as fanout:
        assert fanout.query_batch(pairs) == want


def test_duplicates_self_pairs_and_order(flat):
    pairs = [(5, 300), (300, 5), (5, 300), (7, 7), (499, 0), (5, 300)]
    want = [flat.query(s, t) for s, t in pairs]
    store = ShardedLabelStore.split(flat, 3)
    with SharedMemoryFanout(store, workers=3) as fanout:
        assert fanout.query_batch(pairs) == want


def test_buffer_growth_preserves_answers(flat, expected):
    pairs, want = expected
    with SharedMemoryFanout(flat, workers=2, capacity=16) as fanout:
        assert fanout.query_batch(pairs) == want
        assert fanout.stats()["capacity"] >= len(pairs)
        # And the regrown buffers still serve.
        assert fanout.query_batch(pairs[:50]) == want[:50]


def test_hit_counts_accumulate_per_source_shard(flat):
    store = ShardedLabelStore.split(flat, 2)
    mid = store.ranges[0][1]
    with SharedMemoryFanout(store, workers=2) as fanout:
        fanout.query_batch([(0, 5)] * 7)        # sources in shard 0
        fanout.query_batch([(mid, 5)] * 3)      # sources in shard 1
        assert fanout.shard_hits.tolist() == [7, 3]
        stats = fanout.stats()
        assert stats["pairs_served"] == 10
        assert stats["batches_served"] == 2


def test_killed_worker_costs_one_inline_batch_not_the_pool(flat, expected):
    pairs, want = expected
    store = ShardedLabelStore.split(flat, 3)
    with SharedMemoryFanout(store, workers=2) as fanout:
        assert fanout.query_batch(pairs) == want
        workers = set(fanout._pool._processes)
        os.kill(next(iter(workers)), signal.SIGKILL)
        # Until the executor's manager thread has seen the death, the
        # surviving worker can still drain a whole batch and nothing
        # fails; wait for it so what follows is the broken-pool case.
        deadline = time.monotonic() + 10
        while not fanout._pool._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        assert fanout._pool._broken
        # The broken executor rejects this batch: answered in-process
        # by the same kernel, pool dropped.
        assert fanout.query_batch(pairs) == want
        assert fanout.stats()["pool_failures"] == 1
        assert fanout._pool is None
        # The next batch forks a fresh pool and is served by it.
        assert fanout.query_batch(pairs) == want
        assert fanout.stats()["pool_failures"] == 1
        assert not workers & set(fanout._pool._processes)
        assert fanout.stats()["batches_served"] == 3


def test_out_of_range_raises_before_dispatch(flat):
    with SharedMemoryFanout(flat, workers=2) as fanout:
        with pytest.raises(IndexError):
            fanout.query_batch([(0, 1), (0, 10_000)])
        assert fanout.stats()["pairs_served"] == 0


def test_pending_updates_refused(flat):
    from repro.core.labels import LabelDelta

    store = ShardedLabelStore.split(flat, 2)
    delta = LabelDelta.empty(store.n, store.directed)
    delta.out[3] = list(store.out_label(3))
    store.apply_updates(delta)
    with pytest.raises(FanoutUnavailableError, match="staged updates"):
        SharedMemoryFanout(store, workers=1)


def test_close_is_idempotent(flat):
    fanout = SharedMemoryFanout(flat, workers=1)
    fanout.query_batch([(0, 1)])
    fanout.close()
    fanout.close()


def test_empty_batch(flat):
    with SharedMemoryFanout(flat, workers=1) as fanout:
        assert fanout.query_batch([]) == []


def test_invalid_configuration_rejected(flat):
    with pytest.raises(ValueError, match="workers"):
        SharedMemoryFanout(flat, workers=0)
    with pytest.raises(ValueError, match="capacity"):
        SharedMemoryFanout(flat, capacity=0)


def test_warmup_then_serve(flat, expected):
    pairs, want = expected
    with SharedMemoryFanout(flat, workers=2) as fanout:
        fanout.warmup()
        assert fanout.query_batch(pairs) == want
