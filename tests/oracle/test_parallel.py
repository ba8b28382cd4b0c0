"""Tests for ParallelOracle: the one inline-vs-pool router."""

import os

import pytest

from paper.baselines.pll import build_pll
from paper.bench.workloads import random_pairs
from repro.core.flatstore import FlatLabelStore
from repro.core.labels import LabelDelta
from repro.graphs.generators import ba_graph
from repro.oracle import DistanceOracle, ParallelOracle, ShardedLabelStore


@pytest.fixture(scope="module")
def flat():
    graph = ba_graph(400, m=2, seed=19)
    index, _ = build_pll(graph)
    return FlatLabelStore.from_index(index)


@pytest.fixture(scope="module")
def shard_dir(flat, tmp_path_factory):
    path = tmp_path_factory.mktemp("parallel") / "shards"
    ShardedLabelStore.split(flat, 4).save(path)
    return path


@pytest.fixture(scope="module")
def index_file(flat, tmp_path_factory):
    path = tmp_path_factory.mktemp("parallel") / "index.idx3"
    flat.encoded("v3").save(path)
    return path


@pytest.fixture(params=["shard directory", "v3 file"])
def served_path(request, shard_dir, index_file):
    return shard_dir if request.param == "shard directory" else index_file


@pytest.fixture(scope="module")
def expected(flat):
    pairs = random_pairs(flat.n, 600, seed=23)
    return pairs, [flat.query(s, t) for s, t in pairs]


def test_four_way_bit_identity(
    flat, shard_dir, expected, fan_out_everything
):
    """Per-pair, single-store batch, sharded store and ParallelOracle."""
    pairs, want = expected
    assert DistanceOracle(flat, cache_size=0).query_batch(pairs) == want
    sharded = ShardedLabelStore.load(shard_dir, use_mmap=True)
    try:
        assert [sharded.query(s, t) for s, t in pairs] == want
    finally:
        sharded.close()
    with ParallelOracle(shard_dir, workers=2, cache_size=0) as oracle:
        assert oracle.query_batch(pairs) == want
        assert sum(oracle.shard_hits) == len(pairs)  # through the pool


def test_order_preserved_with_duplicates_and_self_pairs(
    shard_dir, flat, fan_out_everything
):
    # Shard-grouped fan-out permutes evaluation order; the merge must
    # restore input order exactly, duplicates and s == t included.
    pairs = [(5, 300), (300, 5), (5, 300), (7, 7), (399, 0), (5, 300)]
    want = [flat.query(s, t) for s, t in pairs]
    with ParallelOracle(shard_dir, workers=3) as oracle:
        assert oracle.query_batch(pairs) == want
        assert sum(oracle.shard_hits) == len(pairs)


def _stage_noop_update(oracle):
    delta = LabelDelta.empty(oracle.n, oracle.directed)
    delta.out[5] = list(oracle.store.out_label(5))
    oracle.apply_updates(delta)


#: Each reason a batch is answered inline: constructor arguments,
#: attributes patched back from the ``fan_out_everything`` floors, how
#: many of the expected pairs to send, and whether to stage an update.
INLINE_REASONS = {
    "batch under the floor": {"pairs": 1},
    "one worker": {"kwargs": {"workers": 1}},
    "updates staged": {"stage": True},
    "cache-resident index": {
        "patch": {"repro.oracle.parallel.INLINE_ENTRIES": 2_000_000}
    },
    "route pinned inline": {"kwargs": {"route": "inline"}},
    "no fork": {
        "patch": {"repro.serve.shm.available": lambda: False}
    },
    "store the kernel cannot read": {
        "patch": {"repro.oracle.kernel.supports": lambda store: False}
    },
}

FANNED_OUT = {
    "no inline reason": {},
    "route pinned fanout on a cache-resident index": {
        "kwargs": {"route": "fanout"},
        "patch": {"repro.oracle.parallel.INLINE_ENTRIES": 2_000_000},
    },
}


def _routed(case, served_path, expected, monkeypatch):
    """Serve one batch under ``case``.

    Returns whether ``warmup()`` forked, the oracle's ``shard_hits``
    afterwards, and how many pairs were sent.
    """
    pairs, want = expected
    count = case.get("pairs", len(pairs))
    for target, value in case.get("patch", {}).items():
        monkeypatch.setattr(target, value)
    kwargs = {"workers": 2, "cache_size": 0, **case.get("kwargs", {})}
    with ParallelOracle(served_path, **kwargs) as oracle:
        if case.get("stage"):
            _stage_noop_update(oracle)
        warmed = oracle.warmup()
        assert oracle.query_batch(pairs[:count]) == want[:count]
        return warmed, oracle.shard_hits, count


@pytest.mark.parametrize("reason", INLINE_REASONS)
def test_each_inline_reason_keeps_the_batch_off_the_pool(
    reason, served_path, expected, fan_out_everything, monkeypatch
):
    case = INLINE_REASONS[reason]
    warmed, hits, _ = _routed(case, served_path, expected, monkeypatch)
    if "pairs" in case:
        # The size floor is the one per-batch reason: a larger batch
        # could fan out, so the pool exists — and has routed nothing.
        assert warmed and sum(hits) == 0
    else:
        assert not warmed and hits is None


@pytest.mark.parametrize("case", FANNED_OUT)
def test_without_an_inline_reason_the_batch_reaches_the_pool(
    case, served_path, expected, fan_out_everything, monkeypatch
):
    warmed, hits, count = _routed(
        FANNED_OUT[case], served_path, expected, monkeypatch
    )
    assert warmed and sum(hits) == count
    # One counter per shard of a directory, one for an index file.
    assert len(hits) == (4 if os.path.isdir(served_path) else 1)


def test_shipped_floors_keep_a_small_index_inline(shard_dir, expected):
    # No fixture: at the shipped constants this index is cache-resident,
    # so warmup() forks nothing and the batch never sees a pool.
    pairs, want = expected
    with ParallelOracle(shard_dir, workers=2) as oracle:
        assert oracle.warmup() is False
        assert oracle.query_batch(pairs) == want
        assert oracle._shm is None
        assert oracle.shard_hits is None
        assert oracle.stats() == {"workers": 2}


def test_stats_and_shard_hits_report_the_live_pool(
    shard_dir, expected, fan_out_everything
):
    pairs, want = expected
    with ParallelOracle(shard_dir, workers=2) as oracle:
        assert oracle.warmup() is True
        assert oracle.shard_hits == [0, 0, 0, 0]
        assert oracle.query_batch(pairs) == want
        stats = oracle.stats()
        assert stats["workers"] == 2
        assert sum(stats["shard_hits"]) == len(pairs)


def test_single_pair_facilities_work(served_path, flat):
    with ParallelOracle(served_path, workers=2) as oracle:
        assert oracle.n == flat.n
        assert oracle.query(3, 250) == flat.query(3, 250)
        assert oracle.query_via(3, 250) == flat.query_via(3, 250)
        reference = DistanceOracle(flat)
        assert oracle.nearest(9, k=4) == reference.nearest(9, k=4)


@pytest.mark.parametrize("route", ["inline", "fanout"])
def test_out_of_range_pair_raises(shard_dir, route, fan_out_everything):
    with ParallelOracle(shard_dir, workers=2, route=route) as oracle:
        with pytest.raises(IndexError):
            oracle.query_batch([(0, 1), (0, 10_000)])


def test_close_is_idempotent(shard_dir, fan_out_everything):
    oracle = ParallelOracle(shard_dir, workers=2)
    oracle.query_batch([(0, 1)] * 2048)
    oracle.close()
    oracle.close()


def test_invalid_configuration_rejected(shard_dir):
    with pytest.raises(ValueError, match="workers"):
        ParallelOracle(shard_dir, workers=0)
    with pytest.raises(ValueError, match="route"):
        ParallelOracle(shard_dir, route="sideways")


@pytest.mark.parametrize(
    "removed",
    ["executor", "transport", "min_parallel_batch", "inline_entries", "kernel"],
)
def test_removed_knobs_are_gone(shard_dir, removed):
    with pytest.raises(TypeError, match=removed):
        ParallelOracle(shard_dir, **{removed: 1})


def test_pool_survives_update_reconcile(
    shard_dir, flat, expected, fan_out_everything
):
    pairs, want = expected
    with ParallelOracle(shard_dir, workers=2) as oracle:
        assert oracle.query_batch(pairs) == want
        _stage_noop_update(oracle)
        # Staged updates force inline; the stale forked workers are
        # dropped at reconcile and the next fan-out re-forks fresh.
        assert oracle.query_batch(pairs) == want
        assert sum(oracle.shard_hits) == len(pairs)
        oracle.reconcile()
        assert oracle._shm is None
        assert oracle.query_batch(pairs) == want
        assert sum(oracle.shard_hits) == len(pairs)


def test_default_workers_are_the_cores(shard_dir):
    # Forked workers share every shard, so cores bound the pool.
    with ParallelOracle(shard_dir) as oracle:
        assert oracle.workers == (os.cpu_count() or 1)
