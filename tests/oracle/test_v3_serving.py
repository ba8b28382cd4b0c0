"""Every query surface returns bit-identical results on v3 vs v2.

The acceptance bar for the compact format: the oracle facade (single
pair, batch, via-pivot), k-NN and one-to-all, path reconstruction,
the verifier, and sharded + parallel serving must all be unable to
tell a v3-backed store from a v2-backed one.
"""

import random

import pytest

from repro.core.flatstore import FlatLabelStore
from repro.core.hybrid import HybridBuilder
from repro.core.quantized import QuantizedLabelStore
from repro.core.verify import verify_index
from repro.graphs.generators import glp_graph
from repro.oracle import DistanceOracle, ParallelOracle, ShardedLabelStore

N = 120


@pytest.fixture(scope="module", params=[False, True], ids=["undir", "dir"])
def setup(request, tmp_path_factory):
    g = glp_graph(N, seed=8, directed=request.param)
    index = HybridBuilder(g).build().index
    flat = FlatLabelStore.from_index(index)
    root = tmp_path_factory.mktemp("v3serving")
    p2 = root / "index.idx2"
    p3 = root / "index.idx3"
    flat.save(p2)
    QuantizedLabelStore.from_flat(flat).save(p3)
    return g, flat, p2, p3


@pytest.fixture(scope="module")
def oracles(setup):
    g, _, p2, p3 = setup
    o2 = DistanceOracle.open(p2, graph=g)
    o3 = DistanceOracle.open(p3, graph=g)
    assert isinstance(o3.store, QuantizedLabelStore)
    return o2, o3


def pairs(seed=31, count=800):
    rng = random.Random(seed)
    return [(rng.randrange(N), rng.randrange(N)) for _ in range(count)]


class TestOracleSurfaces:
    def test_single_pair(self, oracles):
        o2, o3 = oracles
        for s, t in pairs():
            assert o3.query(s, t) == o2.query(s, t)

    def test_batch(self, oracles):
        o2, o3 = oracles
        p = pairs(32)
        assert o3.query_batch(p) == o2.query_batch(p)

    def test_query_via(self, oracles):
        o2, o3 = oracles
        for s, t in pairs(33, 300):
            assert o3.query_via(s, t) == o2.query_via(s, t)

    def test_reachability(self, oracles):
        o2, o3 = oracles
        for s, t in pairs(34, 200):
            assert o3.is_reachable(s, t) == o2.is_reachable(s, t)

    def test_knn(self, oracles):
        o2, o3 = oracles
        for s in range(0, N, 7):
            assert o3.nearest(s, k=10) == o2.nearest(s, k=10)

    def test_one_to_all(self, oracles):
        o2, o3 = oracles
        for s in range(0, N, 11):
            assert o3.distances_from(s) == o2.distances_from(s)
            assert o3.distances_to(s) == o2.distances_to(s)

    def test_paths(self, oracles):
        o2, o3 = oracles
        for s, t in pairs(35, 100):
            p2 = o2.reconstruct_path(s, t)
            p3 = o3.reconstruct_path(s, t)
            assert p3 == p2

    def test_verifier(self, setup):
        g, _, _, p3 = setup
        store = QuantizedLabelStore.load(p3)
        report = verify_index(g, store, samples=300)
        assert report.ok, report.violations[:5]


class TestShardedServing:
    def test_sharded_v3_dir_bit_identical(self, setup, tmp_path):
        g, flat, _, p3 = setup
        q = QuantizedLabelStore.load(p3)
        shard_dir = tmp_path / "shards"
        ShardedLabelStore.split(q, 3).save(shard_dir, format="v3")
        sharded = ShardedLabelStore.load(shard_dir, use_mmap=True)
        try:
            p = pairs(36)
            expected = [flat.query(s, t) for s, t in p]
            assert [sharded.query(s, t) for s, t in p] == expected
            assert [sharded.query_via(s, t) for s, t in p] == [
                flat.query_via(s, t) for s, t in p
            ]
            targets = [t for _, t in p[:50]]
            assert sharded.query_group(5, targets) == flat.query_group(
                5, targets
            )
        finally:
            sharded.close()

    def test_parallel_oracle_on_v3_shards(
        self, setup, tmp_path, fan_out_everything
    ):
        g, flat, _, p3 = setup
        shard_dir = tmp_path / "shards"
        q = QuantizedLabelStore.load(p3)
        ShardedLabelStore.split(q, 3).save(shard_dir, format="v3")
        p = pairs(37, 600)
        expected = [flat.query(s, t) for s, t in p]
        with ParallelOracle(shard_dir, workers=2, cache_size=0) as oracle:
            assert oracle.query_batch(p) == expected
        # And with the kernel pinned off, through the scalar path.
        with ParallelOracle(
            shard_dir, workers=2, cache_size=0, kernel="off"
        ) as oracle:
            assert oracle.query_batch(p) == expected

    def test_resplit_v3_shards(self, setup, tmp_path):
        _, flat, _, p3 = setup
        q = QuantizedLabelStore.load(p3)
        sharded = ShardedLabelStore.split(q, 4)
        resharded = ShardedLabelStore.split(sharded, 2)
        p = pairs(38, 300)
        assert [resharded.query(s, t) for s, t in p] == [
            flat.query(s, t) for s, t in p
        ]
