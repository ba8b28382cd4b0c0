"""Tests for sharded update routing, per-shard reconcile, and the
parallel oracle's update-aware routing."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.core.dynamic import DynamicHopDoublingIndex
from repro.core.flatstore import FlatLabelStore
from repro.core.hybrid import make_builder
from repro.core.labels import LabelDelta
from repro.graphs.generators import glp_graph
from repro.oracle import DistanceOracle, ParallelOracle, ShardedLabelStore
from repro.oracle.sharding import ShardError
from tests.reference.label_lists import as_label_index

NUM_SHARDS = 4


@pytest.fixture(scope="module")
def setting():
    graph = glp_graph(120, seed=8)
    index = make_builder(graph, "hybrid").build().index
    store = FlatLabelStore.from_index(index)
    dyn = DynamicHopDoublingIndex.from_store(store, graph=graph)
    dyn.insert_edges([(0, 119), (30, 95)])
    return graph, store, dyn, dyn.pop_label_delta()


def make_dir(setting, tmp_path, fmt="v2") -> Path:
    root = tmp_path / "shards"
    ShardedLabelStore.split(setting[1], NUM_SHARDS).save(root, format=fmt)
    return root


def file_bytes(root: Path) -> dict[str, bytes]:
    manifest = json.loads((root / "manifest.json").read_text())
    return {
        e["file"]: (root / e["file"]).read_bytes()
        for e in manifest["shards"]
    }


class TestShardedApplyUpdates:
    def test_routes_to_owning_shards_only(self, setting, tmp_path):
        graph, _, dyn, delta = setting
        sharded = ShardedLabelStore.load(make_dir(setting, tmp_path))
        affected = sharded.apply_updates(delta)
        assert affected == sorted(
            {sharded.shard_of(v) for v in delta.vertices()}
        )
        assert sharded.dirty_shards == affected
        assert sharded.has_pending_updates
        for s in range(graph.num_vertices):
            for t in range(graph.num_vertices):
                assert sharded.query(s, t) == dyn.query(s, t)

    def test_shape_mismatch_rejected(self, setting, tmp_path):
        sharded = ShardedLabelStore.load(make_dir(setting, tmp_path))
        with pytest.raises(ShardError, match="does not match store"):
            sharded.apply_updates(LabelDelta.empty(7, sharded.directed))


class TestReconcile:
    @pytest.mark.parametrize("fmt", ["v2", "v3"])
    def test_rewrites_only_dirty_shards(self, setting, tmp_path, fmt):
        graph, _, dyn, delta = setting
        root = make_dir(setting, tmp_path, fmt=fmt)
        before = file_bytes(root)
        sharded = ShardedLabelStore.load(root)
        rewritten = sharded.apply_updates(delta)
        assert sharded.reconcile(root) == rewritten
        assert not sharded.has_pending_updates
        after = file_bytes(root)
        manifest = json.loads((root / "manifest.json").read_text())
        from repro.oracle.sharding import _sha256_file

        for entry in manifest["shards"]:
            path = root / entry["file"]
            assert _sha256_file(path) == entry["sha256"]
            if entry["id"] in rewritten:
                # dirty shards land in a new revision file; the old
                # generation is gone once the manifest owns the new one
                assert "-r" in entry["file"]
                assert entry["file"] not in before
            else:
                # untouched shards stay byte-for-byte identical
                assert after[entry["file"]] == before[entry["file"]]
        live = {e["file"] for e in manifest["shards"]}
        on_disk = {p.name for p in root.iterdir()} - {"manifest.json"}
        assert on_disk == live  # replaced generations cleaned up
        # the reconciled directory revalidates and serves the updates
        reloaded = ShardedLabelStore.load(root)
        for s in range(graph.num_vertices):
            for t in range(graph.num_vertices):
                assert reloaded.query(s, t) == dyn.query(s, t)
        # the in-memory store was swapped to the merged shards
        for s in range(0, graph.num_vertices, 7):
            assert sharded.query(0, s) == dyn.query(0, s)

    def test_layout_mismatch_rejected(self, setting, tmp_path):
        root = make_dir(setting, tmp_path)
        other = tmp_path / "other"
        ShardedLabelStore.split(setting[1], 2).save(other)
        sharded = ShardedLabelStore.load(other)
        sharded.apply_updates(setting[3])
        with pytest.raises(ShardError, match="different shard layout"):
            sharded.reconcile(root)

    def test_save_folds_pending_updates(self, setting, tmp_path):
        graph, _, dyn, delta = setting
        sharded = ShardedLabelStore.load(make_dir(setting, tmp_path))
        sharded.apply_updates(delta)
        out = tmp_path / "resaved"
        sharded.save(out)
        reloaded = ShardedLabelStore.load(out)
        for s in range(0, graph.num_vertices, 5):
            assert reloaded.query(0, s) == dyn.query(0, s)


class TestOracleInvalidation:
    def test_apply_updates_invalidates_cache_and_knn(self, setting):
        graph, _, dyn, delta = setting
        oracle = DistanceOracle(FlatLabelStore.from_index(
            make_builder(graph, "hybrid").build().index
        ))
        stale = oracle.query(0, 119)
        oracle.nearest(0, 3)
        oracle.apply_updates(delta)
        assert oracle.cache_info().size == 0
        assert oracle._inverted is None
        fresh = oracle.query(0, 119)
        assert fresh == dyn.query(0, 119)
        assert fresh != stale

    def test_unsupported_backend_raises(self, setting):
        graph, _, _, delta = setting
        lists = as_label_index(make_builder(graph, "hybrid").build().index)
        oracle = DistanceOracle(lists)
        with pytest.raises(TypeError, match="does not support"):
            oracle.apply_updates(delta)


class TestParallelRouting:
    def _pairs(self, n, count=2000, seed=4):
        rng = random.Random(seed)
        return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]

    def test_route_knob_validation(self, setting, tmp_path):
        root = make_dir(setting, tmp_path)
        with pytest.raises(ValueError, match="route"):
            ParallelOracle(root, route="sideways")

    def test_routes_agree_bit_identically(
        self, setting, tmp_path, fan_out_everything
    ):
        graph, store, _, _ = setting
        root = make_dir(setting, tmp_path)
        pairs = self._pairs(graph.num_vertices)
        want = [store.query(s, t) for s, t in pairs]
        for route in ("auto", "inline", "fanout"):
            with ParallelOracle(
                root, workers=2, route=route, cache_size=0
            ) as oracle:
                assert oracle.query_batch(pairs) == want, route

    def test_updates_force_inline_until_reconcile(
        self, setting, tmp_path, fan_out_everything
    ):
        graph, _, dyn, delta = setting
        root = make_dir(setting, tmp_path)
        pairs = self._pairs(graph.num_vertices)
        with ParallelOracle(
            root, workers=2, route="fanout", cache_size=0
        ) as oracle:
            assert oracle._can_fan_out()
            oracle.apply_updates(delta)
            assert not oracle._can_fan_out()
            want = [dyn.query(s, t) for s, t in pairs]
            assert oracle.query_batch(pairs) == want
            assert oracle.shard_hits is None
            rewritten = oracle.reconcile()
            assert rewritten and not oracle.store.has_pending_updates
            assert oracle._can_fan_out()
            assert oracle.query_batch(pairs) == want
            assert sum(oracle.shard_hits) == len(pairs)
