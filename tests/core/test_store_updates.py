"""Tests for the serving stores' staged-update overlay (apply_updates)."""

from __future__ import annotations

import pytest

from repro.core.dynamic import DynamicHopDoublingIndex
from repro.core.flatstore import FlatLabelStore, load_store
from repro.core.hybrid import make_builder
from repro.core.labels import LabelDelta
from repro.core.quantized import QuantizedLabelStore
from repro.graphs.generators import glp_graph


@pytest.fixture(scope="module")
def setting():
    """A built store plus an insertion-repaired twin and its delta."""
    graph = glp_graph(80, seed=21)
    index = make_builder(graph, "hybrid").build().index
    store = FlatLabelStore.from_index(index)
    dyn = DynamicHopDoublingIndex.from_store(store, graph=graph)
    dyn.insert_edges([(0, 79), (5, 60), (17, 44)])
    return graph, index, dyn, dyn.pop_label_delta()


def fresh_flat(setting) -> FlatLabelStore:
    return FlatLabelStore.from_index(setting[1])


def all_pairs(n):
    return [(s, t) for s in range(n) for t in range(n)]


class TestFlatOverlay:
    def test_overlay_serves_updated_answers(self, setting):
        graph, _, dyn, delta = setting
        store = fresh_flat(setting)
        assert not store.has_pending_updates
        staged = store.apply_updates(delta)
        assert staged == len(delta)
        assert store.has_pending_updates
        for s, t in all_pairs(graph.num_vertices):
            assert store.query(s, t) == dyn.query(s, t)

    def test_overlay_label_accessors_and_slices(self, setting):
        _, _, dyn, delta = setting
        store = fresh_flat(setting)
        store.apply_updates(delta)
        v = next(iter(delta.out))
        assert store.out_label(v) == delta.out[v]
        pivots, dists, lo, hi = store.out_slice(v)
        assert list(zip(pivots[lo:hi], dists[lo:hi])) == delta.out[v]

    def test_query_group_and_via_respect_overlay(self, setting):
        graph, _, dyn, delta = setting
        store = fresh_flat(setting)
        store.apply_updates(delta)
        targets = list(range(graph.num_vertices))
        assert store.query_group(0, targets) == [
            dyn.query(0, t) for t in targets
        ]
        dist, pivot = store.query_via(0, 79)
        assert dist == dyn.query(0, 79)
        assert pivot >= 0

    def test_total_entries_tracks_overlay(self, setting):
        _, _, _, delta = setting
        store = fresh_flat(setting)
        merged_total = None
        store.apply_updates(delta)
        merged_total = store.merged().total_entries(include_trivial=True)
        assert store.total_entries(include_trivial=True) == merged_total

    def test_merged_and_save_fold_overlay(self, setting, tmp_path):
        graph, _, dyn, delta = setting
        store = fresh_flat(setting)
        store.apply_updates(delta)
        merged = store.merged()
        assert not merged.has_pending_updates
        store.save(tmp_path / "u.idx2")
        reloaded = load_store(tmp_path / "u.idx2")
        for s, t in all_pairs(graph.num_vertices):
            assert merged.query(s, t) == dyn.query(s, t)
            assert reloaded.query(s, t) == dyn.query(s, t)

    def test_mmap_store_accepts_overlay(self, setting, tmp_path):
        graph, _, dyn, delta = setting
        base = fresh_flat(setting)
        base.save(tmp_path / "base.idx2")
        store = FlatLabelStore.load(tmp_path / "base.idx2", use_mmap=True)
        try:
            if not store.is_mmapped:
                pytest.skip("platform without zero-copy mmap")
            store.apply_updates(delta)
            for s, t in all_pairs(graph.num_vertices):
                assert store.query(s, t) == dyn.query(s, t)
        finally:
            store.close()

    def test_shape_mismatch_rejected(self, setting):
        store = fresh_flat(setting)
        with pytest.raises(ValueError, match="does not match store"):
            store.apply_updates(LabelDelta.empty(3, store.directed))
        bad = LabelDelta.empty(store.n, store.directed)
        bad.out[store.n + 5] = [(0, 1.0)]
        with pytest.raises(IndexError):
            store.apply_updates(bad)


class TestQuantizedOverlay:
    def test_overlay_and_reencode_roundtrip(self, setting, tmp_path):
        graph, index, dyn, delta = setting
        quant = QuantizedLabelStore.from_flat(fresh_flat(setting))
        quant.apply_updates(delta)
        for s, t in all_pairs(graph.num_vertices):
            assert quant.query(s, t) == dyn.query(s, t)
        quant.save(tmp_path / "u.idx3")
        reloaded = load_store(tmp_path / "u.idx3")
        assert isinstance(reloaded, QuantizedLabelStore)
        for s, t in all_pairs(graph.num_vertices):
            assert reloaded.query(s, t) == dyn.query(s, t)

    def test_to_flat_folds_overlay(self, setting):
        graph, _, dyn, delta = setting
        quant = QuantizedLabelStore.from_flat(fresh_flat(setting))
        quant.apply_updates(delta)
        flat = quant.to_flat()
        assert not flat.has_pending_updates
        for s, t in all_pairs(graph.num_vertices):
            assert flat.query(s, t) == dyn.query(s, t)

    def test_from_flat_folds_source_overlay(self, setting):
        graph, _, dyn, delta = setting
        store = fresh_flat(setting)
        store.apply_updates(delta)
        quant = QuantizedLabelStore.from_flat(store)
        assert not quant.has_pending_updates
        for s, t in all_pairs(graph.num_vertices):
            assert quant.query(s, t) == dyn.query(s, t)
