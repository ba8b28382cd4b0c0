"""Tests for the serving stores' staged-update overlay (apply_updates)."""

from __future__ import annotations

import pytest

from repro.core.dynamic import DynamicHopDoublingIndex
from repro.core.flatstore import FlatLabelStore, load_store
from repro.core.hybrid import make_builder
from repro.core.index import HopDoublingIndex
from repro.core.labels import LabelDelta
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

    def test_query_and_via_respect_overlay(self, setting):
        graph, _, dyn, delta = setting
        store = fresh_flat(setting)
        store.apply_updates(delta)
        targets = list(range(graph.num_vertices))
        assert [store.query(0, t) for t in targets] == [
            dyn.query(0, t) for t in targets
        ]

    def test_total_entries_tracks_overlay(self, setting):
        _, _, _, delta = setting
        store = fresh_flat(setting)
        merged_total = None
        store.apply_updates(delta)
        merged_total = store.encoded("v2").total_entries(include_trivial=True)
        assert store.total_entries(include_trivial=True) == merged_total

    def test_merged_and_save_fold_overlay(self, setting, tmp_path):
        graph, _, dyn, delta = setting
        store = fresh_flat(setting)
        store.apply_updates(delta)
        merged = store.encoded("v2")
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

    @pytest.mark.parametrize("directed", [False, True], ids=["undir", "dir"])
    @pytest.mark.parametrize("use_mmap", [False, True], ids=["owned", "mmap"])
    def test_closed_store_holds_no_staged_labels(
        self, directed, use_mmap, tmp_path
    ):
        """close() drops the overlay whether or not the store is mapped;
        an undirected store's in-side still aliases its out-side."""
        graph = glp_graph(80, seed=21, directed=directed)
        index = make_builder(graph, "hybrid").build().index
        FlatLabelStore.from_index(index).save(tmp_path / "base.idx2")
        store = FlatLabelStore.load(tmp_path / "base.idx2", use_mmap=use_mmap)
        dyn = DynamicHopDoublingIndex.from_store(
            FlatLabelStore.from_index(index), graph=graph
        )
        dyn.insert_edges([(0, 79), (5, 60), (17, 44)])
        assert store.apply_updates(dyn.pop_label_delta()) > 0
        assert (store._overlays[1] is store._overlays[0]) is not directed
        store.close()
        assert not store.has_pending_updates
        assert store._overlays is None

    def test_shape_mismatch_rejected(self, setting):
        store = fresh_flat(setting)
        with pytest.raises(ValueError, match="does not match store"):
            store.apply_updates(LabelDelta.empty(3, store.directed))
        bad = LabelDelta.from_labels(
            store.n, store.directed, {store.n + 5: [(0, 1.0)]}, {}
        )
        with pytest.raises(IndexError):
            store.apply_updates(bad)


class TestQuantizedOverlay:
    def test_overlay_and_reencode_roundtrip(self, setting, tmp_path):
        graph, index, dyn, delta = setting
        quant = fresh_flat(setting).encoded("v3")
        quant.apply_updates(delta)
        for s, t in all_pairs(graph.num_vertices):
            assert quant.query(s, t) == dyn.query(s, t)
        quant.save(tmp_path / "u.idx3")
        reloaded = load_store(tmp_path / "u.idx3")
        assert reloaded.encoding == "v3"
        for s, t in all_pairs(graph.num_vertices):
            assert reloaded.query(s, t) == dyn.query(s, t)

    def test_to_flat_folds_overlay(self, setting):
        graph, _, dyn, delta = setting
        quant = fresh_flat(setting).encoded("v3")
        quant.apply_updates(delta)
        flat = quant.encoded("v2")
        assert not flat.has_pending_updates
        for s, t in all_pairs(graph.num_vertices):
            assert flat.query(s, t) == dyn.query(s, t)

    def test_from_flat_folds_source_overlay(self, setting):
        graph, _, dyn, delta = setting
        store = fresh_flat(setting)
        store.apply_updates(delta)
        quant = store.encoded("v3")
        assert not quant.has_pending_updates
        for s, t in all_pairs(graph.num_vertices):
            assert quant.query(s, t) == dyn.query(s, t)


class TestReencode:
    """``encoded`` against the overlaid store's own per-vertex labels:
    whole-column decode, splice and encode change no label."""

    @pytest.fixture(scope="class")
    def peeled(self):
        graph = glp_graph(150, seed=4)  # two thirds pendants
        index = HopDoublingIndex.build(graph)
        store = FlatLabelStore.from_index(index.labels)
        dyn = DynamicHopDoublingIndex.from_store(store, graph=graph)
        pendants = [v for v in range(store.n) if store.hang[v]]
        dyn.insert_edges([(pendants[0], pendants[-1]), (3, 140), (7, 99)])
        return index, dyn.pop_label_delta()

    @pytest.mark.parametrize("target", ["v2", "v3"])
    @pytest.mark.parametrize("source", ["v2", "v3"])
    def test_labels_match_overlaid_store(self, peeled, source, target):
        index, delta = peeled
        store = FlatLabelStore.from_index(index.labels).encoded(source)
        peeled_before = store.pendants
        store.apply_updates(delta)
        out = store.encoded(target)
        assert (out.encoding, out.has_pending_updates) == (target, False)
        assert out.pendants == store.pendants < peeled_before
        for v in range(store.n):
            assert out.out_label(v) == store.out_label(v)
        assert out.total_entries() == store.total_entries()
