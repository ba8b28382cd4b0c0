"""Tests for the compact quantized binary format v3."""

import struct
from array import array

import pytest

from repro.core.flatstore import FlatLabelStore, load_store
from repro.core.hybrid import HybridBuilder
from repro.core.labels import LabelIndex
from repro.core.quantized import QuantizedLabelStore
from repro.graphs.generators import glp_graph
from tests.conftest import random_graph


def build_index(n=80, seed=5, directed=False, weighted=False):
    if weighted:
        g = random_graph(seed, max_n=n, directed=False, weighted=True)
    else:
        g = glp_graph(n, seed=seed, directed=directed)
    return HybridBuilder(g).build().index


@pytest.fixture(scope="module", params=[False, True], ids=["undir", "dir"])
def stores(request):
    idx = build_index(directed=request.param)
    flat = FlatLabelStore.from_index(idx)
    return idx, flat, flat.encoded("v3")


def make_flat(labels, n=None):
    """A tiny undirected flat store straight from per-vertex labels."""
    n = n if n is not None else len(labels)
    offsets = array("q", [0])
    pivots = array("i")
    dists = array("d")
    for lab in labels:
        for p, d in lab:
            pivots.append(p)
            dists.append(d)
        offsets.append(len(pivots))
    return FlatLabelStore(
        n, False, offsets, pivots, dists, offsets, pivots, dists
    )


class TestRoundTrip:
    def test_labels_preserved(self, stores):
        idx, flat, q = stores
        for v in range(idx.n):
            assert q.out_label(v) == idx.out_labels[v]
            assert q.in_label(v) == idx.in_labels[v]

    def test_v2_v3_v2_round_trip(self, stores):
        _, flat, q = stores
        back = q.encoded("v2")
        assert list(back.out_offsets) == list(flat.out_offsets)
        assert list(back.out_pivots) == list(flat.out_pivots)
        assert list(back.out_dists) == list(flat.out_dists)
        if flat.directed:
            assert list(back.in_pivots) == list(flat.in_pivots)
            assert list(back.in_dists) == list(flat.in_dists)

    def test_to_index_round_trip(self, stores):
        idx, _, q = stores
        back = q.to_index()
        assert back.out_labels == idx.out_labels
        assert back.in_labels == idx.in_labels
        assert back.rank == idx.rank

    def test_queries_bit_identical(self, stores):
        idx, flat, q = stores
        pairs = [(s, t) for s in range(0, idx.n, 7) for t in range(idx.n)]
        assert [q.query(s, t) for s, t in pairs] == [
            flat.query(s, t) for s, t in pairs
        ]
        assert [q.query_via(s, t) for s, t in pairs] == [
            flat.query_via(s, t) for s, t in pairs
        ]

    def test_undirected_arrays_alias(self, stores):
        idx, _, q = stores
        if not idx.directed:
            assert q.in_pivots is q.out_pivots

    def test_counts_match(self, stores):
        idx, flat, q = stores
        assert q.total_entries() == flat.total_entries()
        assert q.size_in_bytes() == flat.size_in_bytes()
        assert q.stats() == flat.stats()
        assert q.storage_bytes() < flat.storage_bytes()

    def test_from_index_classmethod(self, stores):
        idx, _, q = stores
        q2 = QuantizedLabelStore.from_index(idx)
        assert q2.to_index().out_labels == idx.out_labels

    def test_from_flat_idempotent(self, stores):
        """Re-encoding to the store's own encoding, nothing staged,
        hands back the store itself."""
        _, flat, q = stores
        assert q.encoded("v3") is q
        assert flat.encoded("v2") is flat
        assert q.encoding == "v3" and flat.encoding == "v2"
        with pytest.raises(ValueError, match="encoding"):
            flat.encoded("v4")

    def test_weighted_falls_back_to_raw_dists(self):
        from repro.graphs.digraph import Graph

        edges = [(0, 1, 0.5), (1, 2, 1.25), (2, 3, 2.0), (3, 0, 0.75)]
        g = Graph.from_edges(4, edges, directed=False, weighted=True)
        idx = HybridBuilder(g).build().index
        flat = FlatLabelStore.from_index(idx)
        q = flat.encoded("v3")
        assert q.dist_width == 8
        for v in range(idx.n):
            assert q.out_label(v) == idx.out_labels[v]
        pairs = [(s, t) for s in range(4) for t in range(4)]
        assert [q.query(s, t) for s, t in pairs] == [
            flat.query(s, t) for s, t in pairs
        ]


class TestWidthSelection:
    def test_dist_boundary_255(self):
        q = make_flat([[(0, 0.0), (1, 255.0)], [(1, 0.0)]]).encoded("v3")
        assert q.dist_width == 1

    def test_dist_boundary_256(self):
        q = make_flat([[(0, 0.0), (1, 256.0)], [(1, 0.0)]]).encoded("v3")
        assert q.dist_width == 2

    def test_dist_boundary_65535(self):
        q = make_flat([[(0, 0.0), (1, 65535.0)], [(1, 0.0)]]).encoded("v3")
        assert q.dist_width == 2

    def test_dist_boundary_65536(self):
        q = make_flat([[(0, 0.0), (1, 65536.0)], [(1, 0.0)]]).encoded("v3")
        assert q.dist_width == 8

    def test_fractional_dist_raw(self):
        q = make_flat([[(0, 0.0), (1, 2.5)], [(1, 0.0)]]).encoded("v3")
        assert q.dist_width == 8

    def test_pivot_delta_boundary_255(self):
        q = make_flat([[(0, 0.0), (255, 1.0)], [(1, 0.0)]], n=2).encoded("v3")
        assert q.pivot_width == 1

    def test_pivot_delta_boundary_256(self):
        q = make_flat([[(0, 0.0), (256, 1.0)], [(1, 0.0)]], n=2).encoded("v3")
        assert q.pivot_width == 2

    def test_pivot_delta_boundary_65536(self):
        q = make_flat([[(0, 0.0), (65536, 1.0)], [(1, 0.0)]], n=2).encoded("v3")
        assert q.pivot_width == 4

    def test_widths_round_trip(self):
        flat = make_flat(
            [[(0, 0.0), (300, 7.0), (400, 300.0)], [(1, 0.0)]], n=2
        )
        q = flat.encoded("v3")
        assert (q.pivot_width, q.dist_width) == (2, 2)
        back = q.encoded("v2")
        assert back.out_label(0) == flat.out_label(0)


class TestSerialization:
    def test_save_load_eager_and_mmap(self, stores, tmp_path):
        idx, flat, q = stores
        path = tmp_path / "index.idx3"
        q.save(path)
        pairs = [(s, t) for s in range(0, idx.n, 9) for t in range(idx.n)]
        expected = [flat.query(s, t) for s, t in pairs]
        eager = FlatLabelStore.load(path)
        mapped = FlatLabelStore.load(path, use_mmap=True)
        try:
            assert not eager.is_mmapped
            assert mapped.is_mmapped
            for loaded in (eager, mapped):
                assert loaded.pivot_width == q.pivot_width
                assert loaded.dist_width == q.dist_width
                assert loaded.rank == q.rank
                assert [loaded.query(s, t) for s, t in pairs] == expected
                for v in range(idx.n):
                    assert loaded.out_label(v) == q.out_label(v)
        finally:
            mapped.close()

    def test_mmap_close_releases(self, stores, tmp_path):
        _, _, q = stores
        path = tmp_path / "index.idx3"
        q.save(path)
        mapped = FlatLabelStore.load(path, use_mmap=True)
        mapped.query(0, 1)
        mapped.close()
        assert not mapped.is_mmapped

    def test_load_store_dispatches_v3(self, stores, tmp_path):
        _, _, q = stores
        path = tmp_path / "index.idx3"
        q.save(path)
        loaded = load_store(path)
        assert loaded.encoding == "v3"

    def test_label_index_load_reads_v3(self, stores, tmp_path):
        idx, _, q = stores
        path = tmp_path / "index.idx3"
        q.save(path)
        back = LabelIndex.load(path)
        assert back.out_labels == idx.out_labels

    def test_file_much_smaller_than_v2(self, stores, tmp_path):
        _, flat, q = stores
        p2 = tmp_path / "index.idx2"
        p3 = tmp_path / "index.idx3"
        flat.save(p2)
        q.save(p3)
        assert p3.stat().st_size <= 0.5 * p2.stat().st_size


class TestCorruption:
    def _saved(self, tmp_path):
        idx = build_index()
        q = FlatLabelStore.from_index(idx).encoded("v3")
        path = tmp_path / "index.idx3"
        q.save(path)
        return path

    def test_wrong_magic(self, tmp_path):
        path = self._saved(tmp_path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="not a label index"):
            FlatLabelStore.load(path)

    def test_wrong_version(self, tmp_path):
        path = self._saved(tmp_path)
        data = bytearray(path.read_bytes())
        data[4] = 7
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="version"):
            FlatLabelStore.load(path)

    @pytest.mark.parametrize(
        "offset, name",
        # Header layout: magic(4) version flags has_rank n(4) out(8)
        # in(8) then off/pivot/dist width bytes at 27, 28, 29.
        [(27, "offset"), (28, "pivot"), (29, "distance")],
    )
    def test_invalid_width_bytes_rejected(self, tmp_path, offset, name):
        path = self._saved(tmp_path)
        data = bytearray(path.read_bytes())
        data[offset] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=f"corrupt header.*{name}"):
            FlatLabelStore.load(path)

    @pytest.mark.parametrize("use_mmap", [False, True])
    def test_truncated_body(self, tmp_path, use_mmap):
        path = self._saved(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated or corrupt"):
            FlatLabelStore.load(path, use_mmap=use_mmap)

    def test_truncated_header(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(ValueError, match="truncated or corrupt"):
            FlatLabelStore.load(path)

    def test_header_width_shape(self):
        # Guard against silent header layout drift: the width bytes
        # live right after the counts, as documented.
        header = struct.Struct("<BBBIQQBBBB")
        assert 4 + header.size == 31
