"""Tests for the CSR flat-array label store and binary format v2."""

import struct

import pytest

from repro.core.flatstore import FlatLabelStore, load_store
from repro.core.hybrid import HybridBuilder
from repro.core.index import HopDoublingIndex
from repro.core.labels import INF, LabelIndex
from repro.graphs.generators import ba_graph, glp_graph
from repro.oracle import DistanceOracle
from tests.conftest import patch_offset, random_graph


def build_index(n=80, seed=5, directed=False):
    g = glp_graph(n, seed=seed, directed=directed)
    return HybridBuilder(g).build().index


@pytest.fixture(scope="module", params=[False, True], ids=["undir", "dir"])
def index_pair(request):
    idx = build_index(directed=request.param)
    return idx, FlatLabelStore.from_index(idx)


class TestConversion:
    def test_labels_preserved(self, index_pair):
        idx, flat = index_pair
        for v in range(idx.n):
            assert flat.out_label(v) == idx.out_labels[v]
            assert flat.in_label(v) == idx.in_labels[v]

    def test_to_index_round_trip(self, index_pair):
        idx, flat = index_pair
        back = flat.to_index()
        assert back.out_labels == idx.out_labels
        assert back.in_labels == idx.in_labels
        assert back.rank == idx.rank
        assert back.directed == idx.directed

    def test_undirected_arrays_alias(self):
        flat = FlatLabelStore.from_index(build_index(directed=False))
        assert flat.in_pivots is flat.out_pivots
        assert flat.in_offsets is flat.out_offsets
        back = flat.to_index()
        assert back.in_labels is back.out_labels

    def test_directed_arrays_distinct(self):
        flat = FlatLabelStore.from_index(build_index(directed=True))
        assert flat.in_pivots is not flat.out_pivots

    def test_counts_and_bytes_match(self, index_pair):
        idx, flat = index_pair
        assert flat.total_entries() == idx.total_entries()
        assert flat.total_entries(include_trivial=True) == idx.total_entries(
            include_trivial=True
        )
        assert flat.size_in_bytes() == idx.size_in_bytes()
        assert flat.stats() == idx.stats()
        assert flat.storage_bytes() > 0


class TestQueries:
    def test_query_matches_merge_join(self, index_pair):
        idx, flat = index_pair
        for s in range(0, idx.n, 5):
            for t in range(0, idx.n, 7):
                assert flat.query(s, t) == idx.query(s, t)

    def test_query_via_matches(self, index_pair):
        idx, flat = index_pair
        for s in range(0, idx.n, 5):
            for t in range(0, idx.n, 7):
                assert flat.query_via(s, t) == idx.query_via(s, t)

    def test_bounds_checked(self, index_pair):
        idx, flat = index_pair
        with pytest.raises(IndexError):
            flat.query(0, idx.n)
        with pytest.raises(IndexError):
            flat.query_via(-1, 0)
        # Batches below the kernel's size take the same scalar path.
        oracle = DistanceOracle(flat, cache_size=0)
        with pytest.raises(IndexError):
            oracle.query_batch([(idx.n, 0)])
        with pytest.raises(IndexError):
            oracle.query_batch([(0, 1), (0, idx.n)])

    def test_disconnected_is_inf(self):
        from repro.graphs.digraph import Graph

        g = Graph.from_edges(4, [(0, 1), (2, 3)], directed=False)
        idx = HybridBuilder(g).build().index
        flat = FlatLabelStore.from_index(idx)
        assert flat.query(0, 3) == INF
        assert flat.query_via(0, 3) == (INF, -1)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_graphs_agree(self, seed):
        g = random_graph(seed, max_n=30)
        idx = HybridBuilder(g).build().index
        flat = FlatLabelStore.from_index(idx)
        for s in range(g.num_vertices):
            for t in range(g.num_vertices):
                assert flat.query(s, t) == idx.query(s, t)


class TestFormatV2:
    @pytest.mark.parametrize("use_mmap", [False, True], ids=["read", "mmap"])
    def test_save_load_round_trip(self, tmp_path, index_pair, use_mmap):
        idx, flat = index_pair
        path = tmp_path / "x.idx2"
        flat.save(path)
        loaded = FlatLabelStore.load(path, use_mmap=use_mmap)
        assert loaded.n == flat.n
        assert loaded.directed == flat.directed
        assert list(loaded.rank) == list(idx.rank)
        for v in range(0, idx.n, 3):
            assert loaded.out_label(v) == idx.out_labels[v]
            assert loaded.in_label(v) == idx.in_labels[v]
        for s, t in [(0, 1), (5, 40), (7, 7), (12, 61)]:
            assert loaded.query(s, t) == idx.query(s, t)

    def test_undirected_load_aliases(self, tmp_path):
        flat = FlatLabelStore.from_index(build_index(directed=False))
        path = tmp_path / "u.idx2"
        flat.save(path)
        loaded = FlatLabelStore.load(path)
        assert loaded.in_pivots is loaded.out_pivots

    def test_v1_v2_equivalence_on_disk(self, tmp_path, index_pair):
        """Same labels through either format answer identically."""
        idx, flat = index_pair
        p1 = tmp_path / "a.idx"
        p2 = tmp_path / "a.idx2"
        idx.save(p1)
        flat.save(p2)
        from_v1 = load_store(p1)
        from_v2 = load_store(p2)
        for s in range(0, idx.n, 9):
            for t in range(0, idx.n, 4):
                expected = idx.query(s, t)
                assert from_v1.query(s, t) == expected
                assert from_v2.query(s, t) == expected

    def test_label_index_load_reads_v2(self, tmp_path, index_pair):
        idx, flat = index_pair
        path = tmp_path / "x.idx2"
        flat.save(path)
        loaded = LabelIndex.load(path)
        assert loaded.out_labels == idx.out_labels
        assert loaded.in_labels == idx.in_labels

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.idx2"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(ValueError, match="not a label index"):
            FlatLabelStore.load(path)
        with pytest.raises(ValueError, match="not a label index"):
            load_store(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "v9.idx2"
        path.write_bytes(b"RPLI" + struct.pack("<BBBIQQ", 9, 0, 0, 1, 0, 0))
        with pytest.raises(ValueError, match="version"):
            FlatLabelStore.load(path)
        with pytest.raises(ValueError, match="version"):
            load_store(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.idx2"
        path.write_bytes(b"RPLI\x02\x00")
        with pytest.raises(ValueError, match="truncated"):
            FlatLabelStore.load(path)

    @pytest.mark.parametrize("keep", [0.25, 0.5, 0.9])
    def test_truncated_body_rejected(self, tmp_path, index_pair, keep):
        _, flat = index_pair
        full = tmp_path / "full.idx2"
        flat.save(full)
        data = full.read_bytes()
        cut = tmp_path / "cut.idx2"
        cut.write_bytes(data[: 27 + int((len(data) - 27) * keep)])
        with pytest.raises(ValueError, match="truncated"):
            FlatLabelStore.load(cut)

    @pytest.mark.parametrize("keep", [0.25, 0.9])
    def test_truncated_mmap_load_releases_mapping(self, tmp_path,
                                                  index_pair, keep):
        _, flat = index_pair
        full = tmp_path / "full.idx2"
        flat.save(full)
        data = full.read_bytes()
        cut = tmp_path / "cut.idx2"
        cut.write_bytes(data[: 27 + int((len(data) - 27) * keep)])
        with pytest.raises(ValueError, match="truncated"):
            FlatLabelStore.load(cut, use_mmap=True)
        # The failed load must not keep the file mapped (BufferError
        # here, or the file staying in /proc/self/maps, means a leak).
        import pathlib

        maps = pathlib.Path("/proc/self/maps")
        if maps.exists():
            assert str(cut) not in maps.read_text()

    def test_close_releases_mapping(self, tmp_path, index_pair):
        _, flat = index_pair
        path = tmp_path / "x.idx2"
        flat.save(path)
        loaded = FlatLabelStore.load(path, use_mmap=True)
        assert loaded.is_mmapped
        loaded.query(0, 1)
        loaded.close()
        assert not loaded.is_mmapped
        loaded.close()  # idempotent
        path.unlink()  # file is deletable once unmapped

    def test_close_noop_for_owned_arrays(self, index_pair):
        _, flat = index_pair
        flat.close()
        assert flat.query(0, 0) == 0.0

    def test_load_store_prefers_backend(self, tmp_path, index_pair):
        idx, _ = index_pair
        p1 = tmp_path / "a.idx"
        idx.save(p1)
        assert isinstance(load_store(p1), FlatLabelStore)
        assert isinstance(load_store(p1, prefer_flat=False), LabelIndex)


class TestCorruptOffsets:
    """The one reader refuses an offsets column that does not delimit
    its side's entries, in either encoding, before anything is served."""

    @pytest.fixture(scope="class")
    def ba(self):
        return HopDoublingIndex.build(ba_graph(300, m=2, seed=1))

    @pytest.mark.parametrize(
        "case", ["past the end", "decreasing", "nonzero start", "short end"]
    )
    @pytest.mark.parametrize("use_mmap", [False, True])
    @pytest.mark.parametrize("fmt", ["v2", "v3"])
    def test_refused_at_open(self, ba, fmt, use_mmap, case, tmp_path):
        path = tmp_path / f"ba.{fmt}"
        ba.save(path, format=fmt)
        offsets = list(load_store(path).out_offsets)
        n, count = len(offsets) - 1, offsets[-1]
        k, value = {
            "past the end": (11, count + 5),
            "decreasing": (11, offsets[12] + 1),
            "nonzero start": (0, 1),
            "short end": (n, count - 1),
        }[case]
        patch_offset(path, k, value)
        with pytest.raises(ValueError, match="corrupt offsets"):
            load_store(path, use_mmap=use_mmap)
        import pathlib

        maps = pathlib.Path("/proc/self/maps")
        if maps.exists():
            assert str(path) not in maps.read_text()


class TestEndianness:
    def test_big_endian_host_round_trips_and_writes_le(self, tmp_path,
                                                       monkeypatch):
        """Simulate a big-endian host: blobs must byteswap on save and
        load so the on-disk format stays little-endian."""
        import repro.core.flatstore as fs

        flat = FlatLabelStore.from_index(build_index(n=40, seed=9))
        native = tmp_path / "native.idx2"
        flat.save(native)

        monkeypatch.setattr(fs, "_BIG_ENDIAN", True)
        swapped = tmp_path / "be.idx2"
        flat.save(swapped)
        # Byteswapped blobs differ from the native-LE file...
        assert swapped.read_bytes() != native.read_bytes()
        # ...but headers match and the BE loader swaps them back.
        assert swapped.read_bytes()[:27] == native.read_bytes()[:27]
        loaded = FlatLabelStore.load(swapped)
        for v in range(flat.n):
            assert loaded.out_label(v) == flat.out_label(v)
        assert list(loaded.rank) == list(flat.rank)

    def test_big_endian_mmap_falls_back_to_copy(self, tmp_path, monkeypatch):
        """use_mmap on a big-endian host must copy (views can't swap)
        and report is_mmapped=False so close() stays a no-op."""
        import repro.core.flatstore as fs

        flat = FlatLabelStore.from_index(build_index(n=40, seed=9))
        monkeypatch.setattr(fs, "_BIG_ENDIAN", True)
        path = tmp_path / "be.idx2"
        flat.save(path)
        loaded = FlatLabelStore.load(path, use_mmap=True)
        assert not loaded.is_mmapped
        loaded.close()  # no-op: arrays are owned, store stays usable
        assert loaded.query(0, 1) == flat.query(0, 1)


class TestV1Compatibility:
    def test_frozen_v1_byte_layout_still_loads(self, tmp_path):
        """A v1 file written with the original byte layout (frozen here,
        independent of the current writer) must keep loading."""
        out_labels = [[(0, 0.0)], [(0, 1.0), (1, 0.0)], [(0, 2.0), (2, 0.0)]]
        rank = [0, 1, 2]
        blob = b"RPLI" + struct.pack("<BBBI", 1, 0, 1, 3)
        blob += struct.pack("<3I", *rank)
        for lab in out_labels:
            blob += struct.pack("<I", len(lab))
            for p, d in lab:
                blob += struct.pack("<Id", p, d)
        path = tmp_path / "legacy.idx"
        path.write_bytes(blob)

        idx = LabelIndex.load(path)
        assert idx.n == 3
        assert not idx.directed
        assert idx.out_labels == out_labels
        assert idx.query(1, 2) == 3.0  # via pivot 0

        flat = load_store(path)
        assert isinstance(flat, FlatLabelStore)
        assert flat.query(1, 2) == 3.0
        assert flat.rank == rank


class TestAtomicWrites:
    def test_no_temp_residue_after_save(self, tmp_path, index_pair):
        idx, flat = index_pair
        idx.save(tmp_path / "a.idx")
        flat.save(tmp_path / "a.idx2")
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"a.idx", "a.idx2"}

    def test_failed_save_keeps_previous_file(self, tmp_path, index_pair,
                                             monkeypatch):
        idx, flat = index_pair
        path = tmp_path / "a.idx2"
        flat.save(path)
        good = path.read_bytes()

        # Make the next write blow up mid-stream: the destination must
        # keep its previous contents and no temp file may remain.
        import os

        real_fdopen = os.fdopen

        class ExplodingFile:
            def __init__(self, fh):
                self.fh = fh
                self.writes = 0

            def write(self, data):
                self.writes += 1
                if self.writes > 2:
                    raise OSError("disk full")
                return self.fh.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()
                return False

        def exploding_fdopen(fd, *a, **kw):
            return ExplodingFile(real_fdopen(fd, *a, **kw))

        monkeypatch.setattr(os, "fdopen", exploding_fdopen)
        with pytest.raises(OSError, match="disk full"):
            flat.save(path)
        monkeypatch.undo()

        assert path.read_bytes() == good
        assert {p.name for p in tmp_path.iterdir()} == {"a.idx2"}
        assert FlatLabelStore.load(path).query(0, 1) == idx.query(0, 1)
