"""Tests for the compact quantized binary format v3."""

import struct
from array import array

import pytest

from repro import HopDoublingIndex
from repro.core.flatstore import FlatLabelStore, load_store
from repro.core.hybrid import HybridBuilder
from repro.core.quantized import QuantizedLabelStore
from repro.core.ranking import degree_ranking
from repro.core.verify import verify_index
from repro.graphs.generators import glp_graph
from repro.graphs.transform import permute_vertices
from tests.conftest import random_graph
from tests.reference.label_lists import as_label_index, label_lists


def build_store(n=80, seed=5, directed=False, weighted=False):
    if weighted:
        g = random_graph(seed, max_n=n, directed=False, weighted=True)
    else:
        g = glp_graph(n, seed=seed, directed=directed)
    return HybridBuilder(g).build().index


@pytest.fixture(scope="module", params=[False, True], ids=["undir", "dir"])
def stores(request):
    """The built labels as tuple lists, the v2 store and its v3 twin."""
    flat = build_store(directed=request.param)
    return as_label_index(flat), flat, flat.encoded("v3")


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
        """v3 columns read back as the v2 store's lists."""
        idx, _, q = stores
        assert label_lists(q) == (idx.out_labels, idx.in_labels)
        assert q.rank == idx.rank

    def test_queries_bit_identical(self, stores):
        idx, flat, q = stores
        pairs = [(s, t) for s in range(0, idx.n, 7) for t in range(idx.n)]
        assert [q.query(s, t) for s, t in pairs] == [
            flat.query(s, t) for s, t in pairs
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
        idx, flat, q = stores
        q2 = QuantizedLabelStore.from_index(flat)
        assert q2.encoding == "v3"
        assert label_lists(q2)[0] == idx.out_labels

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
        flat = HybridBuilder(g).build().index
        q = flat.encoded("v3")
        assert q.dist_width == 8
        for v in range(flat.n):
            assert q.out_label(v) == flat.out_label(v)
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
        """A v3 file reads back as the lists the store was built with."""
        idx, _, q = stores
        path = tmp_path / "index.idx3"
        q.save(path)
        assert label_lists(load_store(path))[0] == idx.out_labels

    def test_file_much_smaller_than_v2(self, stores, tmp_path):
        _, flat, q = stores
        p2 = tmp_path / "index.idx2"
        p3 = tmp_path / "index.idx3"
        flat.save(p2)
        q.save(p3)
        assert p3.stat().st_size <= 0.5 * p2.stat().st_size


class TestCorruption:
    def _saved(self, tmp_path):
        q = build_store().encoded("v3")
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


def _flags(path) -> int:
    return path.read_bytes()[5]


class TestRankSpace:
    """Header flag bit 2: a store with a rank column writes its v3
    pivots as rank positions, every label sorted by position."""

    def test_v2_v3_v2_round_trip_equals_source(self, stores, tmp_path):
        _, flat, q = stores
        assert q.ranked and not flat.ranked
        flat.save(tmp_path / "a.v2")
        q.save(tmp_path / "a.v3")
        assert _flags(tmp_path / "a.v3") & 4
        loaded = load_store(tmp_path / "a.v3")
        assert loaded.ranked
        loaded.encoded("v2").save(tmp_path / "b.v2")
        assert (tmp_path / "b.v2").read_bytes() == (
            tmp_path / "a.v2"
        ).read_bytes()

    def test_labels_sorted_by_position_self_last(self, stores):
        _, flat, q = stores
        vertex = q.rank_space().vertex
        sides = [(q.out_offsets, q.out_pivots, flat.out_label)]
        if q.directed:
            sides.append((q.in_offsets, q.in_pivots, flat.in_label))
        for offsets, pivots, label in sides:
            for v in range(q.n):
                positions, acc = [], 0
                for delta in pivots[offsets[v] : offsets[v + 1]]:
                    acc += delta
                    positions.append(acc)
                assert positions == sorted(set(positions))
                assert positions[-1] == q.rank[v]  # the self entry
                ids = sorted(int(vertex[p]) for p in positions)
                assert ids == [p for p, _ in label(v)]

    def test_store_without_rank_stays_in_ids(self, stores, tmp_path):
        _, flat, _ = stores
        bare = FlatLabelStore(
            flat.n, flat.directed,
            flat.out_offsets, flat.out_pivots, flat.out_dists,
            flat.in_offsets, flat.in_pivots, flat.in_dists,
        )
        q = bare.encoded("v3")
        assert not q.ranked
        q.save(tmp_path / "bare.v3")
        assert not _flags(tmp_path / "bare.v3") & 4
        loaded = load_store(tmp_path / "bare.v3")
        assert not loaded.ranked and loaded.rank is None
        assert loaded.encoded("v3") is loaded
        assert label_lists(loaded) == label_lists(bare)
        loaded.save(tmp_path / "again.v3")
        assert (tmp_path / "again.v3").read_bytes() == (
            tmp_path / "bare.v3"
        ).read_bytes()
        with pytest.raises(ValueError, match="rank"):
            bare.encoded("v3", ranked=True)

    def test_id_space_file_converts_to_rank_space(self, stores, tmp_path):
        """What ``repro convert old.v3 -o new.v3`` does to a v3 file
        that carries ranks but stores vertex ids."""
        _, flat, q = stores
        old = flat.encoded("v3", ranked=False)
        assert not old.ranked and old.rank is not None
        old.save(tmp_path / "old.v3")
        loaded = load_store(tmp_path / "old.v3")
        assert not loaded.ranked
        new = loaded.encoded("v3")
        assert new is not loaded and new.ranked
        new.save(tmp_path / "new.v3")
        q.save(tmp_path / "q.v3")
        assert (tmp_path / "new.v3").read_bytes() == (
            tmp_path / "q.v3"
        ).read_bytes()

    def test_width_follows_rank_space_deltas(self):
        """Hubs relabelled to the highest ids: as ids, every label's
        first pivot needs two bytes; as rank positions every stored
        value (the pendants' rows are empty) fits in one."""
        graph = glp_graph(400, seed=1)
        rank_of = degree_ranking(graph).rank_of
        hubs_last = permute_vertices(graph, [399 - r for r in rank_of])
        labels = HopDoublingIndex.build(hubs_last).labels
        by_rank, by_id = labels.encoded("v3"), labels.encoded("v3", ranked=False)
        assert max(by_id.out_pivots) > 0xFF >= max(by_rank.out_pivots)
        assert (by_rank.pivot_width, by_id.pivot_width) == (1, 2)

    @pytest.mark.parametrize(
        "fmt, flip, has_rank, match",
        [
            ("v2", 4, 1, "unknown header flag bits"),
            ("v3", 0, 0, "rank-space pivots without a rank column"),
            ("v3", 8, 1, "unknown header flag bits"),
        ],
        ids=["bit2-on-v2", "bit2-without-rank", "bit3"],
    )
    def test_reader_refuses_at_open(
        self, stores, tmp_path, fmt, flip, has_rank, match
    ):
        _, flat, q = stores
        path = tmp_path / f"bad.{fmt}"
        (flat if fmt == "v2" else q).save(path)
        data = bytearray(path.read_bytes())
        data[5] |= flip
        data[6] = has_rank
        path.write_bytes(bytes(data))
        for use_mmap in (False, True):
            with pytest.raises(ValueError, match=match):
                load_store(path, use_mmap=use_mmap)

    def test_rank_not_a_permutation(self, tmp_path):
        graph = glp_graph(80, seed=5)
        index = HopDoublingIndex.build(graph)
        index.save(tmp_path / "g.v2", format="v2")
        index.save(tmp_path / "g.v3", format="v3")
        data = bytearray((tmp_path / "g.v3").read_bytes())
        rank = struct.unpack_from("<80I", data, 31)  # after the header
        struct.pack_into("<I", data, 31 + 4, rank[0])  # two vertices, one rank
        (tmp_path / "g.v3").write_bytes(bytes(data))
        store = load_store(tmp_path / "g.v3")  # opening maps nothing
        with pytest.raises(ValueError, match="not a permutation"):
            store.out_label(0)
        report = verify_index(graph, store)
        assert "rank column is not a permutation of the vertices" in (
            report.violations
        )
        # Distances never need the map: the file's own space answers.
        v2 = load_store(tmp_path / "g.v2")
        pairs = [(s, t) for s in range(0, 80, 3) for t in range(80)]
        assert [store.query(s, t) for s, t in pairs] == [
            v2.query(s, t) for s, t in pairs
        ]
