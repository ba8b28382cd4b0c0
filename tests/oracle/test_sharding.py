"""Tests for the range-sharded label store and its manifest."""

import hashlib
import json

import pytest

from paper.baselines.pll import build_pll
from paper.labels import to_store
from paper.bench.workloads import random_pairs
from repro.core.labels import LabelStore
from repro.core.verify import verify_index
from repro.graphs.generators import ba_graph, glp_graph
from repro.oracle import (
    DistanceOracle,
    ShardedLabelStore,
    ShardError,
    load_manifest,
    split_ranges,
)
from repro.oracle.sharding import MANIFEST_NAME
from tests.conftest import patch_offset


@pytest.fixture(scope="module")
def undirected():
    graph = ba_graph(300, m=2, seed=7)
    index, _ = build_pll(graph)
    return graph, to_store(index)


@pytest.fixture(scope="module")
def directed_flat():
    graph = glp_graph(250, seed=11, directed=True)
    index, _ = build_pll(graph)
    return to_store(index)


@pytest.fixture
def shard_dir(undirected, tmp_path):
    _, flat = undirected
    path = tmp_path / "shards"
    ShardedLabelStore.split(flat, 3).save(path)
    return path


class TestSplitRanges:
    def test_even_split(self):
        assert split_ranges(9, 3) == [(0, 3), (3, 6), (6, 9)]

    def test_remainder_goes_to_leading_shards(self):
        assert split_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_single_shard(self):
        assert split_ranges(5, 1) == [(0, 5)]

    def test_shard_per_vertex(self):
        assert split_ranges(3, 3) == [(0, 1), (1, 2), (2, 3)]

    def test_zero_shards_rejected(self):
        with pytest.raises(ShardError, match=">= 1"):
            split_ranges(5, 0)

    def test_more_shards_than_vertices_rejected(self):
        with pytest.raises(ShardError, match="non-empty"):
            split_ranges(2, 3)


class TestShardedStore:
    def test_implements_label_store_protocol(self, undirected):
        _, flat = undirected
        sharded = ShardedLabelStore.split(flat, 3)
        assert isinstance(sharded, LabelStore)

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 7])
    def test_queries_bit_identical_to_flat(self, undirected, num_shards):
        _, flat = undirected
        sharded = ShardedLabelStore.split(flat, num_shards)
        pairs = random_pairs(flat.n, 300, seed=3)
        assert [sharded.query(s, t) for s, t in pairs] == [
            flat.query(s, t) for s, t in pairs
        ]

    def test_labels_and_stats_match_flat(self, undirected):
        _, flat = undirected
        sharded = ShardedLabelStore.split(flat, 4)
        for v in (0, 1, flat.n // 2, flat.n - 1):
            assert sharded.out_label(v) == flat.out_label(v)
            assert sharded.in_label(v) == flat.in_label(v)
        assert sharded.total_entries() == flat.total_entries()
        assert sharded.size_in_bytes() == flat.size_in_bytes()
        assert sharded.stats() == flat.stats()
        assert sharded.rank == list(flat.rank)

    def test_directed_store(self, directed_flat):
        sharded = ShardedLabelStore.split(directed_flat, 3)
        assert sharded.directed
        pairs = random_pairs(directed_flat.n, 200, seed=9)
        assert [sharded.query(s, t) for s, t in pairs] == [
            directed_flat.query(s, t) for s, t in pairs
        ]
        v = directed_flat.n // 2
        assert sharded.in_label(v) == directed_flat.in_label(v)

    def test_shard_of_routing(self, undirected):
        _, flat = undirected
        sharded = ShardedLabelStore.split(flat, 3)
        for i, (lo, hi) in enumerate(sharded.ranges):
            assert sharded.shard_of(lo) == i
            assert sharded.shard_of(hi - 1) == i
        with pytest.raises(IndexError):
            sharded.shard_of(flat.n)
        with pytest.raises(IndexError):
            sharded.query(0, flat.n)

    def test_works_under_oracle_and_verifier(self, undirected):
        graph, flat = undirected
        sharded = ShardedLabelStore.split(flat, 3)
        oracle = DistanceOracle(sharded)
        pairs = random_pairs(flat.n, 150, seed=21)
        assert oracle.query_batch(pairs) == [
            flat.query(s, t) for s, t in pairs
        ]
        assert oracle.nearest(17, k=5) == DistanceOracle(flat).nearest(17, k=5)
        assert verify_index(graph, sharded, samples=60).ok

    def test_split_from_tuple_list_index(self, undirected):
        graph, flat = undirected
        index, _ = build_pll(graph)
        sharded = ShardedLabelStore.split(to_store(index), 2)
        pairs = random_pairs(flat.n, 100, seed=2)
        assert [sharded.query(s, t) for s, t in pairs] == [
            flat.query(s, t) for s, t in pairs
        ]

    def test_resplit_to_new_shard_count(self, undirected):
        _, flat = undirected
        resharded = ShardedLabelStore.split(
            ShardedLabelStore.split(flat, 3), 5
        )
        assert resharded.num_shards == 5
        pairs = random_pairs(flat.n, 100, seed=41)
        assert [resharded.query(s, t) for s, t in pairs] == [
            flat.query(s, t) for s, t in pairs
        ]
        assert resharded.rank == list(flat.rank)


class TestSaveLoad:
    def test_round_trip(self, undirected, shard_dir):
        _, flat = undirected
        loaded = ShardedLabelStore.load(shard_dir)
        pairs = random_pairs(flat.n, 200, seed=13)
        assert [loaded.query(s, t) for s, t in pairs] == [
            flat.query(s, t) for s, t in pairs
        ]
        assert loaded.rank == list(flat.rank)

    def test_mmap_load(self, undirected, shard_dir):
        _, flat = undirected
        loaded = ShardedLabelStore.load(shard_dir, use_mmap=True)
        try:
            assert loaded.is_mmapped
            assert loaded.query(0, 100) == flat.query(0, 100)
        finally:
            loaded.close()

    def test_save_refuses_existing_directory(self, undirected, shard_dir):
        _, flat = undirected
        with pytest.raises(FileExistsError, match="--force"):
            ShardedLabelStore.split(flat, 2).save(shard_dir)

    def test_overwrite_removes_stale_shards(self, undirected, shard_dir):
        _, flat = undirected
        # 3 shards -> 2 shards: shard-0002.idx2 must not survive.
        ShardedLabelStore.split(flat, 2).save(shard_dir, overwrite=True)
        assert not (shard_dir / "shard-0002.idx2").exists()
        loaded = ShardedLabelStore.load(shard_dir)
        assert loaded.num_shards == 2
        assert loaded.query(1, 200) == flat.query(1, 200)

    def test_single_shard_degenerate(self, undirected, tmp_path):
        _, flat = undirected
        path = tmp_path / "one"
        ShardedLabelStore.split(flat, 1).save(path)
        loaded = ShardedLabelStore.load(path)
        assert loaded.num_shards == 1
        pairs = random_pairs(flat.n, 100, seed=31)
        assert [loaded.query(s, t) for s, t in pairs] == [
            flat.query(s, t) for s, t in pairs
        ]


def _edit_manifest(shard_dir, mutate):
    path = shard_dir / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    mutate(manifest)
    path.write_text(json.dumps(manifest))


class TestManifestFailureModes:
    @pytest.mark.parametrize("fmt", ["v2", "v3"])
    def test_corrupt_offsets_refused(self, undirected, tmp_path, fmt):
        """A shard file whose checksum matches but whose offsets column
        runs past its entries: the reader's offsets check refuses it."""
        _, flat = undirected
        root = tmp_path / "shards"
        ShardedLabelStore.split(flat, 3).save(root, format=fmt)
        shard = root / load_manifest(root)["shards"][1]["file"]
        patch_offset(shard, 11, 10**6)
        digest = hashlib.sha256(shard.read_bytes()).hexdigest()
        _edit_manifest(root, lambda m: m["shards"][1].update(sha256=digest))
        with pytest.raises(ShardError, match="corrupt offsets"):
            ShardedLabelStore.load(root, use_mmap=True)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ShardError, match="not a shard directory"):
            ShardedLabelStore.load(tmp_path / "nope")

    def test_missing_manifest(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ShardError, match="no manifest.json"):
            ShardedLabelStore.load(empty)

    def test_garbled_manifest(self, shard_dir):
        (shard_dir / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(ShardError, match="unreadable manifest"):
            ShardedLabelStore.load(shard_dir)

    def test_wrong_format_marker(self, shard_dir):
        _edit_manifest(shard_dir, lambda m: m.update(format="other"))
        with pytest.raises(ShardError, match="not a repro-shards manifest"):
            ShardedLabelStore.load(shard_dir)

    def test_unsupported_version(self, shard_dir):
        _edit_manifest(shard_dir, lambda m: m.update(version=99))
        with pytest.raises(ShardError, match="unsupported manifest version"):
            ShardedLabelStore.load(shard_dir)

    def test_missing_shard_file(self, shard_dir):
        (shard_dir / "shard-0001.idx2").unlink()
        with pytest.raises(ShardError, match="shard-0001.idx2.*missing"):
            ShardedLabelStore.load(shard_dir)

    def test_checksum_mismatch(self, shard_dir):
        path = shard_dir / "shard-0001.idx2"
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(blob)
        with pytest.raises(ShardError, match="checksum mismatch"):
            ShardedLabelStore.load(shard_dir)

    def test_checksum_verification_can_be_skipped(self, shard_dir):
        # Only the recorded digest is stale; the file itself is a valid
        # shard, so trusting the caller still yields a working store.
        _edit_manifest(
            shard_dir,
            lambda m: m["shards"][0].update(sha256="0" * 64),
        )
        with pytest.raises(ShardError, match="checksum mismatch"):
            ShardedLabelStore.load(shard_dir)
        loaded = ShardedLabelStore.load(shard_dir, verify_checksums=False)
        assert loaded.num_shards == 3

    def test_overlapping_ranges(self, shard_dir):
        def overlap(m):
            m["shards"][1]["lo"] -= 5

        _edit_manifest(shard_dir, overlap)
        with pytest.raises(ShardError, match="overlapping shard ranges"):
            ShardedLabelStore.load(shard_dir)

    def test_gapped_ranges(self, shard_dir):
        def gap(m):
            m["shards"][1]["lo"] += 5

        _edit_manifest(shard_dir, gap)
        with pytest.raises(ShardError, match="gap in shard ranges"):
            ShardedLabelStore.load(shard_dir)

    def test_cover_not_starting_at_zero(self, shard_dir):
        def shift(m):
            m["shards"][0]["lo"] = 1

        _edit_manifest(shard_dir, shift)
        with pytest.raises(ShardError, match="start at vertex 0"):
            ShardedLabelStore.load(shard_dir)

    def test_total_mismatch_with_n(self, shard_dir):
        _edit_manifest(shard_dir, lambda m: m.update(n=999_999))
        with pytest.raises(ShardError, match="manifest says n="):
            ShardedLabelStore.load(shard_dir)

    def test_missing_entry_fields(self, shard_dir):
        def drop(m):
            del m["shards"][2]["sha256"]

        _edit_manifest(shard_dir, drop)
        with pytest.raises(ShardError, match="missing fields.*sha256"):
            ShardedLabelStore.load(shard_dir)

    def test_shard_vertex_count_mismatch(self, undirected, shard_dir):
        # Replace shard 1's file (100 vertices) with a 75-vertex one.
        _, flat = undirected
        wrong = ShardedLabelStore.split(flat, 4).shards[0]
        wrong.save(shard_dir / "shard-0001.idx2")

        def fix_checksum(m):
            from repro.oracle.sharding import _sha256_file

            m["shards"][1]["sha256"] = _sha256_file(
                shard_dir / "shard-0001.idx2"
            )

        _edit_manifest(shard_dir, fix_checksum)
        with pytest.raises(ShardError, match="vertices, expected"):
            ShardedLabelStore.load(shard_dir)

    def test_load_manifest_happy_path(self, shard_dir):
        manifest = load_manifest(shard_dir)
        assert manifest["num_shards"] == 3
        assert [s["id"] for s in manifest["shards"]] == [0, 1, 2]
