"""The v3 codec's implied self entries (flag bit 3) and pivot patches
(flag bit 4): round trips at the width boundaries, every read path
against v2, hostile patch sections, and files of the first layout."""

from __future__ import annotations

import random
import struct
from array import array

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro import HopDoublingIndex
from repro.cli import main
from repro.core.flatstore import FlatLabelStore, load_store
from repro.graphs.digraph import Graph
from repro.graphs.generators import glp_graph
from repro.oracle import kernel
from repro.oracle.sharding import ShardedLabelStore
from tests.conftest import graph_strategy
from tests.reference.label_lists import label_lists
from tests.reference.v3_writer import write_v3_stored

HEADER = 31  # magic, version, flags, has_rank, n, two counts, four widths


def hand_store(labels, rank=None, n=None):
    """An undirected v2 store straight from per-vertex ``(pivot, dist)``
    lists (vertex ids), with ``rank`` attached when given."""
    offsets, pivots, dists = array("q", [0]), array("i"), array("d")
    for label in labels:
        for p, d in label:
            pivots.append(p)
            dists.append(d)
        offsets.append(len(pivots))
    n = len(labels) if n is None else n
    offsets.extend([len(pivots)] * (n - len(labels)))
    return FlatLabelStore(n, False, offsets, pivots, dists,
                          offsets, pivots, dists, rank)


def ranked_store(n, wide):
    """``n`` vertices ranked by id: every vertex ``v > 0`` points at the
    top hub, every 11th also at each pivot of ``wide`` below it (so
    the stored deltas are ``wide``'s steps), and ends with its self
    entry; vertex 0's label is its self entry alone (an empty stored
    row)."""
    labels = [[(0, 0.0)]]
    for v in range(1, n):
        label = [(0, float(v % 7 + 1))]
        if v % 11 == 0:
            label += [(p, 2.0) for p in sorted(wide) if p < v]
        labels.append(label + [(v, 0.0)])
    return hand_store(labels, rank=list(range(n)))


def same_reads(store, ref, pairs, vertices=None):
    """Every read of ``store`` matches ``ref``: labels (of ``vertices``,
    or all), scalar and batch answers."""
    if vertices is None:
        assert label_lists(store) == label_lists(ref)
    for v in vertices or ():
        assert store.out_label(v) == ref.out_label(v)
    want = [ref.query(s, t) for s, t in pairs]
    assert [store.query(s, t) for s, t in pairs] == want
    assert kernel.batch_eval(store, pairs) == want
    assert store.total_entries() == ref.total_entries()
    assert store.stats() == ref.stats()


def reopened(store, tmp_path, name="s.v3"):
    """``store`` saved and opened again, copied and memory-mapped."""
    path = tmp_path / name
    store.save(path)
    return path, load_store(path), load_store(path, use_mmap=True)


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("delta", [255, 256, 65_535, 65_536])
def test_rank_space_deltas_at_the_width_boundaries(delta, tmp_path):
    n = delta + 300
    v2 = ranked_store(n, [delta])
    v3 = v2.encoded("v3")
    assert v3.implied and v3.pivot_width == 1
    assert (v3.patch_count > 0) == (delta > 0xFF)
    rng = random.Random(delta)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(400)]
    pairs += [(0, 1), (delta + 11, delta)]
    vertices = sorted({s for s, _ in pairs} | set(range(delta - 30, n)))
    path, eager, mapped = reopened(v3, tmp_path)
    for store in (v3, eager, mapped):
        same_reads(store, v2, pairs, vertices)
    assert mapped.encoded("v2").out_pivots.tobytes() == bytes(
        v2.encoded("v2").out_pivots
    )
    mapped.close()


@pytest.mark.parametrize("delta", [255, 256, 65_535, 65_536, 1 << 24])
def test_id_space_deltas_at_the_width_boundaries(delta, tmp_path):
    """Vertex-id pivots (a shard's space) past every width, up to a
    four-byte high part; the labels decode whole, pivots beyond ``n``
    included."""
    labels = [[(0, 0.0), (delta, 1.0), (delta + 1, 2.0)], [], [(1, 0.0)]]
    labels += [[(v, 0.0)] for v in range(3, 40)]
    v2 = hand_store(labels)
    v3 = v2.encoded("v3")
    assert not v3.ranked and not v3.implied
    _, eager, mapped = reopened(v3, tmp_path)
    for store in (v3, eager, mapped):
        assert label_lists(store) == label_lists(v2)
        assert store.encoded("v2").out_label(0) == v2.out_label(0)
    assert (v3.pivot_width, v3.patch_count) == ((1, 0) if delta < 256 else (1, 1))
    if v3.patch_count:
        high = delta >> 8
        width = 1 if high <= 0xFF else 2 if high <= 0xFFFF else 4
        assert v3.high_width == width
    mapped.close()


def test_a_label_of_only_its_self_entry_and_empty_rows(tmp_path):
    """The top vertex's row stores nothing and reads back ``[(0, 0)]``;
    a pendant's row stays empty and reads back its derived label."""
    graph = glp_graph(300, seed=4)
    labels = HopDoublingIndex.build(graph).labels
    v3 = labels.encoded("v3")
    top = labels.rank.index(0)
    assert v3.out_offsets[top] == v3.out_offsets[top + 1]
    assert v3.out_label(top) == labels.out_label(top)
    assert v3._label_len(top, True) == labels._label_len(top, True) == 1
    pendant = next(v for v in range(v3.n) if v3.hang[v])
    assert v3._label_len(pendant, True) == 0
    pairs = [(s, t) for s in range(0, 300, 7) for t in range(300)]
    _, eager, mapped = reopened(v3, tmp_path)
    for store in (v3, eager, mapped):
        same_reads(store, labels, pairs)
    mapped.close()


def test_scalar_row_and_batch_gather_decode_alike():
    v3 = ranked_store(2_000, [300, 1_000, 40]).encoded("v3")
    assert v3.patch_count > 0
    columns = v3._label_columns()[0]
    every = np.arange(v3.n, dtype=np.int64)
    piv, dist, lens = columns.gather(every)
    at = np.concatenate(([0], np.cumsum(lens)))
    for v in range(v3.n):
        p, d, own = columns.row(v)
        p, d = p.tolist() + [own], d.tolist() + [0.0]
        assert p == piv[at[v] : at[v + 1]].tolist()
        assert d == dist[at[v] : at[v + 1]].tolist()


@pytest.mark.parametrize("kind", ["directed", "fractional"])
def test_directed_and_f64_distances(kind, tmp_path):
    rng = random.Random(8)
    graph = glp_graph(400, seed=6, directed=kind == "directed")
    if kind == "fractional":
        edges = [(u, v, rng.randint(1, 12) / 4) for u, v, _ in graph.edges()]
        graph = Graph.from_edges(400, edges, directed=False, weighted=True)
    labels = HopDoublingIndex.build(graph).labels
    v3 = labels.encoded("v3")
    assert v3.implied
    if kind == "fractional":
        assert v3.dist_width == 8
    pairs = [(rng.randrange(400), rng.randrange(400)) for _ in range(600)]
    _, eager, mapped = reopened(v3, tmp_path)
    for store in (v3, eager, mapped):
        same_reads(store, labels, pairs)
    mapped.close()


def test_shard_files_take_patches_only(tmp_path):
    """Shards stay in vertex ids: their files may patch wide deltas,
    never imply self entries, and answer like the whole store."""
    labels = HopDoublingIndex.build(glp_graph(1_500, seed=2)).labels
    ShardedLabelStore.split(labels, 3).save(tmp_path / "shards", format="v3")
    sharded = ShardedLabelStore.load(tmp_path / "shards", use_mmap=True)
    assert not any(shard.implied for shard in sharded.shards)
    assert any(shard.patch_count for shard in sharded.shards)
    rng = random.Random(3)
    pairs = [(rng.randrange(1_500), rng.randrange(1_500)) for _ in range(500)]
    want = [labels.query(s, t) for s, t in pairs]
    assert [sharded.query(s, t) for s, t in pairs] == want
    assert kernel.batch_eval(sharded, pairs) == want
    assert sharded.rank == labels.rank
    for v in range(0, 1_500, 11):
        assert sharded.out_label(v) == labels.out_label(v)
    sharded.close()


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(graph=graph_strategy(max_n=30, min_n=1, pendants=True))
def test_drawn_graphs_round_trip(graph, tmp_path):
    labels = HopDoublingIndex.build(graph).labels
    n = graph.num_vertices
    pairs = [(s, t) for s in range(n) for t in range(n)]
    v3 = labels.encoded("v3")
    path = tmp_path / "drawn.v3"
    v3.save(path)
    mapped = load_store(path, use_mmap=True)
    for store in (v3, mapped):
        same_reads(store, labels, pairs)
    assert mapped.encoded("v2").out_label(0) == labels.out_label(0)
    mapped.close()


def test_a_label_without_its_self_entry_is_refused():
    """The writer would imply an entry the labels do not hold."""
    v2 = ranked_store(50, [3])
    bad = hand_store(
        [v2.out_label(v) for v in range(49)] + [[(0, 1.0)]], rank=v2.rank
    )
    with pytest.raises(ValueError, match="does not end with its self entry"):
        bad.encoded("v3")
    moved = hand_store(
        [v2.out_label(v) for v in range(49)] + [[(0, 1.0), (49, 2.0)]],
        rank=v2.rank,
    )
    with pytest.raises(ValueError, match="does not end with its self entry"):
        moved.encoded("v3")


# ---------------------------------------------------------------------------
# Hostile patch sections
# ---------------------------------------------------------------------------


def _patched_file(tmp_path):
    """A patched rank-space file (no pendants) and where its patch
    section starts: count, positions, high parts."""
    v3 = ranked_store(1_000, [300, 700]).encoded("v3")
    path = tmp_path / "good.v3"
    v3.save(path)
    n, entries = v3.n, len(v3.out_pivots)
    section = HEADER + 4 * n + 4 * (n + 1) + entries * (1 + v3.dist_width)
    return bytearray(path.read_bytes()), section, v3.patch_count, entries


def _refused(tmp_path, data, match):
    path = tmp_path / "bad.v3"
    path.write_bytes(bytes(data))
    for use_mmap in (False, True):
        with pytest.raises(ValueError, match=match):
            load_store(path, use_mmap=use_mmap)


def test_hostile_patch_sections_are_refused_at_open(tmp_path):
    data, section, count, entries = _patched_file(tmp_path)
    assert struct.unpack_from("<I", data, section) == (count,) and count > 2
    at = section + 4
    first, second = struct.unpack_from("<II", data, at)
    backwards = bytearray(data)
    struct.pack_into("<II", backwards, at, second, first)
    _refused(tmp_path, backwards, "positions must rise strictly")
    repeated = bytearray(data)
    struct.pack_into("<I", repeated, at + 4, first)
    _refused(tmp_path, repeated, "positions must rise strictly")
    beyond = bytearray(data)
    struct.pack_into("<I", beyond, at + 4 * (count - 1), entries)
    _refused(tmp_path, beyond, "stay below the entry count")
    too_many = bytearray(data)
    struct.pack_into("<I", too_many, section, entries + 1)
    _refused(tmp_path, too_many, r"corrupt patch section \(\d+ patches for")
    _refused(tmp_path, data[:-1], "truncated")
    _refused(tmp_path, data[: section + 2], "truncated")
    unannounced = bytearray(data)
    unannounced[5] &= ~16
    unannounced[30] = 0
    _refused(tmp_path, unannounced, "bytes after the last section")
    no_width = bytearray(data)
    no_width[30] = 0
    _refused(tmp_path, no_width, "corrupt header .high-part width 0")
    stray_width = bytearray(data)
    stray_width[5] &= ~16
    _refused(tmp_path, stray_width, "corrupt header .high-part width")
    for bit in (32, 64, 128):
        unknown = bytearray(data)
        unknown[5] |= bit
        _refused(tmp_path, unknown, "unknown header flag bits")


def test_eight_byte_offsets_read_alike(tmp_path):
    """``off_width`` 8 widens the offsets, the patch count and the
    patch positions; every read stays the same."""
    data, section, count, _ = _patched_file(tmp_path)
    n, offsets_at = 1_000, HEADER + 4 * 1_000

    def widened(at, values):
        return np.frombuffer(data, "<u4", values, at).astype("<u8").tobytes()

    wide = data[:HEADER] + data[HEADER:offsets_at] + widened(offsets_at, n + 1)
    wide += data[offsets_at + 4 * (n + 1) : section] + widened(section, count + 1)
    wide += data[section + 4 * (count + 1) :]
    wide[27] = 8
    path = tmp_path / "wide.v3"
    path.write_bytes(bytes(wide))
    rng = random.Random(4)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(300)]
    for use_mmap in (False, True):
        store = load_store(path, use_mmap=use_mmap)
        assert store.out_offsets.itemsize == 8 and store.patch_count == count
        same_reads(store, ranked_store(n, [300, 700]), pairs)
        store.close()


# ---------------------------------------------------------------------------
# Files of the first v3 layout
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("directed", [False, True], ids=["undir", "dir"])
def test_first_layout_files_open_and_convert(directed, tmp_path, capsys):
    graph = glp_graph(600, seed=9, directed=directed)
    labels = HopDoublingIndex.build(graph).labels
    old = tmp_path / "old.v3"
    write_v3_stored(labels, old)
    assert old.read_bytes()[5] == (1 if directed else 2) | 4
    rng = random.Random(1)
    pairs = [(rng.randrange(600), rng.randrange(600)) for _ in range(500)]
    for use_mmap in (False, True):
        store = load_store(old, use_mmap=use_mmap)
        assert store.ranked and not store.implied and store.patches is None
        same_reads(store, labels, pairs)
        store.close()
    new = tmp_path / "new.v3"
    assert main(["convert", str(old), "-o", str(new), "--format", "v3"]) == 0
    labels.encoded("v3").save(tmp_path / "built.v3")
    assert new.read_bytes() == (tmp_path / "built.v3").read_bytes()
    assert new.stat().st_size < old.stat().st_size
    ids = tmp_path / "ids.v3"
    write_v3_stored(labels, ids, ranked=False)
    same_reads(load_store(ids), labels, pairs)
