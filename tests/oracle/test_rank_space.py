"""Every read of a rank-space v3 store speaks vertex ids.

A v3 store with a ``rank`` column holds its pivots as rank positions
(header flag bit 2).  Distances never need the map back, but every
read that hands out a pivot does: ``out_label`` / ``in_label``, k-NN,
one-to-all, paths, ``verify`` and the kernel's ``label_entries`` (what
update adoption reads).  Staged overlay rows hold vertex ids and are
moved into rank space when the kernel fills them, and shard files
stay in vertex ids.  This file holds each read to the v2 store of the
same labels and to Dijkstra, on an undirected store with pendants and
on a directed one.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import HopDoublingIndex
from repro.core.dynamic import DynamicHopDoublingIndex
from repro.core.flatstore import load_store
from repro.core.verify import verify_index
from repro.graphs.digraph import Graph
from repro.graphs.generators import glp_graph
from repro.graphs.traversal import dijkstra_distances
from repro.oracle import DistanceOracle, ShardedLabelStore, kernel
from repro.oracle.sharding import MANIFEST_NAME, ShardError

N = 300


def _graph(directed: bool) -> Graph:
    # Density ~2: two thirds of the undirected vertices are pendants.
    return glp_graph(N, seed=4, directed=directed)


def _new_edges(graph: Graph, count: int = 10) -> list[tuple[int, int]]:
    rng = random.Random(9)
    edges = set()
    while len(edges) < count:
        u, v = rng.randrange(N), rng.randrange(N)
        if u != v and not graph.has_edge(u, v):
            edges.add((u, v))
    return sorted(edges)


def _grown(graph: Graph, edges) -> Graph:
    both = [(u, v) for u, v, _ in graph.edges()] + list(edges)
    return Graph.from_edges(N, both, directed=graph.directed)


def _truth(graph: Graph, pairs) -> list[float]:
    rows = {s: dijkstra_distances(graph, s) for s in {s for s, _ in pairs}}
    return [rows[s][t] for s, t in pairs]


def _pairs(count: int, seed: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    return [(rng.randrange(N), rng.randrange(N)) for _ in range(count)]


@pytest.fixture(scope="module", params=[False, True], ids=["undir", "dir"])
def files(request, tmp_path_factory):
    """The graph and a v2 and a rank-space v3 file of its labels."""
    graph = _graph(request.param)
    root = tmp_path_factory.mktemp("rank-space")
    index = HopDoublingIndex.build(graph)
    index.save(root / "g.v2", format="v2")
    index.save(root / "g.v3", format="v3")
    return graph, root / "g.v2", root / "g.v3"


def _open(files):
    """A fresh v2 and rank-space v3 store, neither read yet."""
    _, p2, p3 = files
    v2, v3 = load_store(p2), load_store(p3, use_mmap=True)
    assert v3.ranked and not v2.ranked
    return v2, v3


def test_labels_read_back_in_vertex_ids(files):
    v2, v3 = _open(files)
    for v in range(N):
        for side in ("out_label", "in_label"):
            label = getattr(v3, side)(v)
            assert label == getattr(v2, side)(v)
            assert [p for p, _ in label] == sorted(p for p, _ in label)
    v3.close()


def test_pendant_label_inserts_itself_by_id(tmp_path):
    # Directed stores peel no pendants: this reads the undirected one.
    graph = _graph(False)
    index = HopDoublingIndex.build(graph)
    index.save(tmp_path / "g.v2", format="v2")
    index.save(tmp_path / "g.v3", format="v3")
    v2, v3 = _open((graph, tmp_path / "g.v2", tmp_path / "g.v3"))
    pendants = [v for v in range(N) if v3.hang[v]]
    assert len(pendants) > N // 2
    for v in pendants:
        label = v3.out_label(v)
        assert label == v2.out_label(v)
        assert (v, 0.0) in label
        assert [p for p, _ in label] == sorted(p for p, _ in label)
    v3.close()


def test_knn_paths_and_verify(files):
    graph, _, _ = files
    v2, v3 = _open(files)
    o2, o3 = DistanceOracle(v2, graph=graph), DistanceOracle(v3, graph=graph)
    for s in range(0, N, 23):
        assert o3.nearest(s, 8) == o2.nearest(s, 8)
        truth = dijkstra_distances(graph, s)
        assert o3.distances_from(s) == o2.distances_from(s) == truth
        assert o3.distances_to(s) == o2.distances_to(s)
        for t in range(5, N, 37):
            path = o3.reconstruct_path(s, t)
            assert path == o2.reconstruct_path(s, t)
            if path is not None:  # unweighted: one hop per edge
                hops = list(zip(path, path[1:]))
                assert all(graph.has_edge(a, b) for a, b in hops)
                assert len(hops) == truth[t]
    assert verify_index(graph, v3, samples=400).ok
    o3.close()


def test_label_entries_and_update_adoption(files):
    graph, _, _ = files
    v2, v3 = _open(files)

    def rows(store):
        a, b, d = kernel.label_entries(store)
        return sorted(zip(a.tolist(), b.tolist(), d.tolist()))

    assert rows(v3) == rows(v2)
    edges = _new_edges(graph)
    deltas = []
    for store in (v2, v3):
        dyn = DynamicHopDoublingIndex.from_store(store, graph=graph)
        dyn.insert_edges(edges)
        delta = dyn.pop_label_delta()
        deltas.append((delta.out, delta.inn))
    assert deltas[0] == deltas[1]
    v3.close()


@pytest.mark.parametrize("count", [300, 2_000], ids=["pairwise", "grouped"])
def test_reads_with_staged_rows(files, count, tmp_path):
    """Scalar and batch reads over staged overlay rows (vertex ids)
    match v2 and Dijkstra on the grown graph, cold and warm; the
    merged file re-encodes to the merged v2 file."""
    graph, _, _ = files
    edges = _new_edges(graph)
    grown = _grown(graph, edges)
    v2, v3 = _open(files)
    dyn = DynamicHopDoublingIndex.from_store(v2, graph=graph)
    dyn.insert_edges(edges)
    delta = dyn.pop_label_delta()
    staged = sorted(delta.vertices())
    assert staged
    pairs = _pairs(count, seed=count)
    pairs += [(s, t) for s in staged[:6] for t in staged]
    want = _truth(grown, pairs)
    scalar_v3, batch_v3 = v3, load_store(files[2], use_mmap=True)
    for store in (v2, scalar_v3, batch_v3):
        store.apply_updates(delta)
    # Cold: the scalar read fills row by row, the batch gathers.
    assert [scalar_v3.query(s, t) for s, t in pairs] == want
    assert kernel.batch_eval(batch_v3, pairs) == want
    assert [v2.query(s, t) for s, t in pairs] == want
    # Warm: both now read filled rows, each the other's kind.
    assert kernel.batch_eval(scalar_v3, pairs) == want
    assert [batch_v3.query(s, t) for s, t in pairs] == want
    for v in staged:
        assert scalar_v3.out_label(v) == v2.out_label(v)
        assert scalar_v3.in_label(v) == v2.in_label(v)
    scalar_v3.save(tmp_path / "merged.v3")
    v2.save(tmp_path / "merged.v2")
    merged = load_store(tmp_path / "merged.v3")
    assert merged.ranked
    assert [merged.query(s, t) for s, t in pairs] == want
    merged.encoded("v2").save(tmp_path / "back.v2")
    assert (tmp_path / "back.v2").read_bytes() == (
        tmp_path / "merged.v2"
    ).read_bytes()
    scalar_v3.close()
    batch_v3.close()


@pytest.mark.parametrize("fill", ["batch", "scalar"])
def test_staged_rows_fill_sorted_by_position(files, fill):
    """A filled staged row keeps its tail in rank order, which the
    pairwise join's sorted source keys rely on: the batch gather and
    the scalar read's one-row fill alike."""
    graph, _, _ = files
    v2, v3 = _open(files)
    dyn = DynamicHopDoublingIndex.from_store(v2, graph=graph)
    dyn.insert_edges(_new_edges(graph))
    delta = dyn.pop_label_delta()
    v3.apply_updates(delta)
    staged = sorted(delta.vertices())
    pairs = [(v, (v + 1) % N) for v in staged] + [((v + 1) % N, v) for v in staged]
    if fill == "batch":
        kernel.batch_eval(v3, pairs)
    else:
        for s, t in pairs:
            v3.query(s, t)
    for rows in {id(r): r for r in (v3._view.out, v3._view.inn)}.values():
        for v in staged:
            assert rows.filled[v]
            start, size = rows.tail_start[v], rows.tail_len[v]
            tail = rows.tail_piv[start : start + size]
            assert (np.diff(tail) > 0).all()
    v3.close()


def test_save_keeps_the_store_pivot_space(files, tmp_path):
    """An id-space v3 file (ranks carried, flag bit 2 clear) saved with
    staged rows stays in vertex ids; only ``encoded`` moves it."""
    graph, p2, _ = files
    edges = _new_edges(graph)
    old = load_store(p2).encoded("v3", ranked=False)
    assert not old.ranked and old.rank is not None
    dyn = DynamicHopDoublingIndex.from_store(old, graph=graph)
    dyn.insert_edges(edges)
    old.apply_updates(dyn.pop_label_delta())
    old.save(tmp_path / "old.v3")
    assert not (tmp_path / "old.v3").read_bytes()[5] & 4
    merged = load_store(tmp_path / "old.v3")
    pairs = _pairs(400, seed=5)
    assert [merged.query(s, t) for s, t in pairs] == _truth(
        _grown(graph, edges), pairs
    )
    assert merged.encoded("v3").ranked


def test_shards_stay_in_vertex_ids(files, tmp_path):
    """Split, re-split and reconcile write every shard in vertex ids
    (flag bit 2 clear): a shard's slice of ``rank`` cannot map back."""
    graph, _, _ = files
    v2, v3 = _open(files)
    root = tmp_path / "shards"
    sharded = ShardedLabelStore.split(v3, 3)
    assert not any(shard.ranked for shard in sharded.shards)
    sharded.save(root, format="v3")
    ShardedLabelStore.split(v2, 3).save(tmp_path / "from-v2", format="v3")
    assert (root / MANIFEST_NAME).read_bytes() == (
        tmp_path / "from-v2" / MANIFEST_NAME
    ).read_bytes()
    edges = _new_edges(graph)
    dyn = DynamicHopDoublingIndex.from_store(v2, graph=graph)
    dyn.insert_edges(edges)
    delta = dyn.pop_label_delta()
    loaded = ShardedLabelStore.load(root)
    loaded.apply_updates(delta)
    assert loaded.reconcile(root)
    resplit = ShardedLabelStore.split(loaded, 2)
    resplit.save(tmp_path / "resplit", format="v3")
    for directory in (root, tmp_path / "resplit"):
        for shard_file in directory.glob("shard-*"):
            assert not shard_file.read_bytes()[5] & 4
    pairs = _pairs(500, seed=3)
    want = _truth(_grown(graph, edges), pairs)
    assert [loaded.query(s, t) for s, t in pairs] == want
    assert [resplit.query(s, t) for s, t in pairs] == want
    with pytest.raises(ShardError, match="rank-space"):
        ShardedLabelStore([v3], [(0, N)])
    loaded.close()
    v3.close()
