"""Pendant vertices are not labelled: one differential for the peel.

``HopDoublingIndex.build`` labels the core of an undirected graph and
answers every degree-1 vertex through its neighbour.  This file checks
the rule ``dist(s, t) = hang[s] + dist(parent[s], parent[t]) + hang[t]``
on every read surface against Dijkstra, before and after updates that
un-peel vertices, and that hostile pendant sections are refused.
"""

from __future__ import annotations

import asyncio
import os
import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro import DistanceOracle, HopDoublingIndex, ParallelOracle, ShardedLabelStore
from repro.core.dynamic import DynamicHopDoublingIndex
from repro.core.flatstore import FlatLabelStore, load_store
from repro.core.hybrid import make_builder
from repro.core.quantized import QuantizedLabelStore
from repro.core.ranking import make_ranking
from repro.core.verify import verify_index
from repro.graphs.digraph import Graph
from repro.graphs.generators import ba_graph, glp_graph
from repro.graphs.io import read_edge_list, write_edge_list
from repro.graphs.transform import peel_pendants
from repro.graphs.traversal import dijkstra_distances
from repro.oracle import kernel
from repro.oracle.sharding import ShardError
from repro.serve import DistanceClient, DistanceServer, fanout_available
from tests.conftest import graph_strategy

np = pytest.importorskip("numpy", reason="the batch kernel requires numpy")

SRC = Path(__file__).resolve().parents[2] / "src"
FORMATS = {"v2": FlatLabelStore, "v3": QuantizedLabelStore}

#: Two hubs (0, 1) joined through 2; pendants 3, 4 under hub 0 (4 by a
#: fractional edge) and 5 under hub 1; a star component 6 - {7, 8} no
#: other vertex reaches; a K2 component 9 - 10; 11 isolated.
NAMED = Graph.from_edges(
    12,
    [(0, 1, 2.0), (0, 2, 1.0), (1, 2, 1.0), (0, 3, 3.0), (0, 4, 0.5),
     (1, 5, 1.0), (6, 7, 2.0), (6, 8, 1.0), (9, 10, 4.0)],
    directed=False,
    weighted=True,
)


def all_pairs(n: int) -> list[tuple[int, int]]:
    return [(s, t) for s in range(n) for t in range(n)]


def truth_of(graph: Graph, pairs) -> list[float]:
    rows: dict[int, list[float]] = {}
    for s, _ in pairs:
        if s not in rows:
            rows[s] = dijkstra_distances(graph, s)
    return [rows[s][t] for s, t in pairs]


def store_surfaces(store):
    """``(name, answer(pairs))`` for one in-memory store, every path."""
    yield "query", lambda ps: [store.query(s, t) for s, t in ps]
    yield "query_via", lambda ps: [store.query_via(s, t)[0] for s, t in ps]
    for mode in ("on", "off"):
        oracle = DistanceOracle(store, cache_size=0, kernel=mode)
        yield f"kernel={mode}", oracle.query_batch


def check_stores(index, graph, pairs, tmp_path, shards=True):
    """Every file format, eager and mmap, flat and 3-sharded, is exact."""
    want = truth_of(graph, pairs)
    assert [index.labels.query(s, t) for s, t in pairs] == want
    for fmt, cls in FORMATS.items():
        path = tmp_path / f"index.{fmt}"
        index.save(path, format=fmt)
        for use_mmap in (False, True):
            store = load_store(path, use_mmap=use_mmap)
            assert type(store) is cls
            for name, answer in store_surfaces(store):
                assert answer(pairs) == want, (fmt, use_mmap, name)
            store.close()
        if shards:
            shard_dir = tmp_path / f"shards.{fmt}"
            ShardedLabelStore.split(
                cls.from_index(index.labels), min(3, graph.num_vertices)
            ).save(shard_dir, format=fmt, overwrite=True)
            with ParallelOracle(shard_dir, workers=2, cache_size=0) as oracle:
                assert oracle.query_batch(pairs) == want, (fmt, "sharded")
                for name, answer in store_surfaces(oracle.store):
                    assert answer(pairs) == want, (fmt, "sharded", name)


# ---------------------------------------------------------------------------
# Reads
# ---------------------------------------------------------------------------


def test_named_cases(tmp_path):
    index = HopDoublingIndex.build(NAMED)
    labels = index.labels
    assert list(labels.parent) == [0, 1, 2, 0, 0, 1, 6, 6, 6, 9, 10, 11]
    assert list(labels.hang) == [0, 0, 0, 3.0, 0.5, 1.0, 0, 2.0, 1.0, 0, 0, 0]
    assert index.stats().pendants == 5
    cases = {
        (3, 4): 3.5,            # both ends on one parent
        (3, 0): 3.0,            # pendant <-> its own parent
        (0, 4): 0.5,
        (4, 4): 0.0,            # s == t on a pendant
        (3, 5): 6.0,            # pendant <-> pendant across parents
        (7, 8): 3.0,            # a component of nothing but a star
        (7, 3): float("inf"),   # ... no other vertex reaches
        (9, 10): 4.0,           # K2 keeps both ends
        (11, 4): float("inf"),  # isolated
    }
    assert truth_of(NAMED, list(cases)) == list(cases.values())
    check_stores(index, NAMED, list(cases) + all_pairs(12), tmp_path)
    # The derived label: the parent's, moved out by hang, plus (v, 0).
    flat = FlatLabelStore.from_index(labels)
    assert flat.out_label(4) == [(0, 0.5), (4, 0.0)]
    assert flat.out_offsets[4] == flat.out_offsets[5]
    assert verify_index(NAMED, flat, samples=400).ok


@settings(max_examples=25, deadline=None)
@given(graph=graph_strategy(max_n=10, max_m=14, directed=False,
                            fractional=True, pendants=True))
def test_every_store_surface_exact(graph, tmp_path_factory):
    index = HopDoublingIndex.build(graph)
    check_stores(
        index, graph, all_pairs(graph.num_vertices),
        tmp_path_factory.mktemp("peel"),
    )
    assert verify_index(graph, FlatLabelStore.from_index(index.labels)).ok


@settings(max_examples=25, deadline=None)
@given(graph=graph_strategy(max_n=10, max_m=14, directed=False,
                            weighted=False, pendants=True))
def test_derived_label_is_the_unpeeled_label(graph):
    """... under any ranking, because only pendants that rank below
    their neighbour are peeled."""
    for ranking in ("degree", "random"):
        rank = make_ranking(graph, ranking)
        peeled = HopDoublingIndex.build(graph, ranking=rank).labels
        whole = make_builder(graph, "hybrid", ranking=rank).build().index
        assert peeled.out_labels == whole.out_labels
        flat = QuantizedLabelStore.from_index(peeled)
        for v in range(graph.num_vertices):
            assert flat.out_label(v) == whole.out_labels[v]
            assert flat.in_label(v) == whole.out_labels[v]
        core_rows = sum(
            len(whole.out_labels[v])
            for v in range(graph.num_vertices)
            if not (peeled.hang is not None and peeled.hang[v])
        )
        assert flat.total_entries(include_trivial=True) == core_rows


def test_a_degree_one_vertex_that_outranks_its_neighbour_stays_core():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)], directed=False)
    _, parent, hang = peel_pendants(star, [1, 0, 2, 3])
    assert parent == [0, 1, 0, 0] and hang == [0.0, 0.0, 1.0, 1.0]
    assert peel_pendants(star, [3, 0, 1, 2]) == (star, None, None)
    directed = Graph.from_edges(3, [(0, 1), (0, 2)], directed=True)
    assert peel_pendants(directed, [0, 1, 2]) == (directed, None, None)


def test_glp_every_serving_surface(tmp_path):
    graph = glp_graph(2000, seed=5)
    index = HopDoublingIndex.build(graph)
    stats = index.stats()
    assert stats.pendants > 1000 and stats.core_vertices == 2000 - stats.pendants
    rng = random.Random(17)
    pairs = [(rng.randrange(2000), rng.randrange(2000)) for _ in range(2000)]
    want = truth_of(graph, pairs)
    check_stores(index, graph, pairs, tmp_path)
    shard_dir = tmp_path / "shards.v3"
    for route in ("auto", "fanout") if fanout_available() else ("auto",):
        with ParallelOracle(
            shard_dir, workers=2, cache_size=0, route=route
        ) as oracle:
            assert oracle.query_batch(pairs) == want
            assert (oracle.shard_hits is not None) == (route == "fanout")
            info = kernel.view_info(oracle.store)
            assert info["pendants"] == stats.pendants
            assert info["core_vertices"] == stats.core_vertices
            # The hub columns come from a sample of core rows: an
            # evenly spaced sample by id would find most labels empty.
            assert info["hub_columns"] >= 40

    async def over_the_wire():
        with ParallelOracle(tmp_path / "index.v3", cache_size=0) as backend:
            server = DistanceServer(backend, port=0)
            host, port = await server.start()
            client = await DistanceClient.connect(host, port)
            try:
                framed = await client.query(pairs[:300])
                raw = await client.request(
                    {"pairs": [list(p) for p in pairs[:300]]}
                )
                served = (await client.stats())["kernel"]["view"]
            finally:
                await client.aclose()
                await server.aclose()
        return framed, raw["distances"], served

    framed, json_line, served = asyncio.run(over_the_wire())
    assert framed == want[:300]
    assert [float("inf") if d is None else d for d in json_line] == want[:300]
    assert served["pendants"] == stats.pendants


# ---------------------------------------------------------------------------
# Updates un-peel
# ---------------------------------------------------------------------------

#: Hub 0 with pendants 5, 6, 7; a second hub 1 with pendant 8; a far
#: triangle 2-3-4 joined to hub 1; 9 and 10 isolated.  Under the degree
#: ranking every pendant outranks the isolated vertices (ties by id).
BASE_EDGES = [(0, 1), (0, 5), (0, 6), (0, 7), (1, 8), (1, 2), (2, 3), (3, 4), (2, 4)]
INSERTIONS = {
    "pendant to a lower-ranked isolated vertex": [(5, 9)],
    "two pendants of one parent": [(6, 7)],
    "far from any pendant": [(3, 10)],
    "all at once": [(5, 9), (6, 7), (3, 10), (8, 4)],
}


@pytest.mark.parametrize("case", INSERTIONS)
@pytest.mark.parametrize("fmt", FORMATS)
def test_updates_unpeel(case, fmt, tmp_path):
    base = Graph.from_edges(11, BASE_EDGES, directed=False)
    grown = Graph.from_edges(11, BASE_EDGES + INSERTIONS[case], directed=False)
    index = HopDoublingIndex.build(base)
    assert index.stats().pendants == 4
    pairs = all_pairs(11)
    want = truth_of(grown, pairs)
    path, shard_dir = tmp_path / f"base.{fmt}", tmp_path / "shards"
    index.save(path, format=fmt)
    ShardedLabelStore.split(FORMATS[fmt].from_index(index.labels), 3).save(
        shard_dir, format=fmt
    )
    store = load_store(path, use_mmap=True)
    sharded = ShardedLabelStore.load(shard_dir, use_mmap=True)
    for served in (store, sharded):
        DistanceOracle(served, cache_size=0).query_batch(pairs)  # fills rows

    dyn = DynamicHopDoublingIndex.from_store(store, graph=base)
    assert dyn.insert_edges(INSERTIONS[case]) == len(INSERTIONS[case])
    delta = dyn.pop_label_delta()
    for u, v in INSERTIONS[case]:
        assert {u, v} <= delta.vertices()  # endpoints, changed or not
    assert [dyn.query(s, t) for s, t in pairs] == want

    def exact(served, stage):
        for name, answer in store_surfaces(served):
            assert answer(pairs) == want, (stage, name)
        assert verify_index(grown, served, samples=400).ok, stage

    for served in (store, sharded):
        served.apply_updates(delta)
        exact(served, "staged")
    merged = store.merged()
    assert type(merged) is FORMATS[fmt]
    exact(merged, "merged")
    touched = {v for edge in INSERTIONS[case] for v in edge}
    assert merged.pendants == len({5, 6, 7, 8} - touched)
    merged.save(tmp_path / "merged")
    sharded.reconcile(shard_dir)
    exact(sharded, "reconciled")
    sharded.close()
    store.close()
    for reloaded in (
        load_store(tmp_path / "merged", use_mmap=True),
        ShardedLabelStore.load(shard_dir, use_mmap=True),
    ):
        exact(reloaded, "reloaded")
        assert reloaded.stats().pendants == merged.pendants
        reloaded.close()


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------


def _bytes(path) -> bytes:
    return Path(path).read_bytes()


_NUMPY_FREE = """
import sys
sys.modules["numpy"] = None
from repro import HopDoublingIndex
from repro.graphs.io import read_edge_list
graph = read_edge_list(sys.argv[1], directed=False, weighted=True)
index = HopDoublingIndex.build(graph)
assert index.labels._store is None and index.stats().pendants > 0
for fmt in ("v2", "v3"):
    index.save(sys.argv[2] + "/free." + fmt, format=fmt)
print("ok")
"""


@pytest.mark.parametrize("quarter_weights", [False, True])
def test_engines_write_identical_files(quarter_weights, tmp_path):
    """Array engine, dict engine and the numpy-free path: same bytes."""
    rng = random.Random(3)
    scale = 4 if quarter_weights else 1
    write_edge_list(
        Graph.from_edges(
            300,
            [(u, v, rng.randint(1, 9) / scale)
             for u, v, _ in glp_graph(300, seed=23).edges()],
            directed=False,
            weighted=True,
        ),
        tmp_path / "g.txt",
    )
    # Reading renumbers the vertices: both processes read the file.
    graph = read_edge_list(tmp_path / "g.txt", directed=False, weighted=True)
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE, str(tmp_path / "g.txt"), str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    for fmt in FORMATS:
        for engine in ("array", "dict"):
            HopDoublingIndex.build(graph, engine=engine).save(
                tmp_path / f"{engine}.{fmt}", format=fmt
            )
        assert _bytes(tmp_path / f"array.{fmt}") == _bytes(tmp_path / f"dict.{fmt}")
        assert _bytes(tmp_path / f"array.{fmt}") == _bytes(tmp_path / f"free.{fmt}")
    v3 = load_store(tmp_path / "array.v3")
    assert v3.pendants > 100
    # Fractional pendant edges force raw f64 distances, hangs included.
    assert v3.dist_width == (8 if quarter_weights else 1)
    assert v3.hang.itemsize == v3.dist_width


def test_no_pendants_no_flag_and_round_trips(tmp_path):
    """BA m=2 has no pendant: flag clear, nothing appended; a peeled
    index survives convert v2 <-> v3, sharding and a v1 expansion."""
    plain = HopDoublingIndex.build(ba_graph(200, m=2, seed=4))
    assert plain.labels.hang is None and plain.stats().pendants == 0
    for fmt in FORMATS:
        plain.save(tmp_path / f"plain.{fmt}", format=fmt)
        assert _bytes(tmp_path / f"plain.{fmt}")[5] == 0  # flags byte

    graph = glp_graph(400, seed=2)
    index = HopDoublingIndex.build(graph)
    index.save(tmp_path / "a.v2", format="v2")
    index.save(tmp_path / "a.v3", format="v3")
    assert _bytes(tmp_path / "a.v2")[5] == _bytes(tmp_path / "a.v3")[5] == 2
    v2, v3 = load_store(tmp_path / "a.v2"), load_store(tmp_path / "a.v3")
    QuantizedLabelStore.from_flat(v2).save(tmp_path / "b.v3")
    v3.to_flat().save(tmp_path / "b.v2")
    assert _bytes(tmp_path / "b.v3") == _bytes(tmp_path / "a.v3")
    assert _bytes(tmp_path / "b.v2") == _bytes(tmp_path / "a.v2")
    # Through shards and back: each file carries its own slice.
    sharded = ShardedLabelStore.split(v3, 4)
    sharded.save(tmp_path / "shards", format="v3")
    again = ShardedLabelStore.load(tmp_path / "shards")
    assert again.stats().pendants == v2.pendants == index.stats().pendants
    ShardedLabelStore.split(again, 1).shards[0].save(tmp_path / "c.v2")
    assert _bytes(tmp_path / "c.v2") == _bytes(tmp_path / "a.v2")
    # v1 has no section: it holds the expanded labels.
    index.save(tmp_path / "a.v1", format="v1")
    expanded = load_store(tmp_path / "a.v1")
    assert expanded.hang is None
    assert expanded.out_label(399) == v2.out_label(399) == v3.out_label(399)
    assert verify_index(graph, expanded).ok and verify_index(graph, again).ok


def _hostile(tmp_path, fmt):
    """A small peeled file and the byte offsets of its pendant section."""
    index = HopDoublingIndex.build(NAMED)
    path = tmp_path / f"good.{fmt}"
    index.save(path, format=fmt)
    data = bytearray(path.read_bytes())
    hang_width = load_store(path).hang.itemsize
    parent_at = len(data) - 12 * (4 + hang_width)
    return data, parent_at, parent_at + 12 * 4, hang_width


def _refused(tmp_path, data, match):
    path = tmp_path / "bad"
    path.write_bytes(bytes(data))
    for use_mmap in (False, True):
        with pytest.raises(ValueError, match=match):
            load_store(path, use_mmap=use_mmap)


@pytest.mark.parametrize("fmt", FORMATS)
def test_hostile_sections_are_load_errors(fmt, tmp_path):
    data, parent_at, hang_at, _ = _hostile(tmp_path, fmt)
    _refused(tmp_path, data[:-1], "truncated")
    _refused(tmp_path, data[:parent_at], "truncated")  # flagged, no section
    unflagged = bytearray(data)
    unflagged[5] &= ~2  # ... and a section no flag announces
    _refused(tmp_path, unflagged, "bytes after the last section")
    for bit in (4, 128):
        unknown = bytearray(data)
        unknown[5] |= bit
        _refused(tmp_path, unknown, "unknown header flag bits")
    directed = bytearray(data)
    directed[5] |= 1
    _refused(tmp_path, directed, "pendant section on a directed index")


@pytest.mark.parametrize("fmt", FORMATS)
def test_hostile_sections_never_answer(fmt, tmp_path):
    """What a load cannot see without an O(n) pass, ``verify`` reports
    and every query path refuses."""
    data, parent_at, hang_at, hang_width = _hostile(tmp_path, fmt)
    zero = {1: b"\0", 8: struct.pack("<d", 0.0)}[hang_width]
    corruptions = {
        "out of range": (parent_at + 4 * 3, struct.pack("<i", 99)),
        "negative": (parent_at + 4 * 3, struct.pack("<i", -2)),
        "itself a pendant": (parent_at + 4 * 3, struct.pack("<i", 4)),
        "core with a parent": (parent_at + 4 * 2, struct.pack("<i", 0)),
        "no edge": (hang_at + hang_width * 3, zero),
    }
    if hang_width == 8:
        corruptions["negative edge"] = (
            hang_at + 8 * 3, struct.pack("<d", -1.0)
        )
    for what, (at, patch) in corruptions.items():
        bad = bytearray(data)
        bad[at : at + len(patch)] = patch
        path = tmp_path / "bad"
        path.write_bytes(bytes(bad))
        store = load_store(path, use_mmap=True)
        report = verify_index(NAMED, store)
        assert not report.ok and report.checked_queries == 0, what
        if what not in ("core with a parent", "no edge"):
            with pytest.raises(ValueError, match="corrupt pendant section"):
                store.query(3, 1)
            with pytest.raises(ValueError, match="corrupt pendant section"):
                store.out_label(3)
            with pytest.raises(ValueError, match="corrupt pendant section"):
                DistanceOracle(store, kernel="on").query_batch([(3, 1), (0, 2)])
            sharded = ShardedLabelStore.split(load_store(path), 2)
            with pytest.raises(ShardError, match="corrupt pendant section"):
                sharded.query(3, 1)
        store.close()
    # A non-empty row under a pendant: rebuild the file by hand.
    flat = FlatLabelStore.from_index(
        HopDoublingIndex.build(NAMED, engine="dict").labels
    )
    flat.hang[2], flat.parent[2] = 1.0, 0  # vertex 2 keeps its row
    assert any(
        "non-empty stored row" in v for v in verify_index(NAMED, flat).violations
    )


# ---------------------------------------------------------------------------
# Say what was peeled
# ---------------------------------------------------------------------------


def test_cli_reports_pendants(tmp_path, capsys):
    from repro.cli import main

    # Ids in first-seen order, so the reader's renumbering keeps them.
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (1, 5), (2, 6), (6, 7)]
    graph_file, new_edges = tmp_path / "g.txt", tmp_path / "new.txt"
    graph_file.write_text("".join(f"{u} {v}\n" for u, v in edges))
    args = [str(graph_file), "-o", str(tmp_path / "g.v2"), "--format", "v2"]
    assert main(["build", *args]) == 0
    assert (
        "4 pendants answered through 4 core vertices" in capsys.readouterr().out
    )
    args = [str(tmp_path / "g.v2"), "-o", str(tmp_path / "g.v3"), "--format", "v3"]
    assert main(["convert", *args, "--stats"]) == 0
    assert "pendants        4 (50.0%; core 4)" in capsys.readouterr().out
    new_edges.write_text("4 7\n")  # two pendants, two parents
    assert main(["update", str(tmp_path / "g.v3"), "--edges", str(new_edges)]) == 0
    with open(graph_file, "a") as fh:
        fh.write("4 7\n")
    assert main(["verify", str(graph_file), str(tmp_path / "g.v3")]) == 0
    assert load_store(tmp_path / "g.v3").pendants == 2
