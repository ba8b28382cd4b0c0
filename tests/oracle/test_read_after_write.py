"""Read after write: label deltas staged and read back on every store kind.

Each case runs several insert -> pop -> apply rounds and, after every
round, holds the batch kernel (``DistanceOracle.query_batch``), the
store's scalar ``query`` and the live ``DynamicHopDoublingIndex`` to
Dijkstra on the grown graph.  It does so in the two states a write can
meet the kernel's row cache in:

* ``resident`` — every row filled before the apply: the apply refreshes
  the staged rows that were resident from the delta's columns, and the
  batch after fills only rows that never had one (un-peeled pendants);
* ``lazy`` — the row cache dropped before the apply: the first read
  builds a new cache over the staged columns.

Every delta's columns are also held to the per-vertex labels of
``tests/reference/serving_labels.py``, the lists a delta used to carry.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro import DistanceOracle, HopDoublingIndex, ShardedLabelStore
from repro.core.dynamic import DynamicHopDoublingIndex
from repro.graphs.digraph import Graph
from repro.graphs.generators import ba_graph, glp_graph
from repro.graphs.traversal import dijkstra_distances
from repro.oracle import kernel
from tests.reference.serving_labels import serving_labels

N = 150
ROUNDS = 3

#: Store kind -> the graph it serves.  GLP at the library's default
#: density leaves pendants, which the undirected build peels.
GRAPHS = {
    "ba-v2": lambda: ba_graph(N, m=2, seed=3),
    "glp-v3-ranked": lambda: glp_graph(N, seed=11),
    "glp-directed": lambda: glp_graph(N, seed=12, directed=True),
    "sharded-3": lambda: glp_graph(N, seed=13),
}


def served(kind, flat):
    """The store a case serves, made from the built v2 store ``flat``."""
    if kind == "glp-v3-ranked":
        store = flat.encoded("v3")
        assert store.ranked and store.implied and store.pendants
        return store
    if kind == "sharded-3":
        return ShardedLabelStore.split(flat, 3)
    return flat


def new_edges(graph, rng, count, taken):
    edges = []
    while len(edges) < count:
        u, v = rng.randrange(N), rng.randrange(N)
        key = (u, v) if graph.directed else (min(u, v), max(u, v))
        if u != v and key not in taken and not graph.has_edge(u, v):
            taken.add(key)
            edges.append((u, v))
    return edges


def pendant_pair(flat):
    """Two pendants under different parents: an edge between them
    un-peels both."""
    hang = list(flat.hang)
    a = next(v for v in range(flat.n) if hang[v])
    b = next(
        v for v in range(flat.n) if hang[v] and flat.parent[v] != flat.parent[a]
    )
    return a, b


def truth(graph, pairs):
    rows = {}
    for s, _ in pairs:
        if s not in rows:
            rows[s] = dijkstra_distances(graph, s)
    return [rows[s][t] for s, t in pairs]


def expected_rows(dyn):
    """What the next delta must carry, per side, from the reference."""
    state = dyn._impl.state
    sides = dyn._touched[: 2 if dyn.directed else 1]
    return [
        serving_labels(state, side, np.flatnonzero(mask).tolist())
        for side, mask in enumerate(sides)
    ]


def check_columns(delta, want):
    sides = [delta.out, delta.inn] if delta.directed else [delta.out]
    assert (delta.inn is delta.out) is not delta.directed
    for rows, labels in zip(sides, want):
        assert dict(rows) == labels
        assert rows.verts.dtype == np.int64 and rows.offsets.dtype == np.int64
        assert rows.pivots.dtype == np.int32 and rows.dists.dtype == np.float64
        assert (np.diff(rows.verts) > 0).all() and rows.offsets[0] == 0


def rows_filled(call):
    before = kernel.stats()["rows_filled"]
    result = call()
    return result, kernel.stats()["rows_filled"] - before


@pytest.mark.parametrize("state", ["resident", "lazy"])
@pytest.mark.parametrize("kind", list(GRAPHS))
def test_reads_after_every_write(kind, state):
    graph = GRAPHS[kind]()
    flat = HopDoublingIndex.build(graph).labels
    store = served(kind, flat)
    oracle = DistanceOracle(store, cache_size=0)
    dyn = DynamicHopDoublingIndex.from_store(flat, graph=graph)
    rng = random.Random(len(kind))
    taken: set = set()
    edges = [(u, v) for u, v, _ in graph.edges()]
    pairs = [(s, t) for s in range(N) for t in range(N)]
    sides = 2 if graph.directed else 1
    unpeeled = 0
    for round_ in range(ROUNDS):
        batch = new_edges(graph, rng, 6, taken)
        if round_ == 0 and flat.hang is not None:
            batch.append(pendant_pair(flat))
        assert dyn.insert_edges(batch) == len(batch)
        edges += batch
        want_rows = expected_rows(dyn)
        delta = dyn.pop_label_delta()
        check_columns(delta, want_rows)
        assert not dyn.pop_label_delta()

        if state == "resident":
            oracle.query_batch(pairs)  # every core row filled
            view = store._view
            before = [view.out.filled.copy(), view.inn.filled.copy()]
            resets = view.arena_resets
        else:
            store._view = None
        _, refreshed = rows_filled(lambda: oracle.apply_updates(delta))
        grown = Graph.from_edges(N, edges, directed=graph.directed)
        want = truth(grown, pairs)
        got, filled = rows_filled(lambda: oracle.query_batch(pairs))
        assert got == want
        if state == "resident":
            staged = [delta.out.verts, delta.inn.verts][:sides]
            was = [filled_[v] for filled_, v in zip(before, staged)]
            if store._view is view and view.arena_resets == resets:
                assert refreshed == sum(int(w.sum()) for w in was)
                assert filled == sum(int((~w).sum()) for w in was)
            unpeeled += sum(int((~w).sum()) for w in was)
        else:
            assert refreshed == 0
        sample = random.Random(round_).sample(pairs, 1500)
        sample += [(s, t) for s in delta.vertices() for t in (0, N - 1)]
        want = truth(grown, sample)
        assert [store.query(s, t) for s, t in sample] == want
        assert [dyn.query(s, t) for s, t in sample] == want
    if state == "resident" and flat.hang is not None:
        assert unpeeled >= 2  # the pendant pair's rows: filled lazily
