"""A v3 store answers one pair from the batch kernel's decoded rows.

``FlatLabelStore.query`` on a v3 store maps pendant ends through the
kernel view's ``parent`` / ``hang``, fills the one or two rows the pair
misses one by one, and joins the hub rows and the tails.  This file
holds that read to the v2 store's in-place probe and to Dijkstra: cold
and warm, pendants, staged overlays that un-peel a pendant, columns
retired by a scalar fill, a table without columns, directed stores, a
scalar fill that empties a full arena, ``s == t`` and refused ids.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings

from repro import HopDoublingIndex
from repro.core.dynamic import DynamicHopDoublingIndex
from repro.core.flatstore import FlatLabelStore
from repro.core.hybrid import HybridBuilder
from repro.graphs.digraph import Graph
from repro.graphs.generators import glp_graph
from repro.graphs.traversal import dijkstra_distances
from repro.oracle import kernel
from tests.conftest import graph_strategy


def all_pairs(n: int) -> list[tuple[int, int]]:
    return [(s, t) for s in range(n) for t in range(n)]


def truth(graph: Graph, pairs) -> list[float]:
    rows = {s: dijkstra_distances(graph, s) for s in {s for s, _ in pairs}}
    return [rows[s][t] for s, t in pairs]


def scalar(store, pairs) -> list[float]:
    return [store.query(s, t) for s, t in pairs]


def filling(call):
    """What ``call()`` returns, and the rows it filled."""
    before = kernel.stats()["rows_filled"]
    result = call()
    return result, kernel.stats()["rows_filled"] - before


def stores(graph: Graph):
    """The v2 store of ``graph``'s labels and a v3 store nothing has read."""
    v2 = HopDoublingIndex.build(graph).labels
    v3 = v2.encoded("v3")
    assert v2.encoding == "v2" and v3.encoding == "v3"
    assert kernel.view_info(v3) is None
    return v2, v3


@settings(max_examples=40, deadline=None)
@given(graph=graph_strategy(pendants=True, fractional=True))
def test_cold_then_warm_matches_v2_and_dijkstra(graph):
    v2, v3 = stores(graph)
    pairs = all_pairs(graph.num_vertices)
    want = truth(graph, pairs)
    assert scalar(v2, pairs) == want
    assert scalar(v3, pairs) == want  # every row cold at first
    assert scalar(v3, pairs) == want
    # Once every row is in (a retired column or a full arena may have
    # emptied the cache on the way), reads fill nothing more.
    got, filled = filling(lambda: scalar(v3, pairs))
    assert got == want and filled == 0


def test_a_row_is_filled_once_per_vertex_named():
    graph = glp_graph(400, seed=3)  # density ~2: two thirds pendants
    v2, v3 = stores(graph)
    pairs = [(s, t) for s in range(0, 400, 7) for t in range(3, 400, 11)]
    got, filled = filling(lambda: scalar(v3, pairs))
    assert got == scalar(v2, pairs) == truth(graph, pairs)
    view = v3._view
    named = {int(view.parent[v]) for pair in pairs for v in pair}
    siblings = {(s, t) for s, t in pairs if view.parent[s] == view.parent[t]}
    touched = {int(view.parent[v]) for pair in set(pairs) - siblings for v in pair}
    assert filled == len(touched) <= len(named)
    assert kernel.view_info(v3)["rows_resident"] == filled
    assert filling(lambda: scalar(v3, pairs)) == (got, 0)


def test_pendant_siblings_and_parent_read_no_row():
    # Pendants 3 and 4 hang from hub 0 (4 by a fractional edge), 5
    # from hub 1; 6 is isolated.
    graph = Graph.from_edges(
        7,
        [(0, 1, 2.0), (0, 2, 1.0), (1, 2, 1.0), (0, 3, 3.0), (0, 4, 0.5),
         (1, 5, 1.0)],
        directed=False,
        weighted=True,
    )
    v2, v3 = stores(graph)
    assert v3.pendants == 3
    near = [(3, 4), (4, 3), (3, 0), (0, 4), (5, 1), (3, 3), (0, 0)]
    got, filled = filling(lambda: scalar(v3, near))
    assert got == [3.5, 3.5, 3.0, 0.5, 1.0, 0.0, 0.0]
    assert got == scalar(v2, near) == truth(graph, near)
    assert filled == 0
    far = [(3, 5), (4, 1), (6, 3), (2, 6)]
    got, filled = filling(lambda: scalar(v3, far))
    assert got == [6.0, 2.5, float("inf"), float("inf")]
    assert got == scalar(v2, far) == truth(graph, far)
    assert filled == 4  # the rows of 0, 1, 2 and 6


def test_staged_overlay_unpeels_a_pendant():
    base = glp_graph(120, seed=5)
    v2, v3 = stores(base)
    pairs = all_pairs(base.num_vertices)
    assert scalar(v3, pairs) == scalar(v2, pairs)  # every row warm
    hang = list(v2.hang)
    pendant = next(v for v in range(v2.n) if hang[v])
    other = next(
        v for v in range(v2.n) if hang[v] and v2.parent[v] != v2.parent[pendant]
    )
    new_edges = [(pendant, other), (0, 119)]
    dyn = DynamicHopDoublingIndex.from_store(v2, graph=base)
    assert dyn.insert_edges(new_edges) == 2
    delta = dyn.pop_label_delta()
    unpeeled = {v for v in delta.vertices() if hang[v]}
    assert {pendant, other} <= unpeeled
    pendants = kernel.view_info(v3)["pendants"]
    v2.apply_updates(delta)
    _, refreshed = filling(lambda: v3.apply_updates(delta))
    assert kernel.view_info(v3)["pendants"] == pendants - len(unpeeled)
    grown = Graph.from_edges(
        120, [(u, v) for u, v, _ in base.edges()] + new_edges, directed=False
    )
    want = truth(grown, pairs)
    got, filled = filling(lambda: scalar(v3, pairs))
    assert got == scalar(v2, pairs) == want
    assert got[pairs.index((pendant, other))] == 1.0
    # The staged rows that were resident are refilled by the apply;
    # the un-peeled pendants never had a row, so a read fills theirs.
    assert refreshed == len(delta) - len(unpeeled)
    assert filled == len(unpeeled)


@pytest.mark.parametrize("far", [63.0, 64.0, 300.0, 63.5])
def test_scalar_fills_retire_columns(far):
    # Hub 0 one step from 99 leaves and ``far`` from leaf 100: a leaf's
    # row puts 0 in the table until leaf 100's label cannot.
    edges = [(0, v, 1.0) for v in range(1, 100)] + [(0, 100, far)]
    graph = Graph.from_edges(101, edges, directed=False, weighted=True)
    # Built without the pendant peel, so every leaf owns a row.
    v2 = FlatLabelStore.from_index(HybridBuilder(graph).build().index)
    v3 = v2.encoded("v3")
    near = [(1, 2), (3, 4), (5, 0)]
    assert scalar(v3, near) == scalar(v2, near) == [2.0, 2.0, 1.0]
    columns = kernel.view_info(v3)["hub_columns"]
    assert 0 in v3._view.hubs
    pairs = [(1, 100), (100, 7), (2, 3), (100, 0)] + near
    got = scalar(v3, pairs)
    assert got == scalar(v2, pairs) == truth(graph, pairs)
    fits = far <= kernel.MAX_CELL and far == int(far)
    assert (0 in v3._view.hubs) == fits
    assert (kernel.view_info(v3)["hub_columns"] < columns) == (not fits)


def test_a_table_without_columns():
    # Every vertex labelled by pivots of its own block of eight: no
    # pivot is common enough for a column.
    graph = Graph.from_edges(
        320,
        [(v, v + 1) for v in range(320) if v % 8 != 7]
        + [(v - v % 8, v) for v in range(320) if v % 8 > 1],
        directed=False,
    )
    v2, v3 = stores(graph)
    pairs = all_pairs(320)[::7]
    got = scalar(v3, pairs)
    assert kernel.view_info(v3)["hub_columns"] == 0
    assert got == scalar(v2, pairs) == truth(graph, pairs)


def test_directed_store():
    graph = glp_graph(150, seed=4, directed=True)
    v2, v3 = stores(graph)
    pairs = all_pairs(150)[::3]
    got, filled = filling(lambda: scalar(v3, pairs))
    assert got == scalar(v2, pairs) == truth(graph, pairs)
    assert 0 < filled <= 2 * 150
    assert kernel.view_info(v3)["rows_resident"] == filled
    assert filling(lambda: scalar(v3, pairs)) == (got, 0)


@pytest.mark.parametrize("directed", [False, True], ids=["undir", "dir"])
def test_a_scalar_fill_empties_a_full_arena(directed):
    graph = glp_graph(150, seed=6, directed=directed)
    v2, v3 = stores(graph)
    pairs = all_pairs(150)[::5]
    want = scalar(v2, pairs)
    view = kernel.row_cache(v3)
    view.out.used = view.out.tail_piv.size  # full, no row in it
    assert scalar(v3, pairs) == want
    assert kernel.view_info(v3)["arena_resets"] == 1
    # An arena too small for a row grows.
    view._reset(view.inn)
    view.inn.reserve(1)
    assert scalar(v3, pairs) == want
    assert view.inn.tail_piv.size > 1
    assert kernel.view_info(v3)["arena_resets"] >= 2


def test_one_arena_fits_both_rows_of_a_pair():
    # Both rows of an undirected pair share one arena.  Tails of a < b
    # <= 2a entries are the hard case: an arena grown to twice the
    # first row alone would be emptied by the second row for ever.
    graph = glp_graph(300, seed=8, directed=False)
    v2, v3 = stores(graph)
    core = [v for v in range(300) if not v2.hang[v]]
    scalar(v3, [(core[0], v) for v in core[1:]])
    view = v3._view
    tails = view.out.tail_len
    s, t = next(
        (s, t) for s in core for t in core
        if 0 < tails[s] < tails[t] <= 2 * tails[s]
    )
    view._reset(view.out)
    view.out.reserve(1)
    got = []
    reader = threading.Thread(target=lambda: got.append(v3.query(s, t)), daemon=True)
    reader.start()
    reader.join(30)
    assert not reader.is_alive(), "the pair kept emptying the arena"
    assert got == [v2.query(s, t)]


def test_s_equals_t_and_refused_ids():
    graph = glp_graph(60, seed=2)
    v2, v3 = stores(graph)
    same = [(v, v) for v in range(60)]
    got, filled = filling(lambda: scalar(v3, same))
    assert got == [0.0] * 60 and filled == 0
    for s, t in [(-1, 0), (0, -1), (-60, 3), (60, 0), (0, 60), (-1, -1), (60, 60)]:
        with pytest.raises(IndexError, match="out of range"):
            v3.query(s, t)
        with pytest.raises(IndexError, match="out of range"):
            v2.query(s, t)
