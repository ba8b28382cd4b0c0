"""The write path, graph to file: array engine vs the dict reference.

The array engine freezes into CSR arrays that the v2/v3 packers take
as they are; the dict reference (``tests/reference/dict_build.py``)
freezes into tuple lists that are packed entry by entry.  Both return
a ``FlatLabelStore``, and both must write the same bytes, count the
same candidates, and read back the same labels.  The prune test's
inert-side rule and the v3 encoder's widths are pinned here too.
"""

from __future__ import annotations

import os
import tempfile
from array import array

import numpy as np
import pytest
from hypothesis import given, settings

from paper.labels import (
    CandidateSet,
    DirectedLabelState,
    UndirectedLabelState,
    admit_and_prune,
)
from repro import HopDoublingIndex
from repro.core.flatstore import FlatLabelStore
from repro.core.hybrid import make_builder
from repro.core.pruning import admit_and_prune_arrays
from repro.core.quantized import QuantizedLabelStore, _encode, absolute_pivots
from repro.core.rules import CandidateBatch
from repro.graphs.digraph import Graph
from repro.graphs.generators import glp_graph
from tests.conftest import graph_strategy
from tests.reference.dict_build import dict_engine
from tests.reference.label_lists import label_lists

from repro.core import arraystate
from repro.core.arraystate import ArrayLabelState, PrevBlock

write_path_graphs = graph_strategy(
    max_n=18, max_m=40, min_n=1, fractional=True, self_loops=True
)

#: Builder configurations the differential runs under.
VARIANTS = {
    "hybrid": {},
    "no-prune": {"prune": False},
    "exhaustive": {"strategy": "doubling", "final_exhaustive_prune": True},
    "doubling": {"strategy": "doubling"},
}


def _counters(result):
    return [
        (
            it.iteration, it.mode, it.raw_generated, it.distinct_generated,
            it.admitted, it.pruned, it.survived, it.total_entries, it.prev_size,
        )
        for it in result.iterations
    ]


def _file_bytes(index: HopDoublingIndex, fmt: str, workdir: str) -> bytes:
    path = os.path.join(workdir, f"index.{fmt}")
    index.save(path, format=fmt)
    with open(path, "rb") as fh:
        return fh.read()


def _builder(graph: Graph, options: dict):
    options = dict(options)
    strategy = options.pop("strategy", "hybrid")
    return make_builder(graph, strategy, **options)


def _check_write_path(graph: Graph, options: dict) -> None:
    """Same bytes in v2 and v3, same counters, same lists afterwards."""
    with dict_engine():
        reference = _builder(graph, options).build()
    result = _builder(graph, options).build()
    assert _counters(result) == _counters(reference)
    with tempfile.TemporaryDirectory() as workdir:
        for fmt in ("v2", "v3"):
            assert _file_bytes(
                HopDoublingIndex(result.index), fmt, workdir
            ) == _file_bytes(HopDoublingIndex(reference.index), fmt, workdir)
    assert label_lists(result.index) == label_lists(reference.index)
    assert result.index.rank == reference.index.rank
    assert result.index.stats() == reference.index.stats()


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=25, deadline=None)
@given(graph=write_path_graphs)
def test_array_write_path_matches_dict_reference(variant, graph):
    _check_write_path(graph, VARIANTS[variant])


def test_array_engine_freezes_into_arrays_not_tuples():
    """build -> save(v2|v3) never materialises a per-entry object: the
    build returns the CSR store its engine froze."""
    graph = glp_graph(300, seed=5)
    index = HopDoublingIndex.build(graph)
    assert isinstance(index.labels, FlatLabelStore)
    assert index.labels.encoding == "v2"
    with tempfile.TemporaryDirectory() as workdir:
        for fmt in ("v2", "v3"):
            _file_bytes(index, fmt, workdir)
    assert index.query(0, 299) == index.oracle().query(0, 299)
    assert index.labels.out_label(7) == label_lists(index.labels)[0][7]
    # Undirected: the in-side aliases the out-side.
    assert index.labels.in_pivots is index.labels.out_pivots


# ---------------------------------------------------------------------------
# The prune test's inert-side rule against the dict engine
# ---------------------------------------------------------------------------


def _prune_both_ways(rank, directed, base, candidates):
    """One admit-and-prune round on twin states; returns both outcomes."""
    array_state = ArrayLabelState.from_block(
        rank, directed, PrevBlock.from_lists(base)
    )
    dict_state = (DirectedLabelState if directed else UndirectedLabelState)(rank)
    for a, b, dist, hops in base:
        dict_state.set_pair(a, b, dist, hops)
    offered = CandidateSet()
    for a, b, dist, hops in candidates:
        offered.offer(a, b, dist, hops)
    columns = list(zip(*candidates))
    batch = CandidateBatch(
        len(rank),
        np.asarray(columns[0], np.int64),
        np.asarray(columns[1], np.int64),
        np.asarray(columns[2], np.float64),
        np.asarray(columns[3], np.int64),
    )
    want, want_outcome = admit_and_prune(dict_state, offered)
    block, got_outcome = admit_and_prune_arrays(array_state, batch)
    columns = (block.a, block.b, block.dist, block.hops)
    got = list(zip(*(column.tolist() for column in columns)))
    assert sorted(got) == sorted(want)
    assert got_outcome == want_outcome
    sides = [(array_state.out, True)]
    if directed:
        sides.append((array_state.inn, False))
    assert sorted(
        (o, p, d, h, is_out)
        for side, is_out in sides
        for o, p, d, h in zip(
            *(col.tolist() for col in (side.owner, side.piv, side.dist, side.hops))
        )
    ) == sorted(dict_state.iter_entries())
    return sorted(got)


@pytest.fixture(params=["sorted", "dense"])
def join_kind(request, monkeypatch):
    """Run the prune test through each of its two probe strategies."""
    if request.param == "dense":
        monkeypatch.setattr(arraystate, "PRUNE_DENSE_MIN_ROWS", 0)
    return request.param


RANK6 = [0, 1, 2, 3, 4, 5]  # vertex id == rank; vertex 0 outranks all


def test_inert_out_overlay_live_in_overlay(join_kind):
    """Directed round: every staged out-entry is as long as the longest
    candidate (inert), a staged in-entry is shorter (live) — and is the
    only witness against ``3 -> 4``."""
    base = [(3, 0, 1.0, 1)]  # Lout(3) has pivot 0
    candidates = [
        (0, 4, 1.0, 1),  # in-pair: Lin(4) gets pivot 0, the live leg
        (3, 4, 2.0, 2),  # pruned by 3 -> 0 (base) + 0 -> 4 (staged)
        (5, 1, 2.0, 2),  # out-pair at the ceiling: inert overlay
    ]
    survivors = _prune_both_ways(RANK6, True, base, candidates)
    assert survivors == [(0, 4, 1.0, 1), (5, 1, 2.0, 2)]


def test_inert_in_overlay_live_out_overlay(join_kind):
    """The mirror image: the staged in-side is inert, the out-side live."""
    base = [(0, 3, 1.0, 1)]  # Lin(3) has pivot 0
    candidates = [
        (4, 0, 1.0, 1),  # out-pair: Lout(4) gets pivot 0, the live leg
        (4, 3, 2.0, 2),  # pruned by 4 -> 0 (staged) + 0 -> 3 (base)
        (1, 5, 2.0, 2),  # in-pair at the ceiling: inert overlay
    ]
    survivors = _prune_both_ways(RANK6, True, base, candidates)
    assert survivors == [(1, 5, 2.0, 2), (4, 0, 1.0, 1)]


def test_overlay_live_for_some_blocks_only(join_kind, monkeypatch):
    """Weighted round, one pair per block: the overlay's shortest entry
    (1.5) is inert for the blocks of the 1.5 candidates and live for
    the longer ones, which it prunes — one through two staged legs, one
    through a staged and a base leg."""
    monkeypatch.setattr(arraystate, "PRUNE_BLOCK_PAIRS", 1)
    base = [(1, 0, 1.0, 1), (4, 0, 1.5, 1)]
    candidates = [
        (2, 0, 1.5, 1),
        (3, 0, 1.5, 1),
        (3, 2, 3.0, 2),  # 3 - 0 - 2 over two staged entries
        (2, 1, 2.5, 2),  # 2 - 0 (staged) - 1 (base)
        (4, 1, 2.5, 2),  # 4 - 0 - 1 over two base entries
        (5, 4, 0.25, 1),  # shorter than anything stored: nothing is live
    ]
    survivors = _prune_both_ways(RANK6, False, base, candidates)
    assert survivors == [(2, 0, 1.5, 1), (3, 0, 1.5, 1), (5, 4, 0.25, 1)]


@pytest.mark.parametrize("uniform", [True, False])
def test_dedupe_matches_offer_reduction(uniform):
    """Candidates that all carry one value are deduplicated by a plain
    key sort; mixed values by the lexsort.  Both are ``offer``."""
    import random

    rng = random.Random(4)
    n = 12
    dists, hop_counts = ([3.0], [3]) if uniform else ([2.0, 3.0], [2, 3])
    rows = [
        (rng.randrange(n), rng.randrange(n), rng.choice(dists), rng.choice(hop_counts))
        for _ in range(400)
    ]
    offered = CandidateSet()
    for row in rows:
        offered.offer(*row)
    a, b, dist, hops = zip(*rows)
    got = CandidateBatch(
        n,
        np.asarray(a, np.int64),
        np.asarray(b, np.int64),
        np.asarray(dist, np.float64),
        np.asarray(hops, np.int64),
    ).dedupe()
    assert [col.dtype for col in got] == [np.int64, np.int64, np.float64, np.int64]
    assert list(zip(*(col.tolist() for col in got))) == sorted(
        (a, b, d, h) for (a, b), (d, h) in offered.items()
    )


# ---------------------------------------------------------------------------
# Stores of one index share arrays, never state
# ---------------------------------------------------------------------------


def _grown(store, graph, edge):
    from repro.core.dynamic import DynamicHopDoublingIndex

    dyn = DynamicHopDoublingIndex.from_store(store, graph=graph)
    assert dyn.insert_edge(*edge)
    return dyn, dyn.pop_label_delta()


def _far_pair(index: HopDoublingIndex) -> tuple[int, int]:
    n = index.num_vertices
    pairs = ((s, t) for s in range(n) for t in range(n))
    return max(pairs, key=lambda p: index.query(*p))


def test_oracles_of_one_index_do_not_share_state():
    from repro.oracle import kernel

    graph = glp_graph(120, seed=9)
    index = HopDoublingIndex.build(graph)
    s, t = _far_pair(index)
    before = index.query(s, t)
    assert before > 1.0
    first = index.oracle(cache_size=0)
    second = index.oracle(cache_size=0)
    pairs = [(s, t), (t, s), (0, 1)] * 4  # enough pairs for the kernel
    untouched = second.query_batch(pairs)
    second_view = kernel.view_info(second.store)
    assert second_view["rows_resident"] > 0
    assert kernel.view_info(first.store) is None

    dyn, delta = _grown(first.store, graph, (s, t))
    first.apply_updates(delta)
    assert first.query(s, t) == 1.0 == dyn.query(s, t)
    assert first.query_batch(pairs)[0] == 1.0
    assert first.store.has_pending_updates

    assert not second.store.has_pending_updates
    assert second.query(s, t) == before == index.query(s, t)
    assert second.query_batch(pairs) == untouched
    assert kernel.view_info(second.store) == second_view
    assert first.store._view is not second.store._view
    # A store made after the update starts from the build's labels too.
    assert index.oracle(cache_size=0).query(s, t) == before


@pytest.mark.parametrize("store_cls", [FlatLabelStore, QuantizedLabelStore])
def test_from_index_returns_independent_stores(store_cls):
    from repro.oracle import kernel

    graph = glp_graph(120, seed=9)
    index = HopDoublingIndex.build(graph)
    s, t = _far_pair(index)
    before = index.query(s, t)
    first = store_cls.from_index(index.labels)
    second = store_cls.from_index(index.labels)
    assert first is not second
    if store_cls is FlatLabelStore:
        # Nothing packed: both stand on the build's own arrays.
        for name in ("out_offsets", "out_pivots", "out_dists"):
            assert getattr(first, name) is getattr(index.labels, name)
            assert getattr(second, name) is getattr(index.labels, name)
    kernel.ensure_sides(first)
    assert kernel.view_info(first) is not None
    assert kernel.view_info(second) is None

    _, delta = _grown(first, graph, (s, t))
    first.apply_updates(delta)
    assert first.query(s, t) == 1.0
    assert second.query(s, t) == before == index.query(s, t)
    assert not second.has_pending_updates
    assert not index.labels.has_pending_updates
    assert index.labels.out_label(s) == second.out_label(s)
    # A store with staged rows hands them on folded into new arrays, in
    # its own encoding.
    third = FlatLabelStore.from_index(first)
    assert not third.has_pending_updates
    assert third.encoding == first.encoding
    assert third.query(s, t) == 1.0


# ---------------------------------------------------------------------------
# v3 encoding
# ---------------------------------------------------------------------------


def test_encoders_agree_past_one_byte_widths():
    """The v3 encoder agrees with hand-packed arrays: wide pivot
    deltas, distances past 255, an empty middle label."""
    offsets = np.array([0, 2, 2, 5])
    pivots = np.array([3, 70_000, 0, 300, 301])
    dists = np.array([0.0, 300.0, 1.0, 2.0, 65_535.0])
    [packed], hang, patches = _encode([(offsets, pivots, dists)])
    # Two of five deltas are wide: patching them costs more than it saves.
    assert hang is None and patches is None
    want = (
        array("I", [0, 2, 2, 5]),
        array("I", [3, 69_997, 0, 300, 1]),  # a label's first pivot whole
        array("H", [0, 300, 1, 2, 65_535]),
    )
    for blob, ref in zip(packed, want):
        assert blob.itemsize == ref.itemsize
        assert bytes(blob) == ref.tobytes()
    lens = np.diff(packed[0]).astype(np.int64)
    assert absolute_pivots(packed[1], lens).tolist() == pivots.tolist()
    fractional = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
    [(_, _, wide)], _, _ = _encode([(offsets, pivots, fractional)])
    assert wide.dtype == np.float64
