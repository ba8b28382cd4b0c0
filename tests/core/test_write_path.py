"""The write path, graph to file: array engine vs the dict reference.

The array engine freezes into CSR arrays that the v2/v3 packers take
as they are; the dict engine freezes into tuple lists that are packed
entry by entry.  Both must write the same bytes, count the same
candidates, and — when someone asks for them — show the same tuple
lists.  The prune test's inert-side rule and the numpy-free fallback
are pinned here too.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro import DistanceOracle, HopDoublingIndex
from repro.core.flatstore import FlatLabelStore, load_store
from repro.core.hybrid import make_builder
from repro.core.labels import DirectedLabelState, UndirectedLabelState
from repro.core.pruning import admit_and_prune, admit_and_prune_arrays
from repro.core.quantized import (
    QuantizedLabelStore,
    _encode_numpy,
    _encode_python,
)
from repro.core.rules import CandidateBatch, CandidateSet
from repro.graphs.digraph import Graph
from repro.graphs.generators import glp_graph
from tests.conftest import graph_strategy

np = pytest.importorskip("numpy")

from repro.core import arraystate  # noqa: E402  (needs numpy)
from repro.core.arraystate import ArrayLabelState  # noqa: E402

SRC = Path(__file__).resolve().parents[2] / "src"

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


def _build(graph: Graph, engine: str, options: dict):
    options = dict(options)
    strategy = options.pop("strategy", "hybrid")
    if engine == "dict":
        options.pop("jobs", None)
    return make_builder(graph, strategy, engine=engine, **options).build()


def _check_write_path(graph: Graph, options: dict) -> None:
    """Same bytes in v2 and v3, same counters, same lists afterwards."""
    reference = _build(graph, "dict", options)
    result = _build(graph, "array", options)
    assert _counters(result) == _counters(reference)
    with tempfile.TemporaryDirectory() as workdir:
        for fmt in ("v2", "v3"):
            assert _file_bytes(
                HopDoublingIndex(result.index), fmt, workdir
            ) == _file_bytes(HopDoublingIndex(reference.index), fmt, workdir)
    # The tuple lists are materialised only now, after both saves.
    assert result.index.out_labels == reference.index.out_labels
    assert result.index.in_labels == reference.index.in_labels
    assert result.index.rank == reference.index.rank
    assert result.index.stats() == reference.index.stats()


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=25, deadline=None)
@given(graph=write_path_graphs)
def test_array_write_path_matches_dict_reference(variant, graph):
    _check_write_path(graph, VARIANTS[variant])


@settings(max_examples=6, deadline=None)
@given(graph=write_path_graphs)
def test_parallel_write_path_matches_dict_reference(graph):
    """``jobs=2`` forks a pool per build: fewer examples, same check."""
    _check_write_path(graph, {"jobs": 2})


def test_array_engine_freezes_into_arrays_not_tuples():
    """build -> save(v2|v3) never materialises a per-entry object."""
    graph = glp_graph(300, seed=5)
    index = HopDoublingIndex.build(graph, engine="array")
    with tempfile.TemporaryDirectory() as workdir:
        for fmt in ("v2", "v3"):
            _file_bytes(index, fmt, workdir)
    assert index.labels._out_labels is None
    assert index.query(0, 299) == index.oracle().query(0, 299)
    assert index.labels.out_label(7) == index.labels.out_labels[7]
    # Undirected: the materialised in-side aliases the out-side.
    assert index.labels.in_labels is index.labels.out_labels


# ---------------------------------------------------------------------------
# The prune test's inert-side rule against the dict engine
# ---------------------------------------------------------------------------


def _prune_both_ways(rank, directed, base, candidates):
    """One admit-and-prune round on twin states; returns both outcomes."""
    array_state = ArrayLabelState.from_initial_entries(rank, directed, base)
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
    assert sorted(array_state.iter_entries()) == sorted(dict_state.iter_entries())
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
    index = HopDoublingIndex.build(graph, engine="array")
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
    index = HopDoublingIndex.build(graph, engine="array")
    s, t = _far_pair(index)
    before = index.query(s, t)
    first = store_cls.from_index(index.labels)
    second = store_cls.from_index(index.labels)
    assert first is not second
    kernel.ensure_sides(first)
    assert kernel.view_info(first) is not None
    assert kernel.view_info(second) is None

    _, delta = _grown(first, graph, (s, t))
    first.apply_updates(delta)
    assert first.query(s, t) == 1.0
    assert second.query(s, t) == before == index.query(s, t)
    assert not second.has_pending_updates
    assert index.labels.out_label(s) == second.out_label(s)


# ---------------------------------------------------------------------------
# v3 encoding: array operations vs the per-entry loop
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(graph=write_path_graphs)
def test_numpy_and_python_encoders_write_identical_files(graph):
    flat = FlatLabelStore.from_index(
        make_builder(graph, "hybrid", engine="dict").build().index
    )
    sides = [(flat.out_offsets, flat.out_pivots, flat.out_dists)]
    if flat.directed:
        sides.append((flat.in_offsets, flat.in_pivots, flat.in_dists))
    widths_np = _encode_numpy(flat.n, sides)
    widths_py = _encode_python(flat.n, sides)
    assert widths_np[:2] == widths_py[:2]
    for side_np, side_py in zip(widths_np[2], widths_py[2]):
        for blob_np, blob_py in zip(side_np, side_py):
            assert blob_np.tobytes() == blob_py.tobytes()
            assert blob_np.itemsize == blob_py.itemsize


def test_encoders_agree_past_one_byte_widths():
    """Wide pivot deltas, distances past 255, an empty middle label."""
    from array import array

    offsets = array("q", [0, 2, 2, 5])
    pivots = array("i", [3, 70_000, 0, 300, 301])
    sides = [(offsets, pivots, array("d", [0.0, 300.0, 1.0, 2.0, 65_535.0]))]
    got, want = _encode_numpy(3, sides), _encode_python(3, sides)
    assert got[:2] == want[:2] == (4, 2)
    for blob_np, blob_py in zip(got[2][0], want[2][0]):
        assert blob_np.tobytes() == blob_py.tobytes()
    fractional = [(offsets, pivots, array("d", [0.0, 0.5, 1.0, 2.0, 3.0]))]
    assert _encode_numpy(3, fractional)[1] == _encode_python(3, fractional)[1] == 8


# ---------------------------------------------------------------------------
# Without numpy
# ---------------------------------------------------------------------------

_NUMPY_FREE = """
import sys
sys.modules["numpy"] = None
from repro import DistanceOracle, HopDoublingIndex
from repro.core.flatstore import load_store
from repro.graphs.generators import glp_graph

graph = glp_graph(150, seed=11)
index = HopDoublingIndex.build(graph)              # engine="auto" -> dict
assert index.labels._store is None
pairs = [(s, (7 * s + 3) % 150) for s in range(40)]
want = [index.query(s, t) for s, t in pairs]
for fmt in ("v2", "v3"):
    path = sys.argv[1] + "/free." + fmt
    index.save(path, format=fmt)
    assert DistanceOracle(load_store(path)).query_batch(pairs) == want
try:
    HopDoublingIndex.build(graph, engine="array")
except ValueError as exc:
    assert "requires numpy" in str(exc)
else:
    raise SystemExit("engine='array' built without numpy")
print("ok")
"""


def test_numpy_free_write_path(tmp_path):
    """dict build -> v2/v3 -> load -> query_batch with numpy unimportable,
    and the files equal the ones the numpy path writes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
    index = HopDoublingIndex.build(glp_graph(150, seed=11), engine="array")
    for fmt in ("v2", "v3"):
        with_numpy = tmp_path / f"numpy.{fmt}"
        index.save(with_numpy, format=fmt)
        assert with_numpy.read_bytes() == (tmp_path / f"free.{fmt}").read_bytes()
        store = load_store(with_numpy)
        assert DistanceOracle(store).query(0, 149) == index.query(0, 149)
