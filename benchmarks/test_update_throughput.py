"""Dynamic-update benchmark: repair throughput, per-shard reconcile.

One 10k-vertex Barabasi-Albert graph grows by a 1000-edge insertion
stream (the stream is the BA model's own final edges, so the workload
is genuine preferential-attachment growth), replayed from the same
built base index through the package's array repair and through the
dict reference of ``tests/reference/dict_repair.py``:

* **bit-identical post-update label states** (and therefore answers)
  between the array repair and the dict reference, spot-verified
  against bidirectional Dijkstra on the grown graph;
* the array repair's throughput, timed with ``time.process_time``
  (min over ``REPS`` replays; the path is single-process and
  CPU-bound) and exported, with the write path's later stages for one
  batch — ``pop_label_delta``, ``apply_updates`` on a store whose rows
  are resident, and the first kernel read after it — beside it;
* **per-shard reconcile** rewrites exactly the shards whose vertex
  ranges contain updated vertices: the graph carries disconnected pad
  components in the top vertex range whose shards provably cannot be
  touched by BA-side insertions — their files must stay byte-for-byte
  identical while every manifest checksum revalidates.

Every run records its measurements in ``BENCH_update_throughput.json``
(uploaded as a CI artifact), so the update-throughput trajectory is
visible per commit.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import pytest

from paper.baselines.bidij import BidirectionalSearchOracle
from paper.bench.export import write_bench_json
from repro.core.dynamic import DynamicHopDoublingIndex
from repro.core.flatstore import FlatLabelStore
from repro.core.hybrid import make_builder
from repro.graphs.digraph import Graph
from repro.graphs.generators import ba_graph
from repro.oracle import kernel
from tests.reference.dict_repair import DictRepairIndex
from tests.reference.label_lists import label_lists

#: Barabasi-Albert component (the part that grows).
NUM_BA_VERTICES = 10_000
#: Disconnected pad vertices occupying the top vertex range (paired
#: into 2-vertex components so their labels are non-empty) — their
#: shards can never be dirtied by BA-side insertions.
NUM_PAD_VERTICES = 2_000
NUM_VERTICES = NUM_BA_VERTICES + NUM_PAD_VERTICES
#: Edges held out of the base build and replayed as the stream.
STREAM_EDGES = 1_000
#: insert_edges batch size for both engines.
BATCH = 500
#: Timed replays of the array repair; the minimum is scored.
REPS = 2
#: Shard count — 12000/12 = 1000 vertices per shard, so shards 10-11
#: hold only pad vertices.
NUM_SHARDS = 12


@pytest.fixture(scope="module")
def setting():
    """Base store + insertion stream, built once per session."""
    ba = ba_graph(NUM_BA_VERTICES, m=2, seed=7)
    ba_edges = [(u, v) for u, v, _ in ba.edges()]
    base_edges = ba_edges[:-STREAM_EDGES]
    stream = ba_edges[-STREAM_EDGES:]
    base_edges += [
        (NUM_BA_VERTICES + i, NUM_BA_VERTICES + i + 1)
        for i in range(0, NUM_PAD_VERTICES - 1, 2)
    ]
    base = Graph.from_edges(NUM_VERTICES, base_edges, directed=False)
    index = make_builder(base, "hybrid").build().index
    return base, FlatLabelStore.from_index(index), stream


def _replay(setting, index=DynamicHopDoublingIndex, reps=REPS):
    base, store, stream = setting
    best = None
    for _ in range(reps):
        dyn = index.from_store(store, graph=base)
        t0 = time.process_time()
        for i in range(0, len(stream), BATCH):
            dyn.insert_edges(stream[i : i + BATCH])
        elapsed = time.process_time() - t0
        if best is None or elapsed < best[0]:
            best = (elapsed, dyn)
    return best


@pytest.fixture(scope="module")
def replays(setting):
    array_seconds, array_dyn = _replay(setting)
    _, dict_dyn = _replay(setting, DictRepairIndex, reps=1)
    return array_seconds, array_dyn, dict_dyn


def test_engines_bit_identical_and_exact(replays):
    """Both engines repair to the same labels; answers match Dijkstra."""
    _, array_dyn, dict_dyn = replays
    assert label_lists(array_dyn.snapshot()) == label_lists(dict_dyn.snapshot())
    truth = BidirectionalSearchOracle(array_dyn.graph)
    rng = random.Random(11)
    for _ in range(40):
        s = rng.randrange(NUM_VERTICES)
        t = rng.randrange(NUM_VERTICES)
        want = truth.query(s, t)
        assert array_dyn.query(s, t) == want
        assert dict_dyn.query(s, t) == want


def _write_stages(setting):
    """Seconds of one batch's pop, apply and first kernel read.

    The serving store's rows for the read's pairs are resident before
    the apply, as on a server that has been answering."""
    base, store, stream = setting
    served = FlatLabelStore.from_index(store)
    dyn = DynamicHopDoublingIndex.from_store(store, graph=base)
    rng = random.Random(17)
    pairs = [
        (rng.randrange(NUM_VERTICES), rng.randrange(NUM_VERTICES))
        for _ in range(20_000)
    ]
    kernel.batch_eval(served, pairs)
    dyn.insert_edges(stream[:BATCH])
    t0 = time.perf_counter()
    delta = dyn.pop_label_delta()
    t1 = time.perf_counter()
    served.apply_updates(delta)
    t2 = time.perf_counter()
    got = kernel.batch_eval(served, pairs)
    t3 = time.perf_counter()
    assert got[:300] == [dyn.query(s, t) for s, t in pairs[:300]]
    return t1 - t0, t2 - t1, t3 - t2


def test_update_throughput_export(setting, replays):
    """Every stream edge is new; the repair rate and the later write
    stages go to the JSON."""
    base, store, stream = setting
    array_seconds, array_dyn, _ = replays
    assert array_dyn.insertions == len(stream)
    pop_s, apply_s, first_read_s = _write_stages(setting)
    write_bench_json(
        "update_throughput",
        {
            "num_vertices": NUM_VERTICES,
            "num_base_edges": base.num_edges,
            "stream_edges": len(stream),
            "batch": BATCH,
            "reps": REPS,
            "inserted": array_dyn.insertions,
            "total_entries": array_dyn._impl.total_entries(),
            "array_repair_seconds": round(array_seconds, 3),
            "edges_per_second": round(len(stream) / array_seconds, 1),
            "pop_s": round(pop_s, 4),
            "apply_s": round(apply_s, 4),
            "first_read_s": round(first_read_s, 4),
        },
    )


def test_per_shard_reconcile(setting, replays, tmp_path):
    """Reconcile rewrites exactly the dirty shards, verified by checksums."""
    from repro.oracle import ShardedLabelStore
    from repro.oracle.sharding import _sha256_file

    base, store, stream = setting
    _, array_dyn, _ = replays
    root = tmp_path / "shards"
    ShardedLabelStore.split(store, NUM_SHARDS).save(root)
    before = {
        p.name: p.read_bytes() for p in root.iterdir() if p.name != "manifest.json"
    }
    sharded = ShardedLabelStore.load(root)

    delta = array_dyn.pop_label_delta()
    assert delta.vertices(), "the replay must have changed labels"
    # BA-side insertions cannot touch the disconnected pad components.
    assert max(delta.vertices()) < NUM_BA_VERTICES
    affected = sharded.apply_updates(delta)
    assert affected == sorted({sharded.shard_of(v) for v in delta.vertices()})
    pad_shards = [i for i, (lo, _) in enumerate(sharded.ranges)
                  if lo >= NUM_BA_VERTICES]
    assert pad_shards and not set(affected) & set(pad_shards)

    rewritten = sharded.reconcile(root)
    assert rewritten == affected
    manifest = json.loads((root / "manifest.json").read_text())
    for entry in manifest["shards"]:
        file_path = root / entry["file"]
        assert _sha256_file(file_path) == entry["sha256"]
        if entry["id"] not in rewritten:
            assert file_path.read_bytes() == before[entry["file"]]

    # The reconciled directory serves the post-update answers.
    reloaded = ShardedLabelStore.load(Path(root))
    rng = random.Random(13)
    for _ in range(200):
        s = rng.randrange(NUM_VERTICES)
        t = rng.randrange(NUM_VERTICES)
        assert reloaded.query(s, t) == array_dyn.query(s, t)
    reloaded.close()
    sharded.close()
