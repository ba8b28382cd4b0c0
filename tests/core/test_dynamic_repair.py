"""Property tests for the dynamic-update repair engines.

The contract under test, across directed/undirected x weighted/
unweighted graphs and randomized insertion sequences:

* queries after any insertion sequence are **exact** (equal to APSP on
  the grown graph) — i.e. bit-identical to a from-scratch rebuild's
  answers;
* the array repair engine and the dict reference
  (``tests/reference/dict_repair.py``) produce **bit-identical label
  states** (not just answers) for the same sequence;
* the :class:`~repro.core.labels.LabelDelta` hand-off reproduces the
  updated answers through every serving store (flat v2, quantized v3,
  sharded) and through the vectorized batch kernel.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from paper.baselines.apsp import APSPOracle
from repro.core.dynamic import DynamicHopDoublingIndex
from repro.core.flatstore import FlatLabelStore
from repro.core.hybrid import make_builder
from repro.graphs.digraph import Graph
from tests.conftest import graph_strategy, random_graph
from tests.reference.dict_repair import DictRepairEngine, DictRepairIndex
from tests.reference.label_lists import label_lists

#: The index class per repair engine: the package's own, and the same
#: index repairing through the dict reference.
ENGINES = {"dict": DictRepairIndex, "array": DynamicHopDoublingIndex}


def _random_stream(rng: random.Random, n: int, count: int, weighted: bool):
    stream = []
    for _ in range(count):
        if weighted:
            stream.append(
                (rng.randrange(n), rng.randrange(n), float(rng.randint(1, 5)))
            )
        else:
            stream.append((rng.randrange(n), rng.randrange(n)))
    return stream


def _assert_exact(dyn: DynamicHopDoublingIndex) -> APSPOracle:
    truth = APSPOracle(dyn.graph)
    n = dyn.n
    for s in range(n):
        for t in range(n):
            assert dyn.query(s, t) == truth.query(s, t), (s, t)
    return truth


class TestRandomizedRepair:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", range(10))
    def test_exact_after_insertion_sequence(self, seed, engine):
        """Mixed single/batched insertions match a full rebuild's answers."""
        rng = random.Random(seed)
        graph = random_graph(seed, max_n=22)
        n = graph.num_vertices
        dyn = ENGINES[engine](graph)
        for _ in range(3):
            if rng.random() < 0.5:
                edge = _random_stream(rng, n, 1, graph.weighted)[0]
                dyn.insert_edge(*edge)
            else:
                dyn.insert_edges(
                    _random_stream(
                        rng, n, rng.randrange(1, 6), graph.weighted
                    )
                )
        _assert_exact(dyn)

    @pytest.mark.parametrize("seed", range(10))
    def test_engines_bit_identical(self, seed):
        """Dict and array repair (and compaction) build the exact same
        label state."""
        rng = random.Random(seed + 500)
        graph = random_graph(seed, max_n=22)
        n = graph.num_vertices
        dyns = {engine: index(graph) for engine, index in ENGINES.items()}
        # The seam really swaps the engine: two array repairs would agree
        # trivially.
        assert isinstance(dyns["dict"]._impl, DictRepairEngine)
        for _ in range(3):
            batch = _random_stream(
                rng, n, rng.randrange(1, 6), graph.weighted
            )
            results = {
                engine: dyn.insert_edges(batch)
                for engine, dyn in dyns.items()
            }
            assert results["dict"] == results["array"]
        # The exhaustive sweep too: same removals, same touched vertices.
        removed = {engine: dyn.compact() for engine, dyn in dyns.items()}
        assert removed["dict"] == removed["array"]
        snaps = {e: label_lists(d.snapshot()) for e, d in dyns.items()}
        assert snaps["dict"] == snaps["array"]
        deltas = {e: d.pop_label_delta() for e, d in dyns.items()}
        assert deltas["dict"].out == deltas["array"].out
        assert deltas["dict"].inn == deltas["array"].inn

    @settings(max_examples=25, deadline=None)
    @given(graph=graph_strategy(max_n=14, max_m=30))
    def test_property_exact_on_any_graph(self, graph):
        """Hypothesis: repair stays exact on arbitrary small graphs."""
        rng = random.Random(graph.num_vertices * 31 + graph.num_edges)
        n = graph.num_vertices
        dyn = DynamicHopDoublingIndex(graph)
        dyn.insert_edges(_random_stream(rng, n, 4, graph.weighted))
        _assert_exact(dyn)


class TestFromStoreAdoption:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", range(4))
    def test_adopted_store_stays_exact(self, seed, engine):
        rng = random.Random(seed + 60)
        graph = random_graph(seed, max_n=18)
        n = graph.num_vertices
        store = FlatLabelStore.from_index(
            make_builder(graph, "hybrid").build().index
        )
        dyn = ENGINES[engine].from_store(store, graph=graph)
        dyn.insert_edges(_random_stream(rng, n, 5, graph.weighted))
        _assert_exact(dyn)

    def test_from_store_without_ranking_rejected(self):
        graph = Graph.from_edges(3, [(0, 1), (1, 2)], directed=False)
        store = FlatLabelStore.from_index(
            make_builder(graph, "hybrid").build().index
        )
        store.rank = None
        with pytest.raises(ValueError, match="no ranking"):
            DynamicHopDoublingIndex.from_store(store)

    def test_from_store_without_graph_has_no_graph(self):
        graph = Graph.from_edges(3, [(0, 1), (1, 2)], directed=False)
        store = FlatLabelStore.from_index(
            make_builder(graph, "hybrid").build().index
        )
        dyn = DynamicHopDoublingIndex.from_store(store)
        assert dyn.insert_edge(0, 2)
        assert dyn.query(0, 2) == 1.0
        with pytest.raises(ValueError, match="no graph attached"):
            dyn.graph  # noqa: B018 - the property raises

    def test_engine_knob_validation(self):
        """The repair engine is not a constructor argument of either
        way to make a dynamic index."""
        graph = Graph.from_edges(2, [(0, 1)], directed=False)
        store = FlatLabelStore.from_index(
            make_builder(graph, "hybrid").build().index
        )
        with pytest.raises(TypeError, match="engine"):
            DynamicHopDoublingIndex(graph, engine="dict")
        with pytest.raises(TypeError, match="engine"):
            DynamicHopDoublingIndex.from_store(store, engine="array")


class TestBatchSemantics:
    def test_batch_counts_and_dedupe(self):
        graph = Graph.from_edges(5, [(0, 1), (1, 2)], directed=False)
        dyn = DynamicHopDoublingIndex(graph)
        # existing, self loop, duplicate-in-batch, two new edges
        added = dyn.insert_edges([(0, 1), (3, 3), (2, 3), (2, 3), (3, 4)])
        assert added == 2
        assert dyn.insertions == 2
        assert dyn.query(0, 4) == 4.0
        assert dyn.graph.num_edges == 4

    def test_batch_validation(self):
        graph = Graph.from_edges(3, [(0, 1, 2.0)], weighted=True)
        dyn = DynamicHopDoublingIndex(graph)
        with pytest.raises(IndexError):
            dyn.insert_edges([(0, 9)])
        with pytest.raises(ValueError):
            dyn.insert_edges([(1, 2, -1.0)])

    @pytest.mark.parametrize("engine", ENGINES)
    def test_invalid_batch_leaves_state_untouched(self, engine):
        """A rejected batch must not record any of its edges."""
        graph = Graph.from_edges(6, [(0, 2), (2, 1)], directed=False)
        dyn = ENGINES[engine](graph)
        with pytest.raises(IndexError):
            dyn.insert_edges([(0, 1), (3, 999)])
        assert dyn.insertions == 0
        assert dyn.graph.num_edges == 2
        assert not dyn.pop_label_delta()
        # the valid edge of the failed batch is still insertable
        assert dyn.insert_edge(0, 1)
        assert dyn.query(0, 1) == 1.0

    def test_batched_matches_sequential(self):
        graph = random_graph(3, max_n=16, weighted=False)
        n = graph.num_vertices
        stream = _random_stream(random.Random(9), n, 6, False)
        one = DynamicHopDoublingIndex(graph)
        for u, v in stream:
            one.insert_edge(u, v)
        batched = DynamicHopDoublingIndex(graph)
        batched.insert_edges(stream)
        # Same grown graph, same (exact) answers; the label sets may
        # differ transiently, so compare through queries.
        truth = APSPOracle(batched.graph)
        for s in range(n):
            for t in range(n):
                assert one.query(s, t) == batched.query(s, t) == truth.query(s, t)


class TestLabelDeltaHandoff:
    def _updated_pair(self, seed, engine):
        rng = random.Random(seed + 900)
        graph = random_graph(seed, max_n=20)
        store = FlatLabelStore.from_index(
            make_builder(graph, "hybrid").build().index
        )
        dyn = ENGINES[engine].from_store(store, graph=graph)
        dyn.insert_edges(
            _random_stream(rng, graph.num_vertices, 6, graph.weighted)
        )
        return graph, store, dyn

    @pytest.mark.parametrize("engine", ENGINES)
    def test_delta_replays_through_flat_store(self, engine):
        graph, store, dyn = self._updated_pair(1, engine)
        n = graph.num_vertices
        delta = dyn.pop_label_delta()
        assert delta and delta.vertices()
        store.apply_updates(delta)
        for s in range(n):
            for t in range(n):
                assert store.query(s, t) == dyn.query(s, t)
        # idempotent drain
        assert not dyn.pop_label_delta()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_delta_covers_compaction(self, engine):
        graph, store, dyn = self._updated_pair(2, engine)
        n = graph.num_vertices
        dyn.compact()
        store.apply_updates(dyn.pop_label_delta())
        for s in range(n):
            for t in range(n):
                assert store.query(s, t) == dyn.query(s, t)

    def test_delta_serves_through_quantized_and_kernel(self):
        from repro.oracle import evaluate_batch, kernel

        graph, store, dyn = self._updated_pair(3, "array")
        n = graph.num_vertices
        quant = store.encoded("v3")
        delta = dyn.pop_label_delta()
        store.apply_updates(delta)
        quant.apply_updates(delta)
        pairs = [(s, t) for s in range(n) for t in range(n)]
        want = [dyn.query(s, t) for s, t in pairs]
        assert kernel.batch_eval(store, pairs) == want
        assert kernel.batch_eval(quant, pairs) == want
        assert evaluate_batch(quant, pairs) == want
        assert [quant.query(s, t) for s, t in pairs] == want

    @pytest.mark.parametrize("engine", ENGINES)
    def test_delta_routes_through_sharded_store(self, tmp_path, engine):
        from repro.oracle import ShardedLabelStore

        graph, store, dyn = self._updated_pair(4, engine)
        n = graph.num_vertices
        ShardedLabelStore.split(store, min(3, n)).save(tmp_path / "shards")
        sharded = ShardedLabelStore.load(tmp_path / "shards")
        delta = dyn.pop_label_delta()
        affected = sharded.apply_updates(delta)
        assert affected == sorted(
            {sharded.shard_of(v) for v in delta.vertices()}
        )
        for s in range(n):
            for t in range(n):
                assert sharded.query(s, t) == dyn.query(s, t)
