"""Build-engine determinism: dict vs array vs multiprocess builds.

The whole point of the pluggable construction engines is that
``engine=`` and ``jobs=`` are *pure* performance knobs: for any graph,
builder, and rule set, every engine must produce bit-identical label
entries (pairs, distances, hops) **and** bit-identical per-iteration
counters — the same guarantee the serving layer's sharding gives
queries.  These tests enforce it across directed/undirected x
weighted/unweighted fixtures, for all three builders, both rule sets,
and ``jobs=1`` vs ``jobs=4``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.hop_doubling import HopDoubling, LabelingBuilder
from repro.core.hop_stepping import HopStepping
from repro.core.hybrid import HybridBuilder
from repro.graphs.digraph import Graph
from repro.graphs.generators import ba_graph, glp_graph

np = pytest.importorskip("numpy")

BUILDERS = [HopDoubling, HopStepping, HybridBuilder]


def _weighted_graph(n: int, m: int, seed: int, directed: bool) -> Graph:
    rng = random.Random(seed)
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v))
    wedges = [(u, v, rng.choice([1.0, 2.0, 2.5, 4.0])) for u, v in sorted(edges)]
    return Graph.from_edges(n, wedges, directed=directed, weighted=True)


def _fixture_graph(kind: str) -> Graph:
    if kind == "undirected-unweighted":
        return glp_graph(90, seed=3)
    if kind == "directed-unweighted":
        return ba_graph(80, m=2, seed=5, directed=True)
    if kind == "undirected-weighted":
        return _weighted_graph(60, 150, 11, directed=False)
    return _weighted_graph(60, 190, 13, directed=True)


GRAPH_KINDS = [
    "undirected-unweighted",
    "directed-unweighted",
    "undirected-weighted",
    "directed-weighted",
]


def _fingerprint(result):
    """Everything that must match: labels, provenance, counters."""
    counters = [
        (
            it.iteration,
            it.mode,
            it.raw_generated,
            it.distinct_generated,
            it.admitted,
            it.pruned,
            it.survived,
            it.total_entries,
            it.prev_size,
        )
        for it in result.iterations
    ]
    return (
        result.index.out_labels,
        result.index.in_labels,
        result.index.rank,
        counters,
    )


class TestEngineEquivalence:
    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    @pytest.mark.parametrize("builder_cls", BUILDERS)
    def test_array_engine_bit_identical(self, kind, builder_cls):
        g = _fixture_graph(kind)
        ref = _fingerprint(builder_cls(g, engine="dict").build())
        arr = _fingerprint(builder_cls(g, engine="array").build())
        assert arr == ref

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    @pytest.mark.parametrize("builder_cls", BUILDERS)
    def test_parallel_jobs_bit_identical(self, kind, builder_cls):
        g = _fixture_graph(kind)
        serial = _fingerprint(builder_cls(g, engine="array", jobs=1).build())
        parallel = _fingerprint(builder_cls(g, engine="array", jobs=4).build())
        assert parallel == serial

    @pytest.mark.parametrize("rule_set", ["minimized", "full"])
    def test_full_rule_set_bit_identical(self, rule_set):
        g = ba_graph(70, m=2, seed=9, directed=True)
        ref = _fingerprint(
            HybridBuilder(g, rule_set=rule_set, engine="dict").build()
        )
        arr = _fingerprint(
            HybridBuilder(g, rule_set=rule_set, engine="array", jobs=2).build()
        )
        assert arr == ref

    def test_prune_disabled_bit_identical(self):
        g = glp_graph(70, seed=21)
        ref = _fingerprint(HopStepping(g, prune=False, engine="dict").build())
        arr = _fingerprint(HopStepping(g, prune=False, engine="array").build())
        assert arr == ref

    def test_final_exhaustive_prune_bit_identical(self):
        g = glp_graph(80, seed=12)
        ref = _fingerprint(
            HopDoubling(g, final_exhaustive_prune=True, engine="dict").build()
        )
        arr = _fingerprint(
            HopDoubling(g, final_exhaustive_prune=True, engine="array").build()
        )
        assert arr == ref

    def test_parallel_indexes_answer_queries(self):
        """End to end: the jobs=4 index answers like the reference."""
        g = glp_graph(100, seed=4)
        ref = HybridBuilder(g, engine="dict").build().index
        par = HybridBuilder(g, engine="array", jobs=4).build().index
        for s in range(0, 100, 7):
            for t in range(0, 100, 13):
                assert par.query(s, t) == ref.query(s, t)


class TestEngineOptions:
    def test_unknown_engine_rejected(self):
        g = glp_graph(20, seed=1)
        with pytest.raises(ValueError, match="unknown engine"):
            HybridBuilder(g, engine="turbo")

    def test_jobs_require_array_engine(self):
        g = glp_graph(20, seed=1)
        with pytest.raises(ValueError, match="requires engine='array'"):
            HybridBuilder(g, engine="dict", jobs=2)

    def test_invalid_jobs_rejected(self):
        g = glp_graph(20, seed=1)
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            HybridBuilder(g, engine="array", jobs=0)

    def test_empty_graph_array_engine(self):
        g = Graph.from_edges(0, [])
        result = HybridBuilder(g, engine="array").build()
        assert result.index.n == 0

    def test_no_edges_array_engine(self):
        g = Graph.from_edges(5, [])
        result = HybridBuilder(g, engine="array", jobs=2).build()
        assert result.index.query(0, 4) == float("inf")
        assert result.num_iterations == 1

    def test_base_class_still_abstract(self):
        g = glp_graph(20, seed=1)
        with pytest.raises(NotImplementedError):
            LabelingBuilder(g, engine="array").build()


class TestArrayStateInternals:
    def test_freeze_matches_dict_freeze(self):
        """ArrayLabelState.freeze == LabelIndex.from_state round trip."""
        from repro.core.engine import ArrayBuildEngine, DictBuildEngine
        from repro.core.ranking import make_ranking

        g = ba_graph(60, m=2, seed=2, directed=True)
        ranking = make_ranking(g, "auto")
        d = DictBuildEngine(g, ranking, "minimized")
        a = ArrayBuildEngine(g, ranking, "minimized")
        d.initialize()
        a.initialize()
        di = d.freeze()
        ai = a.freeze()
        assert di.out_labels == ai.out_labels
        assert di.in_labels == ai.in_labels
        assert di.rank == ai.rank

    def test_to_dict_state_round_trip(self):
        from repro.core.engine import ArrayBuildEngine
        from repro.core.ranking import make_ranking

        g = glp_graph(60, seed=8)
        ranking = make_ranking(g, "auto")
        eng = ArrayBuildEngine(g, ranking, "minimized")
        eng.initialize()
        dict_state = eng.state.to_dict_state()
        assert sorted(dict_state.iter_entries()) == sorted(eng.state.iter_entries())
