"""Build-engine determinism: the array engine vs the dict reference.

The array engine must match the per-entry reference engine
(``tests/reference/dict_build.py``, run on each builder's own schedule
by ``dict_engine``): for any graph, builder, and rule set, the label
entries (pairs, distances) **and** the per-iteration counters are
bit-identical.  These tests enforce it across directed/undirected x
weighted/unweighted fixtures, for all three builders and both rule
sets.  Every build runs in one process on the one engine; the builders
take no option that picks another.
"""

from __future__ import annotations

import random

import pytest

from repro.core.hop_doubling import HopDoubling, LabelingBuilder
from repro.core.hop_stepping import HopStepping
from repro.core.hybrid import HybridBuilder
from repro.core.index import HopDoublingIndex
from repro.graphs.digraph import Graph
from repro.graphs.generators import ba_graph, glp_graph
from tests.reference.dict_build import dict_engine
from tests.reference.label_lists import label_lists

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
    return (*label_lists(result.index), result.index.rank, counters)


class TestEngineEquivalence:
    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    @pytest.mark.parametrize("builder_cls", BUILDERS)
    def test_array_engine_bit_identical(self, kind, builder_cls):
        g = _fixture_graph(kind)
        with dict_engine():
            ref = _fingerprint(builder_cls(g).build())
        arr = _fingerprint(builder_cls(g).build())
        assert arr == ref

    @pytest.mark.parametrize("rule_set", ["minimized", "full"])
    def test_full_rule_set_bit_identical(self, rule_set):
        g = ba_graph(70, m=2, seed=9, directed=True)
        with dict_engine():
            ref = _fingerprint(HybridBuilder(g, rule_set=rule_set).build())
        arr = _fingerprint(HybridBuilder(g, rule_set=rule_set).build())
        assert arr == ref

    def test_prune_disabled_bit_identical(self):
        g = glp_graph(70, seed=21)
        with dict_engine():
            ref = _fingerprint(HopStepping(g, prune=False).build())
        arr = _fingerprint(HopStepping(g, prune=False).build())
        assert arr == ref

    def test_final_exhaustive_prune_bit_identical(self):
        g = glp_graph(80, seed=12)
        with dict_engine():
            ref = _fingerprint(HopDoubling(g, final_exhaustive_prune=True).build())
        arr = _fingerprint(HopDoubling(g, final_exhaustive_prune=True).build())
        assert arr == ref


class TestEngineOptions:
    @pytest.mark.parametrize(
        "option", [{"engine": "array"}, {"jobs": 2}], ids=["engine", "jobs"]
    )
    def test_build_refuses_engine_options(self, option, monkeypatch):
        """``engine=`` and ``jobs=`` fail at the call, before the graph
        is ranked or peeled."""
        from repro.core import index as index_module

        ranked = []

        def make_ranking(*args, **kwargs):
            ranked.append(args)
            raise AssertionError("the graph was ranked")

        monkeypatch.setattr(index_module, "make_ranking", make_ranking)
        with pytest.raises(TypeError, match=next(iter(option))):
            HopDoublingIndex.build(glp_graph(20, seed=1), **option)
        assert ranked == []

    @pytest.mark.parametrize(
        "option", [{"engine": "dict"}, {"jobs": 2}], ids=["dict", "jobs"]
    )
    def test_builders_take_no_engine_options(self, option):
        g = glp_graph(20, seed=1)
        with pytest.raises(TypeError, match=next(iter(option))):
            HybridBuilder(g, **option)

    def test_empty_graph_array_engine(self):
        g = Graph.from_edges(0, [])
        result = HybridBuilder(g).build()
        assert result.index.n == 0

    def test_no_edges_array_engine(self):
        g = Graph.from_edges(5, [])
        result = HybridBuilder(g).build()
        assert result.index.query(0, 4) == float("inf")
        assert result.num_iterations == 1

    def test_base_class_still_abstract(self):
        g = glp_graph(20, seed=1)
        with pytest.raises(NotImplementedError):
            LabelingBuilder(g).build()


class TestArrayStateInternals:
    def test_freeze_matches_dict_freeze(self):
        """ArrayLabelState.freeze == the dict engine's packed freeze."""
        from repro.core.engine import ArrayBuildEngine
        from repro.core.ranking import make_ranking
        from tests.reference.dict_build import DictBuildEngine

        g = ba_graph(60, m=2, seed=2, directed=True)
        ranking = make_ranking(g, "auto")
        d = DictBuildEngine(g, ranking, "minimized")
        a = ArrayBuildEngine(g, ranking, "minimized")
        d.initialize()
        a.initialize()
        di, ai = d.freeze(), a.freeze()
        assert label_lists(di) == label_lists(ai)
        assert di.rank == ai.rank
