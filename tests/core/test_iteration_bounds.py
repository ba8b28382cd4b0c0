"""Iteration-count theorems (Theorems 2, 4, 6 and Lemma 5).

Counting convention (matches the paper): initialization is iteration 1,
so ``num_iterations = 1 + productive generation rounds``.
"""

import math

import pytest
from hypothesis import given, settings

from paper.baselines.apsp import APSPOracle
from repro.core.hop_doubling import HopDoubling
from repro.core.hop_stepping import HopStepping
from repro.core.hybrid import HybridBuilder
from repro.graphs.generators import cycle_graph, glp_graph, path_graph
from tests.conftest import graph_strategy


def _hop_diameter(g) -> int:
    return APSPOracle(g).hop_diameter()


class TestTheorem6SteppingBound:
    """Hop-Stepping terminates within D_H iterations."""

    @settings(max_examples=40, deadline=None)
    @given(graph_strategy(weighted=False))
    def test_bound_random(self, g):
        dh = max(1, _hop_diameter(g))
        result = HopStepping(g).build()
        assert result.num_iterations <= dh

    @pytest.mark.parametrize("n", [5, 17, 33])
    def test_path_graph_tight(self, n):
        # On a path the bound is met with equality... minus pruning that
        # cuts covered-by-higher entries; it can only be below D_H.
        result = HopStepping(path_graph(n)).build()
        assert result.num_iterations <= n - 1

    def test_cycle(self):
        g = cycle_graph(20)  # diameter 10
        result = HopStepping(g).build()
        assert result.num_iterations <= 10


class TestTheorem4DoublingBound:
    """Hop-Doubling with pruning: at most 2 * ceil(log2 D_H) productive
    generation rounds."""

    @settings(max_examples=40, deadline=None)
    @given(graph_strategy(weighted=False))
    def test_bound_random(self, g):
        dh = _hop_diameter(g)
        result = HopDoubling(g).build()
        productive = sum(1 for it in result.iterations if it.survived > 0)
        if dh <= 1:
            assert productive == 0 or dh == 1
        else:
            assert productive <= 2 * math.ceil(math.log2(dh))

    @pytest.mark.parametrize("n,limit", [(9, 6), (33, 10), (65, 12)])
    def test_path_graphs(self, n, limit):
        # D_H = n - 1; bound = 2 * ceil(log2(n-1)).
        result = HopDoubling(path_graph(n)).build()
        productive = sum(1 for it in result.iterations if it.survived > 0)
        assert productive <= limit


class TestTheorem2Coverage:
    """After the 2i-th doubling iteration every <= 2^i-hop trough
    shortest path is covered.  Verified via distances: on an unweighted
    graph, by round 2i, every pair at distance <= 2^i must already be
    answered exactly (its canonical entries cover paths of <= 2^i hops).
    """

    def test_progressive_coverage_on_path(self):
        g = path_graph(33)
        builder = HopDoubling(g, max_iterations=4)  # 4 generation rounds
        result = builder.build()
        truth = APSPOracle(g)
        # 4 rounds = paper iterations 2..5 >= 2i with i = 2 -> all pairs
        # within 2^2 = 4 hops are covered.
        idx = result.index
        for s in range(33):
            for t in range(33):
                if truth.query(s, t) <= 4:
                    assert idx.query(s, t) == truth.query(s, t)


class TestLemma5SteppingCoverage:
    """At stepping iteration i all i-hop trough shortest paths are
    covered: pairs at distance <= i answer exactly."""

    def test_progressive_coverage(self):
        g = path_graph(20)
        truth = APSPOracle(g)
        for rounds, reach in [(1, 2), (3, 4), (5, 6)]:
            idx = HopStepping(g, max_iterations=rounds).build().index
            for s in range(20):
                for t in range(20):
                    if truth.query(s, t) <= reach:
                        assert idx.query(s, t) == truth.query(s, t)


class TestHybridIterations:
    def test_hybrid_caps_iterations_on_long_diameter(self):
        # Stepping needs ~n/2 rounds on a cycle; hybrid switches to
        # doubling and finishes in O(log) more rounds.
        g = cycle_graph(64)  # diameter 32
        stepping = HopStepping(g).build()
        hybrid = HybridBuilder(g, switch_iteration=5).build()
        assert hybrid.num_iterations < stepping.num_iterations

    def test_hybrid_equals_stepping_on_small_diameter(self):
        g = glp_graph(200, seed=8)  # diameter << 10
        stepping = HopStepping(g).build()
        hybrid = HybridBuilder(g).build()
        assert hybrid.num_iterations == stepping.num_iterations
        assert hybrid.index.out_labels == stepping.index.out_labels

    def test_max_iterations_cap_respected(self):
        g = path_graph(50)
        result = HopStepping(g, max_iterations=3).build()
        assert len(result.iterations) == 3
