"""Hop-count bookkeeping and trough-path semantics.

Label entries carry ``(dist, hops)`` during construction; Figure 10's
analysis and the weighted iteration bound depend on them being
meaningful: on unweighted graphs hop counts equal distances, and every
entry corresponds to a *trough* path under the ranking.
"""

import pytest
from hypothesis import given, settings

from paper.baselines.apsp import APSPOracle
from repro.core.hop_stepping import HopStepping
from repro.graphs.digraph import Graph
from repro.graphs.traversal import INF
from tests.conftest import graph_strategy, random_graph
from tests.reference.dict_build import DictBuildEngine


def _build_state(builder_cls, g, ranking=None):
    """The dict state a reference build of ``builder_cls`` leaves: the
    hop counts are construction-time bookkeeping no store keeps."""
    builder = builder_cls(g, ranking=ranking if ranking else "auto")
    engine = DictBuildEngine(g, builder.ranking, builder.rule_set)
    builder._engine = lambda: engine
    builder.build()
    return engine.state


class TestHopCounts:
    @settings(max_examples=25, deadline=None)
    @given(graph_strategy(weighted=False))
    def test_unweighted_hops_equal_distance(self, g):
        state = _build_state(HopStepping, g)
        for owner, pivot, dist, hops, is_out in state.iter_entries():
            assert hops == dist

    @pytest.mark.parametrize("seed", range(5))
    def test_weighted_hops_bound_distance(self, seed):
        g = random_graph(seed, max_n=20, weighted=True)
        state = _build_state(HopStepping, g)
        for owner, pivot, dist, hops, is_out in state.iter_entries():
            # Each hop contributes at least the minimum edge weight.
            assert hops >= 1
            assert dist >= hops * 1.0  # weights are >= 1 in the fixture


class TestTroughSemantics:
    """Every surviving entry covers a real trough path: there must be a
    shortest path between the pair whose interior stays below the
    higher-ranked endpoint."""

    @pytest.mark.parametrize("seed", range(6))
    def test_entries_cover_trough_paths(self, seed):
        g = random_graph(seed, max_n=16, weighted=False)
        state = _build_state(HopStepping, g)
        rank = state.rank
        truth = APSPOracle(g)
        for owner, pivot, dist, hops, is_out in state.iter_entries():
            if is_out:
                a, b = owner, pivot
            else:
                a, b = pivot, owner
            # Entry distance is the true distance (canonical index).
            assert dist == truth.query(a, b)
            # And a trough path of that length exists: search restricted
            # to vertices ranked below the higher endpoint.
            hi = min(rank[a], rank[b])
            allowed = {
                v
                for v in range(g.num_vertices)
                if rank[v] > hi or v in (a, b)
            }
            assert _restricted_distance(g, a, b, allowed) == dist


def _restricted_distance(g: Graph, s: int, t: int, allowed: set[int]) -> float:
    """BFS through `allowed` vertices only."""
    from collections import deque

    if s == t:
        return 0.0
    dist = {s: 0.0}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for v in g.out_neighbors(u):
            if v in allowed and v not in dist:
                dist[v] = dist[u] + 1.0
                if v == t:
                    return dist[v]
                queue.append(v)
    return INF
