"""Bit-parallel label tests (Section 6)."""

import pytest
from hypothesis import given, settings

from paper.baselines.apsp import APSPOracle
from paper.bitparallel import (
    BYTES_PER_BP_TUPLE,
    add_bitparallel,
    _bit_parallel_bfs,
)
from repro.core.hybrid import HybridBuilder
from repro.graphs.digraph import Graph
from repro.graphs.generators import glp_graph, grid_graph, path_graph, star_graph
from repro.graphs.traversal import bfs_distances
from tests.conftest import graph_strategy


def _build_bp(g, num_roots=8):
    index = HybridBuilder(g).build().index
    return index, add_bitparallel(g, index, num_roots=num_roots)


class TestBPBFSMasks:
    """The bit-parallel BFS computes exact S^-1 / S^0 sets."""

    @pytest.mark.parametrize("seed", range(8))
    def test_masks_match_definitions(self, seed):
        g = glp_graph(60, m=1.5, seed=seed)
        order = sorted(g.vertices(), key=lambda v: -g.degree(v))
        root = order[0]
        members = list(g.out_neighbors(root))[:8]
        dist, m_minus, m_zero = _bit_parallel_bfs(g, root, members)
        d_root = bfs_distances(g, root)
        member_dists = [bfs_distances(g, u) for u in members]
        for v in g.vertices():
            assert dist[v] == d_root[v]
            if d_root[v] == float("inf"):
                continue
            for i, u in enumerate(members):
                in_minus = bool((m_minus[v] >> i) & 1)
                # S^-1 must be exact.
                assert in_minus == (member_dists[i][v] == d_root[v] - 1)
                # S^0 must contain every exact-0 member (it may also
                # over-approximate with -1 members, which is harmless).
                if member_dists[i][v] == d_root[v]:
                    assert (m_zero[v] >> i) & 1


class TestBPQueries:
    @settings(max_examples=25, deadline=None)
    @given(graph_strategy(directed=False, weighted=False))
    def test_exact_on_random_graphs(self, g):
        truth = APSPOracle(g)
        _, bp = _build_bp(g, num_roots=4)
        for s in range(g.num_vertices):
            for t in range(g.num_vertices):
                assert bp.query(s, t) == truth.query(s, t)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: glp_graph(150, seed=3),
            lambda: grid_graph(7, 7),
            lambda: path_graph(30),
            lambda: star_graph(20),
        ],
    )
    def test_exact_on_structured_graphs(self, factory):
        g = factory()
        truth = APSPOracle(g)
        _, bp = _build_bp(g)
        for s in range(g.num_vertices):
            for t in range(g.num_vertices):
                assert bp.query(s, t) == truth.query(s, t)

    def test_query_bounds_checked(self):
        g = star_graph(3)
        _, bp = _build_bp(g, num_roots=1)
        with pytest.raises(IndexError):
            bp.query(0, 99)


class TestBPStructure:
    def test_roots_and_members_disjoint(self):
        g = glp_graph(300, seed=9)
        _, bp = _build_bp(g, num_roots=10)
        seen = set()
        for r, members in zip(bp.roots, bp.root_members):
            assert r not in seen
            seen.add(r)
            for u in members:
                assert u not in seen
                seen.add(u)

    def test_member_cap_respected(self):
        g = star_graph(100)  # center has 100 neighbours
        index = HybridBuilder(g).build().index
        bp = add_bitparallel(g, index, num_roots=1, max_set_size=64)
        assert len(bp.root_members[0]) == 64

    def test_normal_labels_shrink_on_scale_free(self):
        g = glp_graph(400, seed=4)
        index, bp = _build_bp(g, num_roots=16)
        assert bp.normal.total_entries() < index.total_entries() * 0.5

    def test_size_accounting(self):
        g = glp_graph(100, seed=2)
        _, bp = _build_bp(g, num_roots=4)
        expected = (
            bp.normal.size_in_bytes()
            + bp.num_bp_tuples() * BYTES_PER_BP_TUPLE
        )
        assert bp.size_in_bytes() == expected

    def test_markers_match_labels(self):
        g = glp_graph(120, seed=5)
        _, bp = _build_bp(g, num_roots=6)
        for v in range(g.num_vertices):
            present = {t.root_idx for t in bp.bp_labels[v]}
            from_marker = {
                i for i in range(len(bp.roots)) if (bp.markers[v] >> i) & 1
            }
            assert present == from_marker


class TestBPValidation:
    def test_directed_rejected(self):
        g = Graph.from_edges(2, [(0, 1)], directed=True)
        index = HybridBuilder(g).build().index
        with pytest.raises(ValueError, match="undirected"):
            add_bitparallel(g, index)

    def test_weighted_rejected(self):
        g = Graph.from_edges(2, [(0, 1, 2.0)], weighted=True)
        index = HybridBuilder(g).build().index
        with pytest.raises(ValueError, match="unweighted"):
            add_bitparallel(g, index)

    def test_bad_num_roots(self):
        g = star_graph(3)
        index = HybridBuilder(g).build().index
        with pytest.raises(ValueError):
            add_bitparallel(g, index, num_roots=0)

    def test_bad_set_size(self):
        g = star_graph(3)
        index = HybridBuilder(g).build().index
        with pytest.raises(ValueError):
            add_bitparallel(g, index, max_set_size=65)
