"""Tests for graph transformations."""

import pytest

from repro.graphs.digraph import Graph
from repro.graphs.transform import (
    permute_vertices,
    random_permutation,
    weakly_connected_components,
)
from tests.conftest import random_graph


class TestPermutation:
    def test_permute_relabels(self):
        g = Graph.from_edges(3, [(0, 1)], directed=True)
        p = permute_vertices(g, [2, 0, 1])
        assert p.has_edge(2, 0)

    def test_invalid_permutation(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            permute_vertices(g, [0, 0])

    def test_random_permutation_is_bijection(self):
        perm = random_permutation(20, seed=3)
        assert sorted(perm) == list(range(20))

    def test_degree_multiset_invariant(self):
        g = random_graph(5, weighted=False)
        perm = random_permutation(g.num_vertices, seed=9)
        p = permute_vertices(g, perm)
        assert sorted(g.degree(v) for v in g.vertices()) == sorted(
            p.degree(v) for v in p.vertices()
        )


class TestComponents:
    def test_components_found(self):
        g = Graph.from_edges(5, [(0, 1), (2, 3)], directed=False)
        comps = weakly_connected_components(g)
        assert sorted(len(c) for c in comps) == [1, 2, 2]

    def test_directed_weak_connectivity(self):
        g = Graph.from_edges(3, [(0, 1), (2, 1)], directed=True)
        comps = weakly_connected_components(g)
        assert len(comps) == 1
