"""Tests for the synthetic graph generators."""

import hashlib

import numpy as np
import pytest

from repro.graphs.generators import (
    ba_graph,
    cycle_graph,
    er_graph,
    glp_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graphs.stats import rank_exponent
from repro.graphs.transform import weakly_connected_components


class TestGLP:
    def test_deterministic(self):
        a = glp_graph(200, seed=5)
        b = glp_graph(200, seed=5)
        assert a == b

    def test_seed_changes_graph(self):
        assert glp_graph(200, seed=1) != glp_graph(200, seed=2)

    def test_vertex_count(self):
        assert glp_graph(337, seed=0).num_vertices == 337

    def test_connected(self):
        g = glp_graph(300, seed=3)
        assert len(weakly_connected_components(g)) == 1

    def test_power_law_exponent_in_range(self):
        # Faloutsos rank exponent for scale-free graphs: about -1 .. -0.6.
        g = glp_graph(1500, m=1.5, seed=7)
        gamma = rank_exponent(g)
        assert -1.3 < gamma < -0.4

    def test_density_scales_with_m(self):
        sparse = glp_graph(500, m=1.0, seed=1)
        dense = glp_graph(500, m=4.0, seed=1)
        assert dense.num_edges > 2 * sparse.num_edges

    def test_directed_variant(self):
        g = glp_graph(200, seed=4, directed=True)
        assert g.directed
        assert g.num_edges > 0

    def test_tiny_graph(self):
        g = glp_graph(3, seed=0)
        assert g.num_vertices == 3

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            glp_graph(0)
        with pytest.raises(ValueError):
            glp_graph(10, m=-1)
        with pytest.raises(ValueError):
            glp_graph(10, m0=1)
        with pytest.raises(ValueError):
            glp_graph(10, p=1.5)


@pytest.mark.parametrize("directed", [False, True], ids=["undir", "dir"])
@pytest.mark.parametrize("make", [glp_graph, ba_graph])
@pytest.mark.parametrize("n, edges", [(1, 0), (2, 1), (3, 3)])
def test_smallest_graphs(make, n, edges, directed):
    """One vertex has no edge (its seed ring of one would be a loop);
    two are joined; three make a triangle — before any orientation,
    which on a directed draw only adds reciprocal arcs."""
    g = make(n, seed=0, directed=directed)
    assert g.num_vertices == n
    if directed:
        assert g.num_edges >= edges
    else:
        assert g.num_edges == edges
    assert len(weakly_connected_components(g)) == 1


class TestBA:
    def test_deterministic(self):
        assert ba_graph(150, seed=2) == ba_graph(150, seed=2)

    def test_min_degree_m(self):
        g = ba_graph(200, m=3, seed=1)
        # Every non-seed vertex attaches with m edges.
        assert all(g.degree(v) >= 3 for v in range(4, 200))

    def test_hub_emerges(self):
        g = ba_graph(500, m=2, seed=0)
        degrees = sorted((g.degree(v) for v in g.vertices()), reverse=True)
        assert degrees[0] > 5 * degrees[len(degrees) // 2]


class TestER:
    def test_edge_count(self):
        g = er_graph(100, 250, seed=0)
        assert g.num_edges == 250

    def test_saturation_capped(self):
        g = er_graph(4, 100, seed=0)
        assert g.num_edges == 6  # complete K4

    def test_directed(self):
        g = er_graph(10, 30, seed=1, directed=True)
        assert g.directed
        assert g.num_edges == 30


class TestDeterministicFamilies:
    def test_star_shape(self):
        g = star_graph(5)
        assert g.num_vertices == 6
        assert g.degree(0) == 5
        assert all(g.degree(v) == 1 for v in range(1, 6))

    def test_path_diameter(self):
        g = path_graph(10)
        assert g.num_edges == 9

    def test_cycle(self):
        g = cycle_graph(6)
        assert g.num_edges == 6
        assert all(g.degree(v) == 2 for v in g.vertices())

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_grid(self):
        g = grid_graph(3, 4)
        assert g.num_vertices == 12
        assert g.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical


# A seed defines its graph: these are the sha256 prefixes of the int64
# ``(u, v)`` edge columns (``edges()`` order) the generators produce.
# The benchmark's graphs and every byte-identity pin depend on them.
DIGESTS = [
    (glp_graph, 20000, dict(seed=7), "87d629194a0b9bc9"),
    (glp_graph, 70000, dict(seed=7), "78bec3281785150f"),
    (ba_graph, 10000, dict(m=2, seed=7), "8239abc98e9ba3ce"),
    (ba_graph, 10000, dict(m=2, seed=1), "190c0db690b888b1"),
    (glp_graph, 8000, dict(seed=7, directed=True), "37f7f16479e78428"),
    (ba_graph, 300, dict(m=2, seed=3), "eb8c7d8bacaedbf2"),
    (glp_graph, 300, dict(seed=3), "1b362610f6c57d72"),
    (glp_graph, 300, dict(seed=3, directed=True), "7d4abed6368f19ea"),
]


@pytest.mark.parametrize(
    "make, n, kwargs, digest",
    DIGESTS,
    ids=[
        "-".join([m.__name__, str(n), *(f"{k}={v}" for k, v in kw.items())])
        for m, n, kw, _ in DIGESTS
    ],
)
def test_generator_digests(make, n, kwargs, digest):
    edges = np.array(
        [(u, v) for u, v, _ in make(n, **kwargs).edges()], dtype="<i8"
    ).reshape(-1, 2)
    cols = np.ascontiguousarray(edges.T)
    assert hashlib.sha256(cols.tobytes()).hexdigest()[:16] == digest
