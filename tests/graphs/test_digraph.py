"""Unit tests for the Graph container."""

import pytest

from repro.graphs.digraph import Graph


class TestConstruction:
    def test_empty_graph(self):
        g = Graph.from_edges(0, [])
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert list(g.edges()) == []

    def test_single_directed_edge(self):
        g = Graph.from_edges(2, [(0, 1)], directed=True)
        assert g.num_edges == 1
        assert list(g.out_neighbors(0)) == [1]
        assert list(g.out_neighbors(1)) == []
        assert list(g.in_neighbors(1)) == [0]
        assert list(g.in_neighbors(0)) == []

    def test_single_undirected_edge(self):
        g = Graph.from_edges(2, [(0, 1)], directed=False)
        assert g.num_edges == 1
        assert list(g.out_neighbors(0)) == [1]
        assert list(g.out_neighbors(1)) == [0]
        assert list(g.in_neighbors(0)) == [1]

    def test_duplicate_edges_collapsed(self):
        g = Graph.from_edges(3, [(0, 1), (0, 1), (1, 0)], directed=True)
        assert g.num_edges == 2  # (0,1) deduped; (1,0) is distinct

    def test_duplicate_undirected_edges_collapse_both_orders(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)], directed=False)
        assert g.num_edges == 1

    def test_self_loops_dropped_by_default(self):
        g = Graph.from_edges(2, [(0, 0), (0, 1)])
        assert g.num_edges == 1

    def test_self_loops_kept_on_request(self):
        g = Graph.from_edges(2, [(0, 0), (0, 1)], allow_self_loops=True)
        assert g.num_edges == 2

    def test_weighted_parallel_edges_keep_min(self):
        g = Graph.from_edges(
            2, [(0, 1, 5.0), (0, 1, 2.0), (0, 1, 9.0)], weighted=True
        )
        assert g.edge_weight(0, 1) == 2.0

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(2, [(0, 2)])

    def test_negative_vertex_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph.from_edges(2, [(-1, 0)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            Graph.from_edges(2, [(0, 1, 0.0)], weighted=True)

    def test_weighted_requires_weight_component(self):
        with pytest.raises(ValueError, match="requires"):
            Graph.from_edges(2, [(0, 1)], weighted=True)

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            Graph.from_edges(-1, [])


class TestAccessors:
    def test_degrees_directed(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)], directed=True)
        assert g.out_degree(0) == 2
        assert g.in_degree(0) == 0
        assert g.degree(0) == 2
        assert g.degree(2) == 2  # in-degree 2
        assert g.degree(1) == 2  # 1 in + 1 out

    def test_degrees_undirected(self):
        g = Graph.from_edges(3, [(0, 1), (0, 2)], directed=False)
        assert g.degree(0) == 2
        assert g.degree(1) == 1

    def test_density(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.density == 1.0

    def test_density_empty(self):
        assert Graph.from_edges(0, []).density == 0.0

    def test_edges_iteration_directed(self):
        edges = [(0, 1), (1, 2), (2, 0)]
        g = Graph.from_edges(3, edges, directed=True)
        assert sorted((u, v) for u, v, _ in g.edges()) == sorted(edges)

    def test_edges_iteration_undirected_reports_once(self):
        g = Graph.from_edges(3, [(1, 0), (2, 1)], directed=False)
        listed = sorted((u, v) for u, v, _ in g.edges())
        assert listed == [(0, 1), (1, 2)]

    def test_out_edges_weights(self):
        g = Graph.from_edges(2, [(0, 1, 3.5)], weighted=True)
        assert list(g.out_edges(0)) == [(1, 3.5)]
        assert list(g.in_edges(1)) == [(0, 3.5)]

    def test_unweighted_edges_have_unit_weight(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert list(g.out_edges(0)) == [(1, 1.0)]

    def test_has_edge(self):
        g = Graph.from_edges(3, [(0, 1)], directed=True)
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)

    def test_edge_weight_missing_raises(self):
        g = Graph.from_edges(2, [(0, 1)])
        with pytest.raises(KeyError):
            g.edge_weight(1, 0)

    def test_len_is_vertex_count(self):
        assert len(Graph.from_edges(7, [])) == 7


class TestSizeAccounting:
    def test_num_arcs_directed(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)], directed=True)
        assert g.num_arcs() == 2

    def test_num_arcs_undirected_doubles(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)], directed=False)
        assert g.num_arcs() == 4

    def test_size_in_bytes_paper_convention(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)], directed=True)
        assert g.size_in_bytes() == 2 * 8 + 3 * 4

    def test_weighted_adds_byte_per_arc(self):
        g = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)], weighted=True)
        assert g.size_in_bytes() == 2 * 9 + 3 * 4


class TestEquality:
    def test_equal_graphs(self):
        a = Graph.from_edges(3, [(0, 1), (1, 2)])
        b = Graph.from_edges(3, [(1, 2), (0, 1)])
        assert a == b

    def test_different_edges(self):
        a = Graph.from_edges(3, [(0, 1)])
        b = Graph.from_edges(3, [(0, 2)])
        assert a != b

    def test_directedness_matters(self):
        a = Graph.from_edges(2, [(0, 1)], directed=True)
        b = Graph.from_edges(2, [(0, 1)], directed=False)
        assert a != b

    def test_repr_mentions_shape(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert "|V|=2" in repr(g)
        assert "|E|=1" in repr(g)


class TestRowSearch:
    """``has_edge`` / ``edge_weight`` binary-search the sorted CSR row."""

    def test_hub_row_matches_set_membership(self):
        from repro.graphs.generators import glp_graph

        g = glp_graph(20000, seed=7)
        hub = max(g.vertices(), key=g.degree)
        row = set(g.out_neighbors(hub))
        assert len(row) > 100
        for v in range(g.num_vertices):
            assert g.has_edge(hub, v) == (v in row)
            assert g.has_edge(v, hub) == (v in row)
            if v in row:
                assert g.edge_weight(hub, v) == 1.0
            else:
                with pytest.raises(KeyError):
                    g.edge_weight(hub, v)

    def test_weighted_row(self):
        edges = [(0, v, float(v)) for v in range(1, 40, 3)] + [(5, 0, 2.5)]
        g = Graph.from_edges(40, edges, weighted=True)
        for v in range(40):
            assert g.has_edge(0, v) == (v % 3 == 1)
            if v % 3 == 1:
                assert g.edge_weight(0, v) == float(v)
        assert g.edge_weight(5, 0) == 2.5 and not g.has_edge(0, 5)
        assert not g.has_edge(39, 0) and not g.has_edge(0, 40)


def _reference_rows(n, edges, directed, weighted, loops):
    """The adjacency ``from_edges`` must produce, by a dict and a loop."""
    best = {}
    for edge in edges:
        u, v = edge[0], edge[1]
        if u == v and not loops:
            continue
        key = (u, v) if directed or u <= v else (v, u)
        w = edge[2] if weighted else 1.0
        best[key] = min(w, best.get(key, w))
    out = [[] for _ in range(n)]
    inn = [[] for _ in range(n)] if directed else out
    for (u, v), w in sorted(best.items()):
        out[u].append((v, w))
        if directed:
            inn[v].append((u, w))
        elif u != v:
            out[v].append((u, w))
    return len(best), [sorted(r) for r in out], [sorted(r) for r in inn]


@pytest.mark.parametrize("seed", range(12))
def test_from_edges_matches_loop_reference(seed):
    import random

    rng = random.Random(seed)
    n = rng.randrange(1, 30)
    directed, weighted, loops = seed % 2 == 0, seed % 3 == 0, seed % 4 == 0
    edges = [
        (rng.randrange(n), rng.randrange(n), rng.choice([0.5, 1.0, 2.0, 7.25]))
        for _ in range(rng.randrange(0, 90))
    ]
    g = Graph.from_edges(
        n, edges, directed=directed, weighted=weighted, allow_self_loops=loops
    )
    m, out, inn = _reference_rows(n, edges, directed, weighted, loops)
    assert g.num_edges == m
    for v in range(n):
        assert list(g.out_edges(v)) == out[v]
        assert list(g.in_edges(v)) == inn[v]
        assert g.degree(v) == len(out[v]) + (len(inn[v]) if directed else 0)
