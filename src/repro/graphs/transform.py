"""Graph transformations: symmetrization, reversal, relabeling, components.

Dataset preparation for the paper's experiments needs a few standard
rewrites: treating a directed crawl as undirected, restricting to the
largest (weakly) connected component so query workloads do not drown in
unreachable pairs, and permuting vertex ids (used by tests to check that
algorithms do not depend on accidental id order).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Sequence

from repro.graphs.digraph import Graph


def to_undirected(graph: Graph) -> Graph:
    """Forget arc directions (collapsing antiparallel arcs, min weight)."""
    if not graph.directed:
        return graph
    if graph.weighted:
        edges = [(u, v, w) for u, v, w in graph.edges()]
    else:
        edges = [(u, v) for u, v, _ in graph.edges()]
    return Graph.from_edges(
        graph.num_vertices, edges, directed=False, weighted=graph.weighted
    )


def reverse_graph(graph: Graph) -> Graph:
    """Reverse every arc (identity for undirected graphs)."""
    if not graph.directed:
        return graph
    if graph.weighted:
        edges = [(v, u, w) for u, v, w in graph.edges()]
    else:
        edges = [(v, u) for u, v, _ in graph.edges()]
    return Graph.from_edges(
        graph.num_vertices, edges, directed=True, weighted=graph.weighted
    )


def permute_vertices(graph: Graph, permutation: Sequence[int]) -> Graph:
    """Relabel vertex ``v`` as ``permutation[v]``.

    ``permutation`` must be a bijection on ``range(num_vertices)``.
    """
    n = graph.num_vertices
    if len(permutation) != n or sorted(permutation) != list(range(n)):
        raise ValueError("permutation must be a bijection on vertex ids")
    if graph.weighted:
        edges = [(permutation[u], permutation[v], w) for u, v, w in graph.edges()]
    else:
        edges = [(permutation[u], permutation[v]) for u, v, _ in graph.edges()]
    return Graph.from_edges(
        n, edges, directed=graph.directed, weighted=graph.weighted
    )


def random_permutation(n: int, seed: int = 0) -> list[int]:
    """A seeded random bijection on ``range(n)``."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return perm


def weakly_connected_components(graph: Graph) -> list[list[int]]:
    """Vertex sets of weakly connected components, largest first."""
    n = graph.num_vertices
    seen = [False] * n
    components: list[list[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        comp = []
        queue = deque([start])
        seen[start] = True
        while queue:
            u = queue.popleft()
            comp.append(u)
            for v in graph.out_neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
            if graph.directed:
                for v in graph.in_neighbors(u):
                    if not seen[v]:
                        seen[v] = True
                        queue.append(v)
        components.append(comp)
    components.sort(key=len, reverse=True)
    return components


def largest_connected_component(graph: Graph) -> Graph:
    """Induced subgraph on the largest weakly connected component.

    Vertices are renumbered densely, preserving relative order, so the
    result is independent of traversal order.
    """
    components = weakly_connected_components(graph)
    if not components:
        return graph
    keep = sorted(components[0])
    new_id = {v: i for i, v in enumerate(keep)}
    edges = []
    for u, v, w in graph.edges():
        if u in new_id and v in new_id:
            if graph.weighted:
                edges.append((new_id[u], new_id[v], w))
            else:
                edges.append((new_id[u], new_id[v]))
    return Graph.from_edges(
        len(keep), edges, directed=graph.directed, weighted=graph.weighted
    )


def induced_subgraph(graph: Graph, vertices: Sequence[int]) -> Graph:
    """Induced subgraph on ``vertices`` (renumbered densely in given order)."""
    new_id = {v: i for i, v in enumerate(vertices)}
    if len(new_id) != len(vertices):
        raise ValueError("vertices must be distinct")
    edges = []
    for u, v, w in graph.edges():
        iu, iv = new_id.get(u), new_id.get(v)
        if iu is not None and iv is not None:
            if graph.weighted:
                edges.append((iu, iv, w))
            else:
                edges.append((iu, iv))
    return Graph.from_edges(
        len(vertices), edges, directed=graph.directed, weighted=graph.weighted
    )


def peel_pendants(graph: Graph, rank_of: Sequence[int]):
    """Split an undirected graph into its core and its pendant vertices.

    ``v`` is a **pendant** iff ``deg(v) = 1``, its neighbour has degree
    >= 2 (a K2 component keeps both ends; isolated vertices are core)
    and the neighbour outranks it under ``rank_of`` — always, under the
    degree ranking.  Every shortest path from a pendant leaves through
    its one edge, so ``dist(s, t) = hang[s] + dist_core(parent[s],
    parent[t]) + hang[t]`` for ``s != t`` — an index of the core
    answers the whole graph (IS-LABEL's idea, one level deep) — and
    the pendant's label is its neighbour's moved out by that edge.  A
    degree-1 vertex that outranks its neighbour stays in the core: it
    is a pivot of other labels, which a derived label cannot be.

    Returns ``(core, parent, hang)``: the graph without pendant edges
    (same vertex ids, pendants isolated), ``parent[v]`` the pendant's
    neighbour (``v`` itself for core vertices) and ``hang[v]`` the
    weight of its edge (``0.0`` for core vertices).  A graph without
    pendants — and every directed graph — comes back as
    ``(graph, None, None)``.
    """
    if graph.directed:
        return graph, None, None
    n = graph.num_vertices
    adj = list(map(graph.out_neighbors, range(n)))
    pendants = [
        v for v, row in enumerate(adj)
        if len(row) == 1
        and len(adj[row[0]]) >= 2
        and rank_of[row[0]] < rank_of[v]
    ]
    if not pendants:
        return graph, None, None
    weighted = graph.weighted
    weights = list(map(graph.out_weights, range(n))) if weighted else None
    parent = list(range(n))
    hang = [0.0] * n
    for v in pendants:
        parent[v] = adj[v][0]
        hang[v] = weights[v][0] if weighted else 1.0
        adj[v] = []
    # Rows no pendant hangs from are shared with the input graph
    # (graphs are immutable); only the parents' rows are filtered.
    for u in {parent[v] for v in pendants}:
        if weighted:
            kept = [(x, w) for x, w in zip(adj[u], weights[u]) if not hang[x]]
            adj[u] = [x for x, _ in kept]
            weights[u] = [w for _, w in kept]
        else:
            adj[u] = [x for x in adj[u] if not hang[x]]
    if weighted:
        for v in pendants:
            weights[v] = []
    core = Graph(
        n, adj, adj, weights, weights, False, weighted,
        graph.num_edges - len(pendants),
    )
    return core, parent, hang
