"""Graph transformations: relabeling, components, pendant peeling.

Permuting vertex ids checks that algorithms do not depend on accidental
id order; :func:`weakly_connected_components` lists the components;
:func:`peel_pendants` takes the degree-1 vertices off an undirected
graph before it is indexed.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Sequence

from repro.graphs.digraph import Graph


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
