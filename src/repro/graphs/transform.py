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

import numpy as np

from repro.graphs.digraph import Graph, _csr


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
    weight of its edge (``0.0`` for core vertices), as int64 and f64
    columns.  A graph without pendants — and every directed graph —
    comes back as ``(graph, None, None)``.
    """
    if graph.directed:
        return graph, None, None
    n = graph.num_vertices
    offsets, targets, weights = graph.csr()
    degree = np.diff(offsets)
    rank = np.asarray(rank_of, dtype=np.int64)
    single = np.flatnonzero(degree == 1)
    nbr = targets[offsets[single]]
    pendants = single[(degree[nbr] >= 2) & (rank[nbr] < rank[single])]
    if not pendants.size:
        return graph, None, None
    first = offsets[pendants]
    parent = np.arange(n)
    parent[pendants] = targets[first]
    hang = np.zeros(n)
    hang[pendants] = 1.0 if weights is None else weights[first]
    # A pendant's one arc and its mirror in the parent's row go.
    src = np.repeat(np.arange(n), degree)
    keep = (hang[src] == 0) & (hang[targets] == 0)
    wt = None if weights is None else weights[keep]
    side = _csr(n, src[keep], targets[keep], wt)
    core = Graph(n, side, side, False, graph.weighted, graph.num_edges - pendants.size)
    return core, parent, hang
