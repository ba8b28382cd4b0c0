"""Graph traversals: BFS / Dijkstra and their bidirectional variants.

These routines serve three roles in the reproduction:

* ground truth for correctness tests (single-source distances);
* the **BIDIJ** baseline of Table 6 — online bidirectional search with
  no index at all;
* building blocks for the baselines (PLL's pruned BFS, IS-Label's
  residual-graph search, HCL-lite's bounded search).

Distances are floats; unreachable pairs yield :data:`INF`.  Unweighted
searches use plain breadth-first search, weighted ones use binary-heap
Dijkstra.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable

from repro.graphs.digraph import Graph
from repro.utils.validation import check_vertex

INF = float("inf")


def bfs_distances(
    graph: Graph,
    source: int,
    reverse: bool = False,
    max_dist: float = INF,
) -> list[float]:
    """Hop distances from ``source`` (or *to* it when ``reverse``).

    ``reverse=True`` traverses arcs backwards, giving ``dist(v, source)``
    for every ``v`` — the ingredient for in-labels on directed graphs.
    Vertices farther than ``max_dist`` are left at :data:`INF`.
    """
    check_vertex(graph, source)
    neighbors = graph.in_neighbors if reverse else graph.out_neighbors
    dist = [INF] * graph.num_vertices
    dist[source] = 0.0
    if max_dist < 0:
        return dist
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        if du >= max_dist:
            continue
        for v in neighbors(u):
            if dist[v] == INF:
                dist[v] = du + 1.0
                queue.append(v)
    return dist


def dijkstra_distances(
    graph: Graph,
    source: int,
    reverse: bool = False,
    max_dist: float = INF,
) -> list[float]:
    """Weighted distances from ``source`` (to it when ``reverse``).

    Works on unweighted graphs too (all weights 1), but prefer
    :func:`bfs_distances` there — it is considerably faster.
    """
    check_vertex(graph, source)
    edges = graph.in_edges if reverse else graph.out_edges
    dist = [INF] * graph.num_vertices
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        if du > max_dist:
            break
        for v, w in edges(u):
            nd = du + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def bidirectional_bfs(graph: Graph, s: int, t: int) -> float:
    """Unweighted ``dist(s, t)`` via alternating two-frontier BFS.

    Expands the smaller frontier first; stops as soon as the sum of
    completed levels proves no shorter meeting point can exist.  This is
    the unweighted instantiation of the paper's BIDIJ baseline.
    """
    check_vertex(graph, s)
    check_vertex(graph, t)
    if s == t:
        return 0.0

    dist_f: dict[int, float] = {s: 0.0}
    dist_b: dict[int, float] = {t: 0.0}
    frontier_f: list[int] = [s]
    frontier_b: list[int] = [t]
    depth_f = 0.0
    depth_b = 0.0
    best = INF

    while frontier_f and frontier_b:
        if best <= depth_f + depth_b:
            break
        # Expand the smaller frontier one full level.
        if len(frontier_f) <= len(frontier_b):
            next_frontier: list[int] = []
            for u in frontier_f:
                for v in graph.out_neighbors(u):
                    if v not in dist_f:
                        dist_f[v] = dist_f[u] + 1.0
                        next_frontier.append(v)
                        if v in dist_b:
                            best = min(best, dist_f[v] + dist_b[v])
            frontier_f = next_frontier
            depth_f += 1.0
        else:
            next_frontier = []
            for u in frontier_b:
                for v in graph.in_neighbors(u):
                    if v not in dist_b:
                        dist_b[v] = dist_b[u] + 1.0
                        next_frontier.append(v)
                        if v in dist_f:
                            best = min(best, dist_f[v] + dist_b[v])
            frontier_b = next_frontier
            depth_b += 1.0
    return best


def bidirectional_dijkstra(graph: Graph, s: int, t: int) -> float:
    """Weighted ``dist(s, t)`` by two simultaneous Dijkstra searches.

    The classic termination rule is used: stop when the sum of the two
    heap minima reaches the best meeting distance seen so far.
    """
    check_vertex(graph, s)
    check_vertex(graph, t)
    if s == t:
        return 0.0

    dist_f: dict[int, float] = {s: 0.0}
    dist_b: dict[int, float] = {t: 0.0}
    settled_f: set[int] = set()
    settled_b: set[int] = set()
    heap_f: list[tuple[float, int]] = [(0.0, s)]
    heap_b: list[tuple[float, int]] = [(0.0, t)]
    best = INF

    def expand(
        heap: list[tuple[float, int]],
        dist_here: dict[int, float],
        dist_there: dict[int, float],
        settled: set[int],
        edges: Callable,
    ) -> None:
        nonlocal best
        du, u = heapq.heappop(heap)
        if u in settled:
            return
        settled.add(u)
        if u in dist_there:
            best = min(best, du + dist_there[u])
        for v, w in edges(u):
            nd = du + w
            if nd < dist_here.get(v, INF):
                dist_here[v] = nd
                heapq.heappush(heap, (nd, v))
            if v in dist_there:
                best = min(best, nd + dist_there[v])

    while heap_f and heap_b:
        top_f = heap_f[0][0]
        top_b = heap_b[0][0]
        if best <= top_f + top_b:
            break
        if top_f <= top_b:
            expand(heap_f, dist_f, dist_b, settled_f, graph.out_edges)
        else:
            expand(heap_b, dist_b, dist_f, settled_b, graph.in_edges)
    return best
