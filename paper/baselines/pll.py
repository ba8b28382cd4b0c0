"""Pruned Landmark Labeling (Akiba, Iwata, Yoshida — SIGMOD 2013).

The strongest in-memory competitor in the paper's Table 6.  PLL builds
a canonical 2-hop labeling by running one pruned BFS (Dijkstra when
weighted) per vertex in rank order: when the search from root ``v``
reaches ``u`` at distance ``d`` but the labels built so far already
certify ``dist(v, u) <= d``, the search is pruned at ``u``.

The resulting labels form the *canonical labeling* for the given order
(Section 2.1 of the hop-doubling paper), which is also the paper's
baseline for label size: a useful cross-check is that Hop-Doubling /
Stepping with pruning produce exactly this index (our test suite
asserts it on unweighted graphs).

The output reuses :class:`paper.labels.LabelIndex`, so querying,
statistics and serialization are shared with the main algorithm.

Why the paper still wins: PLL requires the whole index *and* graph in
RAM during construction and runs |V| BFS traversals, neither of which
scales to disk-resident graphs — the motivation of Section 1.  Those
constraints do not show in this in-memory reproduction, but the
I/O-simulation benches (Table 6's indexing-time columns) expose them.
"""

from __future__ import annotations

import heapq
from collections import deque

from paper.labels import LabelIndex
from repro.core.labels import INF
from repro.core.ranking import Ranking, make_ranking
from repro.graphs.digraph import Graph
from repro.utils.timer import Timer


def _query_partial(
    la: dict[int, float], lb: dict[int, float]
) -> float:
    """Distance bound from two partial label dictionaries."""
    if len(la) > len(lb):
        la, lb = lb, la
    best = INF
    for w, d1 in la.items():
        d2 = lb.get(w)
        if d2 is not None:
            d = d1 + d2
            if d < best:
                best = d
    return best


def _pruned_bfs(
    graph: Graph,
    root: int,
    root_label: dict[int, float],
    target_labels: list[dict[int, float]],
    reverse: bool,
) -> None:
    """One pruned BFS from ``root``; labels reached vertices with ``root``.

    ``root_label`` is the root's own (already complete for higher
    ranks) label on the search side; ``target_labels`` are the labels
    on the opposite side, which both serve the pruning test and receive
    the new entries.
    """
    neighbors = graph.in_neighbors if reverse else graph.out_neighbors
    dist: dict[int, float] = {root: 0.0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        d = dist[u]
        if u != root:
            if _query_partial(root_label, target_labels[u]) <= d:
                continue  # pruned: already covered by higher-ranked pivots
            target_labels[u][root] = d
        for v in neighbors(u):
            if v not in dist:
                dist[v] = d + 1.0
                queue.append(v)


def _pruned_dijkstra(
    graph: Graph,
    root: int,
    root_label: dict[int, float],
    target_labels: list[dict[int, float]],
    reverse: bool,
) -> None:
    """Weighted variant of :func:`_pruned_bfs`."""
    edges = graph.in_edges if reverse else graph.out_edges
    dist: dict[int, float] = {root: 0.0}
    heap: list[tuple[float, int]] = [(0.0, root)]
    done: set[int] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u != root:
            if _query_partial(root_label, target_labels[u]) <= d:
                continue
            target_labels[u][root] = d
        for v, w in edges(u):
            nd = d + w
            if nd < dist.get(v, INF):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))


def build_pll(
    graph: Graph, ranking: Ranking | str = "auto"
) -> tuple[LabelIndex, float]:
    """Build the PLL index; returns ``(index, build_seconds)``.

    Roots are processed in rank order (highest priority first), which
    makes the result the canonical labeling of that order.
    """
    if isinstance(ranking, str):
        ranking = make_ranking(graph, ranking)
    n = graph.num_vertices
    timer = Timer().start()

    out_lab: list[dict[int, float]] = [{v: 0.0} for v in range(n)]
    if graph.directed:
        in_lab: list[dict[int, float]] = [{v: 0.0} for v in range(n)]
    else:
        in_lab = out_lab

    search = _pruned_dijkstra if graph.weighted else _pruned_bfs
    for root in ranking.vertex_at:
        # Forward search labels Lin of reached vertices: entries
        # (root -> u) answer queries through pivot `root`.
        search(graph, root, out_lab[root], in_lab, reverse=False)
        if graph.directed:
            # Backward search labels Lout of vertices that reach root.
            search(graph, root, in_lab[root], out_lab, reverse=True)

    elapsed = timer.stop()
    out_sorted = [sorted(lab.items()) for lab in out_lab]
    if graph.directed:
        in_sorted = [sorted(lab.items()) for lab in in_lab]
    else:
        in_sorted = out_sorted
    index = LabelIndex(
        n, graph.directed, out_sorted, in_sorted, list(ranking.rank_of)
    )
    return index, elapsed
