"""Query-side helpers on top of a frozen :class:`LabelStore` backend.

A 2-hop index answers ``dist(s, t)`` by merging two sorted labels
(Section 2).  This module adds the conveniences a downstream user
expects from a distance oracle: shortest-path *reconstruction* (the
index itself stores distances only) and simple analytics such as
closeness centrality and distance histograms, which the introduction
of the paper motivates ("network analysis such as betweenness
centrality computation").
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.labels import INF, LabelStore
from repro.graphs.digraph import Graph


def reconstruct_path(
    index: LabelStore, graph: Graph, s: int, t: int
) -> list[int] | None:
    """Recover one shortest path ``s -> t`` using the index as an oracle.

    The index stores distances, not paths; a path is rebuilt by greedy
    descent: repeatedly move to any out-neighbour ``x`` of the current
    vertex with ``w(cur, x) + dist(x, t) == dist(cur, t)``.  Each step
    costs ``deg(cur)`` index queries.  Returns ``None`` when ``t`` is
    unreachable from ``s``.
    """
    total = index.query(s, t)
    if total == INF:
        return None
    path = [s]
    cur = s
    remaining = total
    # Bounded by total hops; each step strictly decreases `remaining`.
    while cur != t:
        advanced = False
        for x, w in graph.out_edges(cur):
            rest = index.query(x, t)
            if rest != INF and abs(w + rest - remaining) < 1e-9:
                path.append(x)
                cur = x
                remaining = rest
                advanced = True
                break
        if not advanced:  # pragma: no cover - would indicate a broken index
            raise RuntimeError(
                f"path reconstruction stuck at {cur} towards {t}; "
                "index is inconsistent with the graph"
            )
    return path


def closeness_centrality(
    index: LabelStore, v: int, targets: Sequence[int]
) -> float:
    """Closeness of ``v`` over ``targets``: ``(reached) / sum(dist)``.

    Uses the harmonic-free classic definition restricted to reachable
    targets, a common exact-oracle workload (the index makes it cheap
    where BFS per vertex would not be).
    """
    total = 0.0
    reached = 0
    for t in targets:
        if t == v:
            continue
        d = index.query(v, t)
        if d != INF:
            total += d
            reached += 1
    if total == 0.0:
        return 0.0
    return reached / total


def distance_histogram(
    index: LabelStore, pairs: Iterable[tuple[int, int]]
) -> dict[float, int]:
    """Histogram of distances over ``pairs`` (INF bucket included).

    The "degrees of separation" analysis of the social-network example
    is built on this.
    """
    hist: dict[float, int] = {}
    for s, t in pairs:
        d = index.query(s, t)
        hist[d] = hist.get(d, 0) + 1
    return hist
