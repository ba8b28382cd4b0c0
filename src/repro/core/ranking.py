"""Vertex ranking strategies (Sections 2.1, 3.1 and 7 of the paper).

The labeling algorithms work with *any* total order on the vertices,
but their size guarantees rest on ranking by degree so that high-degree
hubs become pivots (Section 2.2).  The paper uses:

* **non-increasing degree** for undirected graphs (Section 3.1);
* **non-increasing product of in-degree and out-degree** for directed
  graphs ("due to its better performance", Section 8);
* arbitrary/heuristic orders for non-scale-free graphs (Section 7) —
  we provide a sampled shortest-path-hitting heuristic and a random
  order as the degenerate control.

A :class:`Ranking` maps both directions: ``rank_of[v]`` is the rank of
vertex ``v`` (0 = highest priority) and ``vertex_at[r]`` the vertex at
rank ``r``.  Ties are broken by vertex id, making every strategy
deterministic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.graphs.digraph import Graph
from repro.graphs.traversal import INF, bfs_distances, dijkstra_distances


@dataclass(frozen=True)
class Ranking:
    """A total order on vertices; rank 0 is the highest priority."""

    rank_of: list[int]
    vertex_at: list[int]

    @classmethod
    def from_scores(cls, scores: Sequence[float]) -> "Ranking":
        """Rank vertices by non-increasing score, ties by vertex id."""
        # A stable sort of the negated scores keeps tied ids ascending.
        return cls._of(np.argsort(-np.asarray(scores, np.float64), kind="stable"))

    @classmethod
    def from_order(cls, order: Sequence[int]) -> "Ranking":
        """Build from an explicit priority order (first = highest)."""
        order = np.asarray(order, dtype=np.int64)
        if not np.array_equal(np.sort(order), np.arange(order.size)):
            raise ValueError("order must be a permutation of range(n)")
        return cls._of(order)

    @classmethod
    def _of(cls, order: np.ndarray) -> "Ranking":
        rank_of = np.empty(order.size, np.int64)
        rank_of[order] = np.arange(order.size)
        return cls(rank_of=rank_of.tolist(), vertex_at=order.tolist())

    def __len__(self) -> int:
        return len(self.rank_of)

    def outranks(self, u: int, v: int) -> bool:
        """Whether ``u`` has strictly higher priority than ``v``."""
        return self.rank_of[u] < self.rank_of[v]

    def top(self, k: int) -> list[int]:
        """The ``k`` highest-priority vertices in rank order."""
        return self.vertex_at[:k]


def degree_ranking(graph: Graph) -> Ranking:
    """Rank by non-increasing total degree — the paper's base strategy."""
    return Ranking.from_scores(graph.degrees())


def inout_product_ranking(graph: Graph) -> Ranking:
    """Rank by non-increasing ``in_degree * out_degree``.

    The paper's preferred order for directed graphs (Section 8).  The
    total degree breaks ties so that vertices with a zero in- or
    out-degree are still usefully ordered.
    """
    n = graph.num_vertices
    din, dout = (np.diff(graph.csr(reverse)[0]) for reverse in (True, False))
    # Fractional tie-break by total degree keeps the order stable
    # and meaningful for product-zero vertices.
    return Ranking.from_scores(din * dout + (din + dout) / (4.0 * (n + 1)))


def random_ranking(graph: Graph, seed: int = 0) -> Ranking:
    """A uniformly random order — the degenerate control in tests/ablations."""
    order = list(graph.vertices())
    random.Random(seed).shuffle(order)
    return Ranking.from_order(order)


def betweenness_sample_ranking(
    graph: Graph, num_samples: int = 32, seed: int = 0
) -> Ranking:
    """Heuristic order for general graphs (Section 7).

    Approximates "how many shortest paths does v hit" by running BFS
    (or Dijkstra for weighted graphs) from sampled roots and counting,
    for every vertex, the number of sampled shortest-path trees in
    which it appears as an intermediate vertex, weighted by its subtree
    size.  This is a cheap stand-in for betweenness centrality; exact
    betweenness would need all-pairs shortest paths, which the paper
    notes "may not be practical for large graphs".
    """
    n = graph.num_vertices
    if n == 0:
        return Ranking.from_order([])
    rng = random.Random(seed)
    roots = (
        list(range(n)) if n <= num_samples else rng.sample(range(n), num_samples)
    )
    scores = [0.0] * n
    sssp = dijkstra_distances if graph.weighted else bfs_distances
    for root in roots:
        dist = sssp(graph, root)
        # Count, for each vertex, how many vertices sit strictly below it
        # in the shortest-path DAG (descendant mass approximation): a
        # vertex u at distance d contributes to every in-neighbour p with
        # dist[p] + w(p,u) == dist[u].
        order = sorted(
            (v for v in range(n) if dist[v] != INF),
            key=lambda v: -dist[v],
        )
        mass = [1.0] * n
        for u in order:
            if dist[u] == 0:
                continue
            preds = [
                p
                for p, w in graph.in_edges(u)
                if dist[p] != INF and dist[p] + w == dist[u]
            ]
            if not preds:
                continue
            share = mass[u] / len(preds)
            for p in preds:
                mass[p] += share
        for v in range(n):
            if dist[v] != INF and dist[v] > 0:
                scores[v] += mass[v]
    return Ranking.from_scores(scores)


# Registry used by the public facade and the CLI.
RANKING_STRATEGIES: dict[str, Callable[..., Ranking]] = {
    "degree": degree_ranking,
    "inout": inout_product_ranking,
    "random": random_ranking,
    "betweenness": betweenness_sample_ranking,
}


def make_ranking(graph: Graph, strategy: str = "auto", **kwargs) -> Ranking:
    """Resolve a ranking strategy by name.

    ``"auto"`` follows the paper: in/out-degree product for directed
    graphs, plain degree for undirected ones.
    """
    if strategy == "auto":
        strategy = "inout" if graph.directed else "degree"
    try:
        factory = RANKING_STRATEGIES[strategy]
    except KeyError:
        known = ", ".join(sorted(RANKING_STRATEGIES) + ["auto"])
        raise ValueError(f"unknown ranking strategy {strategy!r}; one of: {known}")
    return factory(graph, **kwargs)
