"""Scale-free graph statistics used by Section 2 of the paper.

The paper's complexity bounds rest on three measurable properties of
unweighted scale-free graphs:

* the **power-law rank exponent** gamma of Faloutsos et al. (Lemma 1:
  ``deg(v) = r(v)^gamma / |V|^gamma`` — typically -0.8 <= gamma <= -0.7);
* the **expansion factor** ``R = z2 / z1`` of Newman et al. (Equation 2
  estimates ``R = log |V|``);
* the **hop diameter** ``D_H`` (Equation 1 estimates
  ``D = log|V| / log log|V|``), which bounds the number of indexing
  iterations (Theorems 4 and 6).

This module measures all three on concrete graphs, so tests and benches
can check the assumptions the algorithm's guarantees rest on.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.graphs.digraph import Graph
from repro.graphs.traversal import INF, bfs_distances


def degree_sequence(graph: Graph) -> list[int]:
    """All vertex degrees, sorted non-increasing (rank order)."""
    return sorted(graph.degrees().tolist(), reverse=True)


def rank_exponent(graph: Graph) -> float:
    """Least-squares estimate of the Faloutsos rank exponent gamma.

    Fits ``log(deg) = gamma * log(rank) + c`` over vertices with
    non-zero degree.  Scale-free graphs typically give
    ``-1.0 < gamma < -0.6``; flatter (near 0) values indicate a
    non-scale-free graph such as a road network.
    """
    seq = [d for d in degree_sequence(graph) if d > 0]
    if len(seq) < 2:
        return 0.0
    xs = [math.log(rank) for rank in range(1, len(seq) + 1)]
    ys = [math.log(d) for d in seq]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0:
        return 0.0
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    return sxy / sxx


def expansion_factor(
    graph: Graph, num_samples: int = 64, seed: int = 0
) -> float:
    """Estimate Newman's expansion factor ``R = z2 / z1``.

    ``z1`` is the mean number of vertices exactly 1 hop away from a
    random vertex and ``z2`` the mean at exactly 2 hops; the paper
    (Equation 2) predicts ``R ≈ log |V|`` for scale-free graphs.
    Estimated from BFS truncated at depth 2 on sampled vertices.
    """
    if graph.num_vertices == 0:
        return 0.0
    rng = random.Random(seed)
    n = graph.num_vertices
    samples = (
        list(graph.vertices())
        if n <= num_samples
        else rng.sample(range(n), num_samples)
    )
    total_z1 = 0
    total_z2 = 0
    for s in samples:
        dist = bfs_distances(graph, s, max_dist=2)
        total_z1 += sum(1 for d in dist if d == 1.0)
        total_z2 += sum(1 for d in dist if d == 2.0)
    if total_z1 == 0:
        return 0.0
    return total_z2 / total_z1


def hop_diameter(
    graph: Graph, exact_threshold: int = 2048, num_samples: int = 64, seed: int = 0
) -> int:
    """The hop diameter ``D_H``: max hops over all finite shortest paths.

    Exact (all-sources BFS) for graphs up to ``exact_threshold``
    vertices; estimated by sampled double-sweep BFS above that.  For
    unweighted graphs this equals the diameter; it bounds the iteration
    counts of Hop-Stepping (Theorem 6) and Hop-Doubling (Theorem 4).
    """
    n = graph.num_vertices
    if n == 0:
        return 0
    if n <= exact_threshold:
        sources = list(graph.vertices())
    else:
        rng = random.Random(seed)
        sources = rng.sample(range(n), min(num_samples, n))

    best = 0
    frontier = list(sources)
    for s in frontier:
        dist = bfs_distances(graph, s)
        far = 0
        far_v = s
        for v, d in enumerate(dist):
            if d != INF and d > far:
                far = d
                far_v = v
        if far > best:
            best = int(far)
        if n > exact_threshold and far_v != s:
            # Double sweep: BFS again from the farthest vertex found.
            dist2 = bfs_distances(graph, far_v)
            far2 = max((d for d in dist2 if d != INF), default=0.0)
            best = max(best, int(far2))
    return best


def predicted_diameter(num_vertices: int) -> float:
    """Equation 1 of the paper: ``D = log|V| / log log|V|``."""
    if num_vertices < 3:
        return float(max(0, num_vertices - 1))
    ln = math.log(num_vertices)
    return ln / math.log(ln)


def predicted_expansion(num_vertices: int) -> float:
    """Equation 2 of the paper: ``R = log|V|``."""
    if num_vertices <= 1:
        return 0.0
    return math.log(num_vertices)


@dataclass(frozen=True)
class GraphSummary:
    """A one-line profile of a graph, mirroring Table 6's left columns."""

    num_vertices: int
    num_edges: int
    max_degree: int
    density: float
    size_bytes: int
    directed: bool
    weighted: bool
    rank_exponent: float
    expansion: float

    def as_row(self) -> list[str]:
        """Render for the benchmark tables."""
        from repro.utils.prettyprint import format_bytes, format_count

        return [
            format_count(self.num_vertices),
            format_count(self.num_edges),
            format_count(self.max_degree),
            f"{self.density:.2f}",
            format_bytes(self.size_bytes),
        ]


def summarize(graph: Graph, seed: int = 0) -> GraphSummary:
    """Compute the :class:`GraphSummary` of ``graph``."""
    max_degree = max(graph.degrees().tolist(), default=0)
    return GraphSummary(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        max_degree=max_degree,
        density=graph.density,
        size_bytes=graph.size_in_bytes(),
        directed=graph.directed,
        weighted=graph.weighted,
        rank_exponent=rank_exponent(graph),
        expansion=expansion_factor(graph, seed=seed),
    )
