"""Synthetic graph generators.

The paper's synthetic evaluation (Section 8, Figure 9, syn1-syn6) uses
the **GLP** (Generalized Linear Preference) model of Bu & Towsley
[INFOCOM 2002], a preferential-attachment variant of the BA model with
tunable power-law exponent.  The paper sets ``m = 1.13`` and ``m0 = 10``
"as in [11], which gives a power law exponent of 2.155"; those defaults
are reproduced here (together with the companion parameters ``p`` and
``beta`` from the GLP paper that the exponent calculation assumes).

Every generator takes an integer ``seed`` and is fully deterministic for
a given seed, which is what makes the benchmark datasets reproducible.

Also provided: BA, Erdős–Rényi, and the deterministic families (star —
Figure 2 of the paper — path, cycle, grid) used by tests and by the
road-network discussion in Section 7.
"""

from __future__ import annotations

import random

from repro.graphs.digraph import Graph
from repro.utils.validation import check_nonnegative, check_positive, check_probability

__all__ = [
    "glp_graph",
    "ba_graph",
    "er_graph",
    "star_graph",
    "path_graph",
    "cycle_graph",
    "grid_graph",
]


def _sample_preferential(
    rng: random.Random,
    endpoint_pool: list[int],
    degrees: list[int],
    beta: float,
) -> int:
    """Sample a vertex with probability proportional to ``degree - beta``.

    Uses rejection sampling on top of the classic endpoint-pool trick:
    a uniform draw from the pool is proportional to degree; accepting
    with probability ``1 - beta/d`` corrects it to ``d - beta``.  The
    acceptance rate is at least ``1 - beta`` because degrees are >= 1.
    """
    while True:
        v = endpoint_pool[rng.randrange(len(endpoint_pool))]
        d = degrees[v]
        if d <= 0:  # pragma: no cover - pool only contains touched vertices
            continue
        if rng.random() < 1.0 - beta / d:
            return v


def glp_graph(
    num_vertices: int,
    m: float = 1.13,
    m0: int = 10,
    p: float = 0.4695,
    beta: float = 0.6447,
    seed: int = 0,
    directed: bool = False,
) -> Graph:
    """Generate a GLP (Generalized Linear Preference) scale-free graph.

    The process (Bu & Towsley 2002):

    * start from ``m0`` vertices connected in a ring;
    * repeatedly, with probability ``p`` add ``~m`` new edges between
      existing vertices chosen with linear preference
      ``P(v) ∝ deg(v) - beta``; with probability ``1 - p`` add a new
      vertex with ``~m`` edges to preferentially chosen targets;
    * stop once ``num_vertices`` vertices exist.

    ``m`` may be fractional: each event adds ``floor(m)`` edges plus one
    extra with probability ``frac(m)`` (minimum one edge per new vertex
    so the graph stays connected).

    With ``directed=True`` each generated edge is oriented uniformly at
    random and 30% of edges gain a reciprocal arc — a cheap but
    effective imitation of the in/out power laws of web/social graphs,
    used by the benchmark dataset catalog for directed stand-ins.
    """
    check_positive("num_vertices", num_vertices)
    check_positive("m", m)
    check_probability("p", p)
    check_probability("beta", beta)
    if m0 < 2:
        raise ValueError(f"m0 must be >= 2, got {m0}")
    if num_vertices < m0:
        m0 = max(2, num_vertices)

    rng = random.Random(seed)
    degrees = [0] * num_vertices
    endpoint_pool: list[int] = []
    edges: set[tuple[int, int]] = set()

    def add_edge(u: int, v: int) -> bool:
        if u == v:
            return False
        key = (u, v) if u < v else (v, u)
        if key in edges:
            return False
        edges.add(key)
        degrees[u] += 1
        degrees[v] += 1
        endpoint_pool.append(u)
        endpoint_pool.append(v)
        return True

    # Seed ring over the first m0 vertices.
    for i in range(m0):
        add_edge(i, (i + 1) % m0)

    def edges_this_event() -> int:
        base = int(m)
        extra = 1 if rng.random() < (m - base) else 0
        return max(1, base + extra)

    next_vertex = m0
    while next_vertex < num_vertices:
        if rng.random() < p and len(edges) >= 2:
            # Add edges between existing vertices.
            for _ in range(edges_this_event()):
                for _attempt in range(32):
                    u = _sample_preferential(rng, endpoint_pool, degrees, beta)
                    v = _sample_preferential(rng, endpoint_pool, degrees, beta)
                    if add_edge(u, v):
                        break
        else:
            # Add a new vertex with preferential links.
            v = next_vertex
            next_vertex += 1
            wanted = edges_this_event()
            added = 0
            for _ in range(wanted):
                for _attempt in range(32):
                    u = _sample_preferential(rng, endpoint_pool, degrees, beta)
                    if add_edge(v, u):
                        added += 1
                        break
            if added == 0:
                # Guarantee connectivity: attach to a random pool vertex.
                u = endpoint_pool[rng.randrange(len(endpoint_pool))]
                add_edge(v, u)

    if not directed:
        return Graph.from_edges(num_vertices, sorted(edges), directed=False)

    arcs: list[tuple[int, int]] = []
    for u, v in sorted(edges):
        if rng.random() < 0.5:
            u, v = v, u
        arcs.append((u, v))
        if rng.random() < 0.3:
            arcs.append((v, u))
    return Graph.from_edges(num_vertices, arcs, directed=True)


def ba_graph(
    num_vertices: int,
    m: int = 2,
    seed: int = 0,
    directed: bool = False,
) -> Graph:
    """Generate a Barabási–Albert preferential-attachment graph.

    Each new vertex attaches to ``m`` distinct existing vertices chosen
    proportionally to degree (the model the paper's diameter analysis in
    Section 2.2 is based on, via Bollobás & Riordan).
    """
    check_positive("num_vertices", num_vertices)
    check_positive("m", m)
    rng = random.Random(seed)
    m = min(m, max(1, num_vertices - 1))

    edges: set[tuple[int, int]] = set()
    endpoint_pool: list[int] = []

    def add_edge(u: int, v: int) -> None:
        key = (u, v) if u < v else (v, u)
        edges.add(key)
        endpoint_pool.append(u)
        endpoint_pool.append(v)

    seed_size = min(m + 1, num_vertices)
    for i in range(seed_size):
        for j in range(i + 1, seed_size):
            add_edge(i, j)

    for v in range(seed_size, num_vertices):
        targets: set[int] = set()
        while len(targets) < m:
            u = endpoint_pool[rng.randrange(len(endpoint_pool))]
            targets.add(u)
        for u in targets:
            add_edge(v, u)

    if not directed:
        return Graph.from_edges(num_vertices, sorted(edges), directed=False)
    arcs = []
    for u, v in sorted(edges):
        if rng.random() < 0.5:
            u, v = v, u
        arcs.append((u, v))
        if rng.random() < 0.3:
            arcs.append((v, u))
    return Graph.from_edges(num_vertices, arcs, directed=True)


def er_graph(
    num_vertices: int,
    num_edges: int,
    seed: int = 0,
    directed: bool = False,
) -> Graph:
    """Generate an Erdős–Rényi ``G(n, m)`` graph (non-scale-free control)."""
    check_positive("num_vertices", num_vertices)
    check_nonnegative("num_edges", num_edges)
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    max_possible = (
        num_vertices * (num_vertices - 1)
        if directed
        else num_vertices * (num_vertices - 1) // 2
    )
    target = min(num_edges, max_possible)
    while len(edges) < target:
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if u == v:
            continue
        if not directed and u > v:
            u, v = v, u
        edges.add((u, v))
    return Graph.from_edges(num_vertices, sorted(edges), directed=directed)


def star_graph(num_leaves: int, directed: bool = False) -> Graph:
    """The star ``GS`` of the paper's Figure 2: hub 0, leaves 1..n."""
    check_nonnegative("num_leaves", num_leaves)
    edges = [(0, leaf) for leaf in range(1, num_leaves + 1)]
    return Graph.from_edges(num_leaves + 1, edges, directed=directed)


def path_graph(num_vertices: int, directed: bool = False) -> Graph:
    """A simple path ``0 - 1 - ... - n-1`` (maximal hop diameter)."""
    check_positive("num_vertices", num_vertices)
    edges = [(i, i + 1) for i in range(num_vertices - 1)]
    return Graph.from_edges(num_vertices, edges, directed=directed)


def cycle_graph(num_vertices: int, directed: bool = False) -> Graph:
    """A cycle over ``num_vertices`` vertices."""
    if num_vertices < 3:
        raise ValueError(f"cycle needs >= 3 vertices, got {num_vertices}")
    edges = [(i, (i + 1) % num_vertices) for i in range(num_vertices)]
    return Graph.from_edges(num_vertices, edges, directed=directed)


def grid_graph(rows: int, cols: int) -> Graph:
    """An undirected ``rows x cols`` grid — the road-network-like family
    discussed in Section 7 (no high-degree hubs, degree ranking weak)."""
    check_positive("rows", rows)
    check_positive("cols", cols)
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph.from_edges(rows * cols, edges, directed=False)
