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
from array import array

import numpy as np

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


def _draw_below(getrandbits, size: int) -> int:
    """``rng.randrange(size)``'s own draw, without its wrapper: the same
    ``getrandbits`` rejection loop, so the stream stays the same."""
    k = size.bit_length()
    r = getrandbits(k)
    while r >= size:
        r = getrandbits(k)
    return r


def _finish(n: int, keys: np.ndarray, rng: random.Random, directed: bool) -> Graph:
    """The graph of the distinct undirected edges ``keys`` (``u * n + v``,
    ``u < v``).  ``directed`` orients each edge, in key order, by one
    draw and adds its reverse arc by a second, 30% of the time."""
    keys = np.sort(keys)
    if not directed:
        return Graph._from_keys(n, keys, None, directed=False)
    draws = np.array([rng.random() for _ in range(2 * keys.size)])
    u, v = keys // n, keys % n
    swap, back = draws[0::2] < 0.5, draws[1::2] < 0.3
    a, b = np.where(swap, v, u), np.where(swap, u, v)
    arcs = np.sort(np.concatenate((a * n + b, b[back] * n + a[back])))
    return Graph._from_keys(n, arcs, None, directed=True)


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

    A preferential draw uses rejection sampling on top of the classic
    endpoint-pool trick: a uniform draw from the pool is proportional
    to degree; accepting with probability ``1 - beta/d`` corrects it to
    ``d - beta``.  The acceptance rate is at least ``1 - beta`` because
    degrees are >= 1.

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
    m0 = min(m0, num_vertices)  # a ring of one is a loop: no edge

    n = num_vertices
    rng = random.Random(seed)
    rand, getrandbits = rng.random, rng.getrandbits
    degrees = [0] * n
    pool: list[int] = []  # the endpoint pool: each edge adds both ends
    edges: set[int] = set()  # u * n + v, u < v

    def preferential() -> int:
        # The pool does not change during a draw, so randrange's
        # rejection loop and the acceptance test share one loop.
        size = len(pool)
        k = size.bit_length()
        while True:
            r = getrandbits(k)
            if r < size:
                v = pool[r]
                if rand() < 1.0 - beta / degrees[v]:
                    return v

    def add_edge(u: int, v: int) -> bool:
        key = u * n + v if u < v else v * n + u
        if u == v or key in edges:
            return False
        edges.add(key)
        degrees[u] += 1
        degrees[v] += 1
        pool.append(u)
        pool.append(v)
        return True

    # Seed ring over the first m0 vertices.
    for i in range(m0):
        add_edge(i, (i + 1) % m0)

    base, frac = int(m), m - int(m)
    next_vertex = m0
    while next_vertex < n:
        # With probability p, edges between existing vertices; else a
        # new vertex with preferential links.
        grow = not (rand() < p and len(edges) >= 2)
        if grow:
            v = next_vertex
            next_vertex += 1
        added = False
        for _ in range(max(1, base + (rand() < frac))):
            for _attempt in range(32):
                if add_edge(v if grow else preferential(), preferential()):
                    added = True
                    break
        if grow and not added:
            # Guarantee connectivity: attach to a random pool vertex.
            add_edge(v, pool[_draw_below(getrandbits, len(pool))])

    keys = np.fromiter(edges, np.int64, len(edges))
    del pool, degrees, edges  # free the sampler's state before the CSR
    return _finish(n, keys, rng, directed)


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
    getrandbits = rng.getrandbits
    m = min(m, max(1, num_vertices - 1))
    n = num_vertices

    # Every edge is new (a clique, then a new vertex to distinct
    # targets), so the keys need no set.
    edges = array("q")
    endpoint_pool: list[int] = []

    def add_edge(u: int, v: int) -> None:
        edges.append(u * n + v if u < v else v * n + u)
        endpoint_pool.append(u)
        endpoint_pool.append(v)

    seed_size = min(m + 1, n)
    for i in range(seed_size):
        for j in range(i + 1, seed_size):
            add_edge(i, j)

    for v in range(seed_size, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(endpoint_pool[_draw_below(getrandbits, len(endpoint_pool))])
        for u in targets:
            add_edge(v, u)

    return _finish(n, np.frombuffer(edges, np.int64), rng, directed)


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
