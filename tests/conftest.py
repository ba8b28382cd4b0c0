"""Shared fixtures and hypothesis strategies for the test suite.

Includes the paper's own example graphs:

* ``road_graph`` — Figure 1's ``GR`` (hub ``a`` on most shortest paths);
* ``star5`` — Figure 2's ``GS`` (center + 5 leaves);
* ``figure3_graph`` — the 8-vertex directed graph of Figure 3 whose
  labeling the paper works out entry by entry (Figure 5).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from repro.graphs.digraph import Graph

# ---------------------------------------------------------------------------
# Serving
# ---------------------------------------------------------------------------


@pytest.fixture
def fan_out_everything(monkeypatch):
    """Lower ``ParallelOracle``'s two routing constants.

    Test indexes are cache-resident and test batches small, so at the
    shipped values every batch is (rightly) answered inline; with the
    floors down, any batch of two or more pairs reaches the fork pool.
    Skips where that pool cannot exist (no numpy, no ``fork``).
    """
    from repro.oracle import parallel
    from repro.serve import fanout_available

    if not fanout_available():
        pytest.skip("needs numpy and the fork start method")

    monkeypatch.setattr(parallel, "MIN_PARALLEL_BATCH", 2)
    monkeypatch.setattr(parallel, "INLINE_ENTRIES", 0)


# ---------------------------------------------------------------------------
# Paper graphs
# ---------------------------------------------------------------------------

# Figure 1 (GR): a = 0, b = 1, c = 2, d = 3, e = 4.
# Edges reconstructed from Table 1's distances: a-b, b-c, a-d, a-e
# (e.g. L(c) has (e, 3): c-b-a-e; L(e) has (d, 2): e-a-d).
ROAD_EDGES = [(0, 1), (1, 2), (0, 3), (0, 4)]


@pytest.fixture
def road_graph() -> Graph:
    return Graph.from_edges(5, ROAD_EDGES, directed=False)


@pytest.fixture
def star5() -> Graph:
    """Figure 2 (GS): center 0, leaves 1..5."""
    edges = [(0, leaf) for leaf in range(1, 6)]
    return Graph.from_edges(6, edges, directed=False)


# Figure 3(a): 8 vertices, ids equal rank (0 = highest degree).
# Reconstructed from Example 1 and Figure 5's label listing.
FIGURE3_EDGES = [
    (0, 1),
    (1, 0),
    (2, 0),
    (3, 1),
    (4, 0),
    (4, 1),
    (5, 3),
    (0, 6),
    (2, 6),
    (2, 3),
    (3, 7),
    (7, 2),
    (4, 5),
]


@pytest.fixture
def figure3_graph() -> Graph:
    return Graph.from_edges(8, FIGURE3_EDGES, directed=True)


# ---------------------------------------------------------------------------
# Random graph helpers (deterministic by seed)
# ---------------------------------------------------------------------------


def random_graph(
    seed: int,
    max_n: int = 40,
    directed: bool | None = None,
    weighted: bool | None = None,
) -> Graph:
    """A small random graph, fully determined by ``seed``."""
    rng = random.Random(seed)
    n = rng.randrange(2, max_n)
    m = rng.randrange(1, 3 * n)
    if directed is None:
        directed = rng.random() < 0.5
    if weighted is None:
        weighted = rng.random() < 0.5
    if weighted:
        edges = [
            (rng.randrange(n), rng.randrange(n), float(rng.randint(1, 9)))
            for _ in range(m)
        ]
    else:
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    return Graph.from_edges(n, edges, directed=directed, weighted=weighted)


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------


@st.composite
def graph_strategy(
    draw,
    max_n: int = 24,
    max_m: int = 60,
    directed: bool | None = None,
    weighted: bool | None = None,
    min_n: int = 2,
    fractional: bool = False,
    self_loops: bool = False,
    pendants: bool = False,
):
    """Draw a small random graph (weights are small integers-as-floats,
    so distance comparisons are exact).

    Few edges leave vertices isolated and the graph disconnected.
    ``fractional`` lets a weighted draw use quarter weights (still
    exact in binary, but not storable as integers), ``self_loops``
    lets a draw keep its ``(v, v)`` edges, and ``min_n=1`` admits the
    single-vertex graph.  ``pendants`` hangs up to ten more vertices
    off the drawn ones and off each other — stars, caterpillars,
    chains — and may add a K2 component and isolated vertices, all
    with ids past the drawn ``n``.
    """
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=max_m))
    if directed is None:
        directed = draw(st.booleans())
    if weighted is None:
        weighted = draw(st.booleans())
    vertex = st.integers(min_value=0, max_value=n - 1)
    if weighted:
        weight = st.integers(min_value=1, max_value=9).map(float)
        if fractional and draw(st.booleans()):
            weight = st.integers(min_value=1, max_value=36).map(lambda k: k / 4)
        edge = st.tuples(vertex, vertex, weight)
    else:
        edge = st.tuples(vertex, vertex)
    edges = draw(st.lists(edge, max_size=m))
    if pendants:
        for _ in range(draw(st.integers(min_value=0, max_value=10))):
            hung_from = draw(st.integers(min_value=0, max_value=n - 1))
            edges.append((hung_from, n, draw(weight)) if weighted else (hung_from, n))
            n += 1
        if draw(st.booleans()):
            edges.append((n, n + 1, draw(weight)) if weighted else (n, n + 1))
            n += 2
        n += draw(st.integers(min_value=0, max_value=2))
    return Graph.from_edges(
        n,
        edges,
        directed=directed,
        weighted=weighted,
        allow_self_loops=self_loops and draw(st.booleans()),
    )
