"""Static graph container used throughout the library.

The paper (Section 1) defines the input as a static directed unweighted
graph ``G = (V, E)`` and later extends the algorithms to undirected and
positively weighted graphs (Section 7).  :class:`Graph` supports all four
combinations behind one interface:

* ``directed`` — whether ``(u, v)`` is distinct from ``(v, u)``;
* ``weighted`` — whether edges carry positive lengths (default length 1).

Vertices are dense integers ``0 .. n-1``.  The structure is immutable
after construction; use :class:`repro.graphs.builder.GraphBuilder` or the
``from_edges`` constructor to create instances.

Storage (the paper's experimental setup, Section 8: "a 32-bit integer
for each vertex ... an 8-bit integer for the distance value"): each
direction is a CSR — an int64 ``offsets`` column and a ``targets``
column of 32-bit vertex ids (:func:`id_dtype`; 64-bit only past ~1e9
vertices), every row sorted by neighbour id — plus an f64 ``weights``
column on weighted graphs.  An undirected graph stores each edge in
both rows and its in-side is its out-side.  Bulk readers take the
columns (:meth:`Graph.csr`, :meth:`Graph.degrees`); the per-vertex
accessors return Python lists, sliced from one list view built on
first use, because Python-loop readers (BFS, Dijkstra) walk lists
faster than they index numpy arrays.  :meth:`Graph.size_in_bytes`
reports 8 bytes per stored arc plus 1 byte per arc for weighted
graphs, which is what the "|G| (MB)" column of Table 6 counts.
"""

from __future__ import annotations

from itertools import repeat
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

Edge = tuple[int, int]
WeightedEdge = tuple[int, int, float]


def id_dtype(n: int):
    """Column type of vertex ids and hop counts over ``n`` vertices.

    int32 whenever twice the vertex count fits (a candidate's hop count
    is the sum of two entries' counts), else int64.  Pair keys are
    always int64.
    """
    return np.int32 if 2 * n <= np.iinfo(np.int32).max else np.int64


def _csr(n: int, src: np.ndarray, dst: np.ndarray, wt) -> tuple:
    """Read-only ``(offsets, targets, weights)`` columns of the arcs
    ``src -> dst``; ``dst`` and ``wt`` are in row order already, ``src``
    may be in any order."""
    offsets = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    cols = (offsets, dst, wt)
    for col in cols:
        if col is not None:
            col.flags.writeable = False
    return cols


class Graph:
    """An immutable directed or undirected graph with dense vertex ids.

    Adjacency is stored as a forward and (for directed graphs) a reverse
    CSR.  For undirected graphs the forward rows contain every
    neighbour and the reverse side aliases the forward one, so
    ``in_neighbors`` and ``out_neighbors`` coincide.

    Parameters are not meant to be passed directly: use
    :meth:`from_edges`, :class:`~repro.graphs.builder.GraphBuilder`, a
    generator from :mod:`repro.graphs.generators`, or a reader from
    :mod:`repro.graphs.io`.
    """

    __slots__ = ("_n", "_m", "_directed", "_weighted", "_out", "_in", "_lists")

    def __init__(
        self, n: int, out: tuple, inn: tuple, directed: bool, weighted: bool, m: int
    ) -> None:
        self._n = n
        self._m = m
        self._directed = directed
        self._weighted = weighted
        self._out = out
        self._in = inn
        self._lists = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        num_vertices: int,
        edges: Iterable[Edge] | Iterable[WeightedEdge],
        directed: bool = True,
        weighted: bool = False,
        allow_self_loops: bool = False,
    ) -> "Graph":
        """Build a graph from an iterable of edges.

        Parallel edges are collapsed (keeping the minimum weight for
        weighted graphs) and self loops are dropped unless
        ``allow_self_loops``; self loops never affect shortest-path
        distances but would waste label entries.

        For weighted graphs each edge must be a ``(u, v, w)`` triple with
        ``w > 0``; for unweighted graphs ``(u, v)`` pairs (a third
        element, if present, is ignored).
        """
        if num_vertices < 0:
            raise ValueError(f"num_vertices must be >= 0, got {num_vertices}")
        n = num_vertices
        edges = edges if isinstance(edges, list) else list(edges)

        def column(k: int, dtype) -> np.ndarray:
            return np.fromiter(map(itemgetter(k), edges), dtype, len(edges))

        try:
            u, v = column(0, np.int64), column(1, np.int64)
            w = column(2, np.float64) if weighted else None
        except (IndexError, OverflowError, TypeError, ValueError):
            _refuse(n, edges, weighted, allow_self_loops)
            raise
        keep = slice(None) if allow_self_loops else u != v
        if (
            (np.minimum(u, v) < 0).any()
            or (np.maximum(u, v) >= n).any()
            or (weighted and not (w[keep] > 0).all())
        ):
            _refuse(n, edges, weighted, allow_self_loops)
        u, v = u[keep], v[keep]
        if not directed:
            u, v = np.minimum(u, v), np.maximum(u, v)
        key = u * n + v
        if weighted:
            # One sort by (key, weight): a pair's first arc is its lightest.
            w = w[keep]
            order = np.lexsort((w, key))
            key, w = key[order], w[order]
            first = np.ones(key.size, bool)
            first[1:] = key[1:] != key[:-1]
            key, w = key[first], w[first]
        else:
            key = np.unique(key)
        return cls._from_keys(n, key, w, directed)

    @classmethod
    def _from_keys(cls, n: int, keys: np.ndarray, w, directed: bool) -> "Graph":
        """The graph of the sorted distinct arc keys ``u * n + v`` (edge
        keys with ``u <= v`` if undirected; a self loop is stored once),
        ``w`` their weights or ``None``."""
        ids = id_dtype(n)
        u, v = (keys // n).astype(ids), (keys % n).astype(ids)
        if directed:
            # Key order is row order out; a stable sort by target keeps
            # each in-row sorted by source.
            back = np.argsort(v, kind="stable")
            out = _csr(n, u, v, w)
            inn = _csr(n, v, u[back], None if w is None else w[back])
            return cls(n, out, inn, True, w is not None, keys.size)
        # Row x holds its edges (u, x), u < x, then (x, v), v >= x: the
        # reversed arcs go first into one stable sort by source.
        rev = u != v
        src = np.concatenate((v[rev], u))
        order = np.argsort(src, kind="stable")
        dst = np.concatenate((u[rev], v))[order]
        wt = None if w is None else np.concatenate((w[rev], w))[order]
        side = _csr(n, src, dst, wt)
        return cls(n, side, side, False, w is not None, keys.size)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of edges ``|E|`` (undirected edges counted once)."""
        return self._m

    @property
    def directed(self) -> bool:
        """Whether the graph is directed."""
        return self._directed

    @property
    def weighted(self) -> bool:
        """Whether edges carry explicit positive weights."""
        return self._weighted

    @property
    def density(self) -> float:
        """Average degree ``|E| / |V|`` as reported in the paper's tables."""
        return self._m / self._n if self._n else 0.0

    def vertices(self) -> range:
        """Iterate over all vertex ids."""
        return range(self._n)

    def csr(self, reverse: bool = False):
        """The arcs leaving every vertex (entering it when ``reverse``) as
        read-only ``(offsets, targets, weights)`` columns: row ``v`` is
        ``targets[offsets[v]:offsets[v + 1]]``, sorted, and ``weights``
        is ``None`` on an unweighted graph."""
        return self._in if reverse else self._out

    def degrees(self) -> np.ndarray:
        """Every vertex's :meth:`degree` as one int64 column."""
        degree = np.diff(self._out[0])
        return degree + np.diff(self._in[0]) if self._directed else degree

    def _rows(self) -> tuple:
        """``(out, in, out weights, in weights)`` rows as Python lists,
        sliced from one ``tolist()`` per column on first use."""
        if self._lists is None:

            def rows(col, bounds):
                flat = col.tolist()
                return list(map(flat.__getitem__, map(slice, bounds, bounds[1:])))

            sides = []
            for off, tgt, wt in (self._out, self._in)[: 1 + self._directed]:
                bounds = off.tolist()
                weights = None if wt is None else rows(wt, bounds)
                sides.append((rows(tgt, bounds), weights))
            (out, out_w), (inn, in_w) = sides[0], sides[-1]
            self._lists = (out, inn, out_w, in_w)
        return self._lists

    def out_neighbors(self, v: int) -> Sequence[int]:
        """Vertices ``u`` with an arc ``v -> u`` (all neighbours if undirected)."""
        return (self._lists or self._rows())[0][v]

    def in_neighbors(self, v: int) -> Sequence[int]:
        """Vertices ``u`` with an arc ``u -> v`` (all neighbours if undirected)."""
        return (self._lists or self._rows())[1][v]

    def out_weights(self, v: int) -> Sequence[float]:
        """Weights of the arcs leaving ``v``, parallel to :meth:`out_neighbors`.

        Only weighted graphs store them; unweighted arcs all weigh 1.
        """
        if not self._weighted:
            raise ValueError("unweighted graph stores no arc weights")
        return (self._lists or self._rows())[2][v]

    def out_degree(self, v: int) -> int:
        """Number of outgoing arcs of ``v``."""
        off = self._out[0]
        return int(off[v + 1] - off[v])

    def in_degree(self, v: int) -> int:
        """Number of incoming arcs of ``v``."""
        off = self._in[0]
        return int(off[v + 1] - off[v])

    def degree(self, v: int) -> int:
        """Total degree: ``out + in`` for directed graphs, plain degree otherwise."""
        return self.out_degree(v) + (self.in_degree(v) if self._directed else 0)

    def out_edges(self, v: int) -> Iterator[tuple[int, float]]:
        """Yield ``(target, weight)`` pairs for arcs leaving ``v``."""
        rows = self._lists or self._rows()
        return zip(rows[0][v], rows[2][v] if self._weighted else repeat(1.0))

    def in_edges(self, v: int) -> Iterator[tuple[int, float]]:
        """Yield ``(source, weight)`` pairs for arcs entering ``v``."""
        rows = self._lists or self._rows()
        return zip(rows[1][v], rows[3][v] if self._weighted else repeat(1.0))

    def edges(self) -> Iterator[WeightedEdge]:
        """Yield every edge once as ``(u, v, w)``.

        For undirected graphs each edge is reported once with
        ``u <= v``; for directed graphs in arc direction.
        """
        off, tgt, wt = self._out
        src = np.repeat(np.arange(self._n), np.diff(off))
        once = slice(None) if self._directed else src <= tgt
        weights = repeat(1.0) if wt is None else wt[once].tolist()
        return zip(src[once].tolist(), tgt[once].tolist(), weights)

    def _find(self, u: int, v: int) -> int:
        """Position of the arc ``u -> v`` in the out columns, or -1."""
        off, tgt, _ = self._out
        lo, hi = int(off[u]), int(off[u + 1])
        i = lo + int(tgt[lo:hi].searchsorted(v))
        return i if i < hi and tgt[i] == v else -1

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the arc ``u -> v`` (or undirected edge ``{u, v}``) exists."""
        return self._find(u, v) >= 0

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of arc ``u -> v``; raises ``KeyError`` if absent."""
        i = self._find(u, v)
        if i < 0:
            raise KeyError(f"no edge ({u}, {v})")
        return float(self._out[2][i]) if self._weighted else 1.0

    # ------------------------------------------------------------------
    # Size accounting (paper convention)
    # ------------------------------------------------------------------
    def num_arcs(self) -> int:
        """Number of stored arcs: ``|E|`` for directed, ``2|E|`` for undirected."""
        return self._m if self._directed else 2 * self._m

    def size_in_bytes(self) -> int:
        """Approximate on-disk size using the paper's 32-bit-vertex convention.

        Each stored arc costs two 32-bit vertex ids; weighted graphs add
        one 8-bit length per arc (Section 8's storage description).
        """
        per_arc = 8 + (1 if self._weighted else 0)
        return self.num_arcs() * per_arc + 4 * self._n

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._n == other._n
            and self._directed == other._directed
            and self._weighted == other._weighted
            and all(
                a is b or np.array_equal(a, b)
                for a, b in zip(self._out, other._out)
            )
        )

    def __hash__(self) -> int:  # Graphs are mutable-free but large; id-hash.
        return id(self)

    def __repr__(self) -> str:
        kind = "directed" if self._directed else "undirected"
        w = "weighted" if self._weighted else "unweighted"
        return f"Graph(|V|={self._n}, |E|={self._m}, {kind}, {w})"


def _refuse(n: int, edges: list, weighted: bool, allow_self_loops: bool) -> None:
    """Raise the ``ValueError`` for the first edge, in input order, that
    :meth:`Graph.from_edges` cannot take."""
    for edge in edges:
        u, v = edge[0], edge[1]
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
        if u == v and not allow_self_loops or not weighted:
            continue
        if len(edge) < 3:
            raise ValueError(f"weighted graph requires (u, v, w) edges: {edge!r}")
        w = float(edge[2])
        if not w > 0:
            raise ValueError(f"edge weight must be > 0, got {w!r} on ({u}, {v})")
