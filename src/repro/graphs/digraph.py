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

Storage convention (mirrors the paper's experimental setup, Section 8:
"a 32-bit integer for each vertex ... an 8-bit integer for the distance
value"): :meth:`Graph.size_in_bytes` reports 8 bytes per stored arc plus
1 byte per arc for weighted graphs, which is what the "|G| (MB)" column
of Table 6 counts.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

Edge = tuple[int, int]
WeightedEdge = tuple[int, int, float]


class Graph:
    """An immutable directed or undirected graph with dense vertex ids.

    Adjacency is stored as forward and (for directed graphs) reverse
    adjacency lists.  For undirected graphs the forward lists contain
    every neighbour and the reverse lists alias the forward ones, so
    ``in_neighbors`` and ``out_neighbors`` coincide.

    Parameters are not meant to be passed directly: use
    :meth:`from_edges`, :class:`~repro.graphs.builder.GraphBuilder`, a
    generator from :mod:`repro.graphs.generators`, or a reader from
    :mod:`repro.graphs.io`.
    """

    __slots__ = (
        "_n",
        "_m",
        "_directed",
        "_weighted",
        "_out",
        "_in",
        "_out_w",
        "_in_w",
    )

    def __init__(
        self,
        num_vertices: int,
        out_adj: list[list[int]],
        in_adj: list[list[int]],
        out_weights: list[list[float]] | None,
        in_weights: list[list[float]] | None,
        directed: bool,
        weighted: bool,
        num_edges: int,
    ) -> None:
        self._n = num_vertices
        self._m = num_edges
        self._directed = directed
        self._weighted = weighted
        self._out = out_adj
        self._in = in_adj
        self._out_w = out_weights
        self._in_w = in_weights

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

        best: dict[Edge, float] = {}
        for edge in edges:
            u, v = edge[0], edge[1]
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(
                    f"edge ({u}, {v}) out of range for {num_vertices} vertices"
                )
            if u == v and not allow_self_loops:
                continue
            if weighted:
                if len(edge) < 3:
                    raise ValueError(
                        f"weighted graph requires (u, v, w) edges: {edge!r}"
                    )
                w = float(edge[2])
                if not w > 0:
                    raise ValueError(
                        f"edge weight must be > 0, got {w!r} on ({u}, {v})"
                    )
            else:
                w = 1.0
            if not directed and u > v:
                u, v = v, u
            key = (u, v)
            old = best.get(key)
            if old is None or w < old:
                best[key] = w

        out_adj: list[list[int]] = [[] for _ in range(num_vertices)]
        out_w: list[list[float]] | None = (
            [[] for _ in range(num_vertices)] if weighted else None
        )
        if directed:
            in_adj: list[list[int]] = [[] for _ in range(num_vertices)]
            in_w = [[] for _ in range(num_vertices)] if weighted else None
        else:
            in_adj = out_adj
            in_w = out_w

        for (u, v), w in sorted(best.items()):
            out_adj[u].append(v)
            if weighted:
                out_w[u].append(w)
            if directed:
                in_adj[v].append(u)
                if weighted:
                    in_w[v].append(w)
            elif u != v:
                out_adj[v].append(u)
                if weighted:
                    out_w[v].append(w)

        return cls(
            num_vertices,
            out_adj,
            in_adj,
            out_w,
            in_w,
            directed,
            weighted,
            len(best),
        )

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

    def out_neighbors(self, v: int) -> Sequence[int]:
        """Vertices ``u`` with an arc ``v -> u`` (all neighbours if undirected)."""
        return self._out[v]

    def in_neighbors(self, v: int) -> Sequence[int]:
        """Vertices ``u`` with an arc ``u -> v`` (all neighbours if undirected)."""
        return self._in[v]

    def out_weights(self, v: int) -> Sequence[float]:
        """Weights of the arcs leaving ``v``, parallel to :meth:`out_neighbors`.

        Only weighted graphs store them; unweighted arcs all weigh 1.
        """
        if self._out_w is None:
            raise ValueError("unweighted graph stores no arc weights")
        return self._out_w[v]

    def out_degree(self, v: int) -> int:
        """Number of outgoing arcs of ``v``."""
        return len(self._out[v])

    def in_degree(self, v: int) -> int:
        """Number of incoming arcs of ``v``."""
        return len(self._in[v])

    def degree(self, v: int) -> int:
        """Total degree: ``out + in`` for directed graphs, plain degree otherwise."""
        if self._directed:
            return len(self._out[v]) + len(self._in[v])
        return len(self._out[v])

    def out_edges(self, v: int) -> Iterator[tuple[int, float]]:
        """Yield ``(target, weight)`` pairs for arcs leaving ``v``."""
        if self._weighted:
            yield from zip(self._out[v], self._out_w[v])
        else:
            for u in self._out[v]:
                yield u, 1.0

    def in_edges(self, v: int) -> Iterator[tuple[int, float]]:
        """Yield ``(source, weight)`` pairs for arcs entering ``v``."""
        if self._weighted:
            yield from zip(self._in[v], self._in_w[v])
        else:
            for u in self._in[v]:
                yield u, 1.0

    def edges(self) -> Iterator[WeightedEdge]:
        """Yield every edge once as ``(u, v, w)``.

        For undirected graphs each edge is reported once with
        ``u <= v``; for directed graphs in arc direction.
        """
        for u in range(self._n):
            if self._weighted:
                pairs = zip(self._out[u], self._out_w[u])
            else:
                pairs = ((v, 1.0) for v in self._out[u])
            for v, w in pairs:
                if self._directed or u <= v:
                    yield u, v, w

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the arc ``u -> v`` (or undirected edge ``{u, v}``) exists."""
        row = self._out[u]
        if len(self._out[v] if not self._directed else row) < 16:
            return v in row
        return v in row

    def edge_weight(self, u: int, v: int) -> float:
        """Weight of arc ``u -> v``; raises ``KeyError`` if absent."""
        row = self._out[u]
        for i, t in enumerate(row):
            if t == v:
                return self._out_w[u][i] if self._weighted else 1.0
        raise KeyError(f"no edge ({u}, {v})")

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
            and sorted(self.edges()) == sorted(other.edges())
        )

    def __hash__(self) -> int:  # Graphs are mutable-free but large; id-hash.
        return id(self)

    def __repr__(self) -> str:
        kind = "directed" if self._directed else "undirected"
        w = "weighted" if self._weighted else "unweighted"
        return f"Graph(|V|={self._n}, |E|={self._m}, {kind}, {w})"
