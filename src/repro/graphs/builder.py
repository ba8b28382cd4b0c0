"""Incremental construction of :class:`~repro.graphs.Graph` instances.

The datasets in the paper arrive as edge lists of various shapes
(SNAP/KONECT dumps, generator output).  ``GraphBuilder`` accumulates
edges with optional on-the-fly vertex renumbering, then produces an
immutable :class:`Graph`.
"""

from __future__ import annotations

from typing import Hashable

from repro.graphs.digraph import Graph


class GraphBuilder:
    """Accumulates edges and builds an immutable :class:`Graph`.

    Two modes of vertex identification are supported:

    * **dense mode** (``num_vertices`` given): vertex ids must already be
      integers in ``[0, num_vertices)``;
    * **mapping mode** (default): vertex ids may be arbitrary hashable
      labels; they are assigned dense integers in first-seen order and
      the mapping is available as :attr:`vertex_ids` after ``build``.

    Example::

        b = GraphBuilder(directed=False)
        b.add_edge("alice", "bob")
        b.add_edge("bob", "carol")
        g = b.build()
        assert g.num_vertices == 3
    """

    def __init__(
        self,
        num_vertices: int | None = None,
        directed: bool = True,
        weighted: bool = False,
    ) -> None:
        self._directed = directed
        self._weighted = weighted
        self._fixed_n = num_vertices
        self._edges: list[tuple[int, int, float]] = []
        self._id_of: dict[Hashable, int] = {}
        self._labels: list[Hashable] = []
        self._built = False

    @property
    def vertex_ids(self) -> dict[Hashable, int]:
        """Mapping from original labels to dense ids (mapping mode only)."""
        return dict(self._id_of)

    @property
    def labels(self) -> list[Hashable]:
        """Dense id -> original label (mapping mode only)."""
        return list(self._labels)

    def _intern(self, label: Hashable) -> int:
        if self._fixed_n is not None:
            if not isinstance(label, int):
                raise TypeError(
                    "dense mode requires integer vertex ids, got "
                    f"{type(label).__name__}"
                )
            if not 0 <= label < self._fixed_n:
                raise ValueError(
                    f"vertex {label} out of range [0, {self._fixed_n})"
                )
            return label
        vid = self._id_of.get(label)
        if vid is None:
            vid = len(self._labels)
            self._id_of[label] = vid
            self._labels.append(label)
        return vid

    def add_vertex(self, label: Hashable) -> int:
        """Ensure ``label`` exists as a vertex; return its dense id."""
        self._check_not_built()
        return self._intern(label)

    def add_edge(self, u: Hashable, v: Hashable, weight: float = 1.0) -> None:
        """Record an edge.  For weighted builders ``weight`` must be > 0."""
        self._check_not_built()
        if self._weighted and not weight > 0:
            raise ValueError(f"edge weight must be > 0, got {weight!r}")
        self._edges.append((self._intern(u), self._intern(v), float(weight)))

    def add_edges(self, edges) -> None:
        """Record many edges; items are ``(u, v)`` or ``(u, v, w)``."""
        for edge in edges:
            if len(edge) == 2:
                self.add_edge(edge[0], edge[1])
            else:
                self.add_edge(edge[0], edge[1], edge[2])

    def __len__(self) -> int:
        """Number of edge records accumulated so far (before dedup)."""
        return len(self._edges)

    def _check_not_built(self) -> None:
        if self._built:
            raise RuntimeError("GraphBuilder.build() was already called")

    def build(self) -> Graph:
        """Produce the immutable :class:`Graph`.

        The builder becomes unusable afterwards — create a new one for a
        new graph.  Duplicate edges are collapsed (min weight wins) and
        self loops dropped, as documented on :meth:`Graph.from_edges`.
        """
        self._check_not_built()
        self._built = True
        n = self._fixed_n if self._fixed_n is not None else len(self._labels)
        return Graph.from_edges(
            n, self._edges, directed=self._directed, weighted=self._weighted
        )
