"""Inverted label index: one-to-all and k-nearest-neighbour queries.

A 2-hop index answers point-to-point queries in one merge join.  Many
of the workloads the paper motivates (closeness/betweenness centrality,
influence analysis) instead ask *one-to-many* questions.  Those are
served efficiently by inverting the labels once:

* ``inverted_in[w]``  = all ``(v, d)`` with ``(w, d)`` in ``Lin(v)``  —
  every vertex that pivot ``w`` can reach, with distances;
* ``inverted_out[w]`` = all ``(v, d)`` with ``(w, d)`` in ``Lout(v)`` —
  every vertex that can reach pivot ``w``.

Then the distances from a source ``s`` to *all* vertices are the
min-plus product of ``Lout(s)`` with the inverted in-lists — touching
only ``sum(|inverted_in[w]| for w in Lout(s))`` entries instead of
running a full BFS, and reusing the index instead of the graph.

k-NN keeps a per-pivot sort by distance and expands pivots best-first,
stopping once the k-th best found so far beats every unexplored
candidate.
"""

from __future__ import annotations

import heapq

from repro.core.labels import INF, LabelStore


class InvertedLabelIndex:
    """One-to-many queries over any frozen :class:`LabelStore` backend."""

    def __init__(self, index: LabelStore) -> None:
        self.index = index
        n = index.n
        self.inverted_in: dict[int, list[tuple[float, int]]] = {}
        self.inverted_out: dict[int, list[tuple[float, int]]] = {}
        for v in range(n):
            for w, d in index.in_label(v):
                self.inverted_in.setdefault(w, []).append((d, v))
            if index.directed:
                for w, d in index.out_label(v):
                    self.inverted_out.setdefault(w, []).append((d, v))
        if not index.directed:
            self.inverted_out = self.inverted_in
        for lists in (self.inverted_in, self.inverted_out):
            for entries in lists.values():
                entries.sort()

    def _check(self, v: int) -> None:
        if not 0 <= v < self.index.n:
            raise IndexError(f"vertex {v} out of range [0, {self.index.n})")

    # -- one-to-all ------------------------------------------------------
    def distances_from(self, s: int) -> list[float]:
        """Distances from ``s`` to every vertex, via the labels only."""
        self._check(s)
        dist = [INF] * self.index.n
        dist[s] = 0.0
        for w, d1 in self.index.out_label(s):
            for d2, v in self.inverted_in.get(w, ()):
                d = d1 + d2
                if d < dist[v]:
                    dist[v] = d
        return dist

    def distances_to(self, t: int) -> list[float]:
        """Distances from every vertex to ``t`` (reverse one-to-all)."""
        self._check(t)
        dist = [INF] * self.index.n
        dist[t] = 0.0
        for w, d2 in self.index.in_label(t):
            for d1, v in self.inverted_out.get(w, ()):
                d = d1 + d2
                if d < dist[v]:
                    dist[v] = d
        return dist

    # -- k nearest neighbours ------------------------------------------------
    def nearest(
        self, s: int, k: int, include_self: bool = False
    ) -> list[tuple[float, int]]:
        """The ``k`` closest vertices to ``s`` as ``(dist, vertex)`` pairs.

        Best-first expansion over the pivots of ``Lout(s)``: each pivot
        ``w`` contributes candidates ``d(s, w) + d(w, v)`` in
        non-decreasing order (its inverted list is sorted), so a heap
        of per-pivot cursors yields globally non-decreasing candidates
        and the scan stops after ``k`` distinct vertices.
        """
        self._check(s)
        if k <= 0:
            return []
        # Heap items: (candidate_dist, pivot_order, pivot, cursor).
        source_label = self.index.out_label(s)
        heap: list[tuple[float, int, int, int]] = []
        for order, (w, d1) in enumerate(source_label):
            entries = self.inverted_in.get(w)
            if entries:
                heap.append((d1 + entries[0][0], order, w, 0))
        heapq.heapify(heap)

        result: list[tuple[float, int]] = []
        seen: set[int] = set()
        pivot_d1 = dict(source_label)
        while heap and len(result) < k + (0 if include_self else 1):
            d, order, w, cursor = heapq.heappop(heap)
            entries = self.inverted_in[w]
            _, v = entries[cursor]
            if cursor + 1 < len(entries):
                nxt = pivot_d1[w] + entries[cursor + 1][0]
                heapq.heappush(heap, (nxt, order, w, cursor + 1))
            if v in seen:
                continue
            # `d` is only an upper bound via pivot w; other pivots may
            # be shorter, but any shorter route would already have been
            # popped (all cursors advance in non-decreasing order), so
            # the first pop of `v` is its exact distance.
            seen.add(v)
            result.append((d, v))
        if not include_self:
            result = [(d, v) for d, v in result if v != s][:k]
        return result[:k]
