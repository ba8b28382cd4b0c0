"""The label vocabulary shared by the store, the builders and the oracle.

Terminology (Sections 2-3 of the paper, adapted to zero-based ranks):

* every vertex has a unique **rank**; rank 0 is the *highest* priority
  (the paper's ``r(u) > r(v)`` — "u ranked higher" — is ``rank[u] <
  rank[v]`` here);
* a directed **label entry** ``(a -> b, d)`` asserts a trough path from
  ``a`` to ``b`` of length ``d``.  It is stored in ``Lout(a)`` when
  ``rank[b] < rank[a]`` (the pivot ``b`` outranks the owner ``a``) and
  in ``Lin(b)`` when ``rank[a] < rank[b]``;
* the trivial self entries ``(v, 0)`` live in both stores (the paper
  keeps them "for query answering");
* for undirected graphs a single store ``L(v)`` holds higher-ranked
  pivots (Section 7).

This module holds the read-side :class:`LabelStore` protocol every
query-side consumer is written against, the :class:`LabelDelta` an
incremental update hands to the serving stores (its labels as
:class:`LabelRows` columns), and the
:class:`LabelStats` size figures.  Labels are built in the
struct-of-arrays state of :mod:`repro.core.arraystate` and frozen into
the CSR store of :mod:`repro.core.flatstore`, the one representation
``repro`` writes and serves.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

INF = float("inf")

# Bytes per label entry under the paper's storage convention (Section 8):
# a 32-bit pivot id plus an 8-bit distance.
BYTES_PER_ENTRY = 5


@runtime_checkable
class LabelStore(Protocol):
    """Read-side contract of a frozen 2-hop label store.

    A store presents each vertex's out-/in-label as a sequence of
    ``(pivot, dist)`` pairs **sorted by pivot id** and answers distance
    queries over them.  Consumers (the oracle facade, the inverted
    k-NN index, the verifier) accept any implementation;
    :class:`repro.core.flatstore.FlatLabelStore` (contiguous CSR
    arrays, in either encoding) is the one ``repro`` ships.

    For undirected stores ``in_label(v)`` must return the same label
    as ``out_label(v)`` (the Section 7 single-store aliasing).
    """

    n: int
    directed: bool

    def out_label(self, v: int) -> Sequence[tuple[int, float]]:
        """``Lout(v)`` as (pivot, dist) pairs sorted by pivot."""
        ...

    def in_label(self, v: int) -> Sequence[tuple[int, float]]:
        """``Lin(v)`` as (pivot, dist) pairs sorted by pivot."""
        ...

    def query(self, s: int, t: int) -> float:
        """Exact ``dist(s, t)``; ``inf`` when unreachable."""
        ...

    def total_entries(self, include_trivial: bool = False) -> int:
        """Total label entries."""
        ...

    def size_in_bytes(self) -> int:
        """Index size under the paper's 5-bytes-per-entry convention."""
        ...


class LabelRows(Mapping):
    """Complete labels of some vertices, held as CSR columns.

    ``verts`` lists the vertices (sorted, distinct, int64); row ``k``
    is ``pivots[offsets[k] : offsets[k + 1]]`` (int32) with the
    matching ``dists`` (float64) — vertex ``verts[k]``'s label sorted
    by pivot id, its trivial ``(v, 0.0)`` self entry included, the
    shape :meth:`LabelStore.out_label` serves.  ``offsets`` is int64
    and starts at 0.

    It reads as a mapping from vertex to its label as a
    ``(pivot, dist)`` list, so two sets of rows compare as the labels
    they hold; the columns are what the stores consume.
    """

    __slots__ = ("verts", "offsets", "pivots", "dists")

    def __init__(self, verts, offsets, pivots, dists) -> None:
        self.verts, self.offsets = verts, offsets
        self.pivots, self.dists = pivots, dists

    @classmethod
    def from_labels(
        cls, labels: Mapping[int, Sequence[tuple[int, float]]]
    ) -> "LabelRows":
        """Rows of ``{vertex: [(pivot, dist), ...]}``, each label as given."""
        verts = sorted(labels)
        lens = [len(labels[v]) for v in verts]
        entries = [entry for v in verts for entry in labels[v]]
        return cls(
            np.asarray(verts, dtype=np.int64),
            np.concatenate(([0], np.cumsum(lens, dtype=np.int64))),
            np.asarray([p for p, _ in entries], dtype=np.int32),
            np.asarray([d for _, d in entries], dtype=np.float64),
        )

    def lens(self) -> np.ndarray:
        """Each row's length (int64)."""
        return np.diff(self.offsets)

    def rows(self, a: int, b: int, shift: int = 0) -> "LabelRows":
        """Rows ``a:b`` as rows of their own, every vertex id lowered
        by ``shift`` (a shard's first vertex); pivots pass as they are."""
        o, e = int(self.offsets[a]), int(self.offsets[b])
        return LabelRows(
            self.verts[a:b] - shift, self.offsets[a : b + 1] - o,
            self.pivots[o:e], self.dists[o:e],
        )

    def __getitem__(self, v: int) -> list[tuple[int, float]]:
        k = int(np.searchsorted(self.verts, v))
        if k == self.verts.size or self.verts[k] != v:
            raise KeyError(v)
        o, e = int(self.offsets[k]), int(self.offsets[k + 1])
        return list(zip(self.pivots[o:e].tolist(), self.dists[o:e].tolist()))

    def __iter__(self):
        return iter(self.verts.tolist())

    def __len__(self) -> int:
        return int(self.verts.size)


@dataclass
class LabelDelta:
    """Per-vertex label replacements produced by an incremental update.

    The unit of change flowing from a mutated label set to the serving
    stores: ``out`` (and ``inn`` on directed indexes) holds the
    *complete* replacement label of every vertex it names, as
    :class:`LabelRows` columns — sorted by pivot id with the trivial
    ``(v, 0.0)`` self entry included.  For undirected deltas ``inn``
    **aliases** ``out`` (the Section 7 single-store aliasing),
    mirroring the stores themselves.

    Produced by
    :meth:`repro.core.dynamic.DynamicHopDoublingIndex.pop_label_delta`
    straight from the repair state's columns, and consumed by
    ``apply_updates`` on the flat and sharded stores, which stage the
    columns as a query-time overlay (and refresh the kernel rows they
    replace), and on the oracle facades (which also invalidate derived
    caches).  :meth:`from_labels` makes one from label lists.
    """

    n: int
    directed: bool
    out: LabelRows
    inn: LabelRows

    @classmethod
    def from_labels(
        cls,
        n: int,
        directed: bool,
        out: Mapping[int, Sequence[tuple[int, float]]],
        inn: Mapping[int, Sequence[tuple[int, float]]] | None = None,
    ) -> "LabelDelta":
        """A delta of ``{vertex: label}`` lists; ``inn`` is ignored
        (it aliases ``out``) when undirected."""
        rows = LabelRows.from_labels(out)
        if not directed:
            return cls(n, directed, rows, rows)
        return cls(n, directed, rows, LabelRows.from_labels(inn or {}))

    @classmethod
    def empty(cls, n: int, directed: bool) -> "LabelDelta":
        return cls.from_labels(n, directed, {}, {})

    def __bool__(self) -> bool:
        return bool(self.out) or bool(self.inn)

    def __len__(self) -> int:
        """Number of per-vertex label slices carried."""
        count = len(self.out)
        if self.directed:
            count += len(self.inn)
        return count

    def vertices(self) -> set[int]:
        """Every vertex whose label this delta replaces."""
        return set(np.union1d(self.out.verts, self.inn.verts).tolist())


@dataclass(frozen=True)
class LabelStats:
    """Size statistics of a frozen index (feeds Tables 6-7, Figure 8)."""

    num_vertices: int
    total_entries: int
    max_label_size: int
    avg_label_size: float
    index_bytes: int
    #: Vertices not labelled at all: answered through their neighbour.
    pendants: int = 0

    @property
    def core_vertices(self) -> int:
        """Vertices that hold a stored label."""
        return self.num_vertices - self.pendants

    def __str__(self) -> str:
        return (
            f"entries={self.total_entries} avg|label|={self.avg_label_size:.1f} "
            f"max={self.max_label_size} bytes={self.index_bytes} "
            f"pendants={self.pendants}"
        )
