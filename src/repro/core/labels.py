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
incremental update hands to the serving stores, and the
:class:`LabelStats` size figures.  Labels are built in the
struct-of-arrays state of :mod:`repro.core.arraystate` and frozen into
the CSR store of :mod:`repro.core.flatstore`, the one representation
``repro`` writes and serves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

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


@dataclass
class LabelDelta:
    """Per-vertex label replacements produced by an incremental update.

    The unit of change flowing from a mutated label set to the serving
    stores: ``out[v]`` (and ``inn[v]`` on directed indexes) is the
    *complete* replacement label of vertex ``v`` — ``(pivot, dist)``
    pairs sorted by pivot id with the trivial ``(v, 0.0)`` self entry
    included, exactly the shape :meth:`LabelStore.out_label` serves.
    For undirected deltas ``inn`` **aliases** ``out`` (the Section 7
    single-store aliasing), mirroring the stores themselves.

    Produced by
    :meth:`repro.core.dynamic.DynamicHopDoublingIndex.pop_label_delta`
    and consumed by ``apply_updates`` on the flat, quantized, and
    sharded stores (which stage the slices as a query-time overlay)
    and on the oracle facades (which also invalidate derived caches).
    """

    n: int
    directed: bool
    out: dict[int, list[tuple[int, float]]]
    inn: dict[int, list[tuple[int, float]]]

    @classmethod
    def empty(cls, n: int, directed: bool) -> "LabelDelta":
        out: dict[int, list[tuple[int, float]]] = {}
        return cls(n, directed, out, {} if directed else out)

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
        return set(self.out) | set(self.inn)


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
