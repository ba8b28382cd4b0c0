"""2-hop label stores: mutable construction state and the frozen index.

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

Two families of classes live here:

* :class:`DirectedLabelState` / :class:`UndirectedLabelState` — mutable
  dict-based stores used *during* index construction, with the reverse
  indexes the rule engine needs and the 2-hop bound used for pruning
  (the vectorized struct-of-arrays twin used by the fast build engine
  lives in :mod:`repro.core.arraystate`);
* :class:`LabelIndex` — the immutable, sorted-array index produced at
  the end, optimized for merge-join queries, measurable in bytes using
  the paper's 32-bit-pivot + 8-bit-distance convention, and
  serializable to disk.

:class:`LabelIndex` is also the reference implementation of the
:class:`LabelStore` protocol — the storage-backend interface every
query-side consumer (the :class:`~repro.oracle.DistanceOracle` facade,
the inverted k-NN index, the disk-resident simulator) is written
against.  The contiguous struct-of-arrays backend lives in
:mod:`repro.core.flatstore`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Protocol, Sequence, runtime_checkable

from repro.utils.atomicio import atomic_binary_writer

INF = float("inf")

# A label entry value as stored during construction: (distance, hops).
EntryValue = tuple[float, int]


class DirectedLabelState:
    """Mutable Lin/Lout stores for a directed graph under construction.

    The stores are dictionaries ``pivot -> (dist, hops)``.  Reverse
    indexes (``rev_out[u]``: who has ``u`` in their out-label;
    ``rev_in[v]``: who has ``v`` in their in-label) are maintained
    incrementally because the Hop-Doubling rule engine joins through
    them (they play the role of the second sort order of the paper's
    Algorithm 2 files).
    """

    __slots__ = ("n", "rank", "out", "inn", "rev_out", "rev_in", "_touched")

    def __init__(self, rank: Sequence[int]) -> None:
        self.n = len(rank)
        self.rank = list(rank)
        self.out: list[dict[int, EntryValue]] = [
            {v: (0.0, 0)} for v in range(self.n)
        ]
        self.inn: list[dict[int, EntryValue]] = [
            {v: (0.0, 0)} for v in range(self.n)
        ]
        # rev_out[u][x] mirrors out[x][u]; rev_in[v][y] mirrors inn[y][v].
        self.rev_out: list[dict[int, EntryValue]] = [{} for _ in range(self.n)]
        self.rev_in: list[dict[int, EntryValue]] = [{} for _ in range(self.n)]
        self._touched: tuple[set[int], set[int]] | None = None

    def track_touched(
        self, sets: tuple[set[int], set[int]] | None = None
    ) -> tuple[set[int], set[int]]:
        """Start recording which vertices' labels change.

        Returns ``(out_owners, in_owners)`` — from now on every
        mutation adds the vertex whose ``Lout`` / ``Lin`` it changed.
        The dynamic-update index drains these sets into the
        :class:`LabelDelta` it hands to the serving stores.  ``sets``
        lets a caller re-attach existing sets (e.g. after swapping the
        state underneath an index).
        """
        if sets is not None:
            self._touched = sets
        elif self._touched is None:
            self._touched = (set(), set())
        return self._touched

    # -- entry bookkeeping --------------------------------------------
    def is_out_pair(self, a: int, b: int) -> bool:
        """Whether the pair ``a -> b`` would live in ``Lout(a)``."""
        return self.rank[b] < self.rank[a]

    def get_pair(self, a: int, b: int) -> EntryValue | None:
        """Current entry for the directed pair ``a -> b``, if any."""
        if self.rank[b] < self.rank[a]:
            return self.out[a].get(b)
        return self.inn[b].get(a)

    def set_pair(self, a: int, b: int, dist: float, hops: int) -> None:
        """Insert or overwrite the entry for ``a -> b``."""
        value = (dist, hops)
        if self.rank[b] < self.rank[a]:
            self.out[a][b] = value
            self.rev_out[b][a] = value
            if self._touched is not None:
                self._touched[0].add(a)
        else:
            self.inn[b][a] = value
            self.rev_in[a][b] = value
            if self._touched is not None:
                self._touched[1].add(b)

    def remove_pair(self, a: int, b: int) -> None:
        """Delete the entry for ``a -> b`` (must exist)."""
        if self.rank[b] < self.rank[a]:
            del self.out[a][b]
            del self.rev_out[b][a]
            if self._touched is not None:
                self._touched[0].add(a)
        else:
            del self.inn[b][a]
            del self.rev_in[a][b]
            if self._touched is not None:
                self._touched[1].add(b)

    # -- pruning probe -------------------------------------------------
    def two_hop_bound(self, a: int, b: int, exclude_pivot: int = -1) -> float:
        """Best ``d1 + d2`` over common pivots of ``Lout(a)`` and ``Lin(b)``.

        This is simultaneously the query evaluation (Section 2) and the
        pruning test (Section 3.3).  ``exclude_pivot`` lets the caller
        ignore the candidate entry's own trivial route through itself.
        Iterates over the smaller label and probes the larger one.
        """
        la = self.out[a]
        lb = self.inn[b]
        best = INF
        if len(la) <= len(lb):
            for w, (d1, _) in la.items():
                if w == exclude_pivot:
                    continue
                hit = lb.get(w)
                if hit is not None:
                    d = d1 + hit[0]
                    if d < best:
                        best = d
        else:
            for w, (d2, _) in lb.items():
                if w == exclude_pivot:
                    continue
                hit = la.get(w)
                if hit is not None:
                    d = hit[0] + d2
                    if d < best:
                        best = d
        return best

    # -- statistics -----------------------------------------------------
    def total_entries(self) -> int:
        """Non-trivial entries across both stores."""
        return sum(len(d) - 1 for d in self.out) + sum(
            len(d) - 1 for d in self.inn
        )

    def iter_entries(self) -> Iterator[tuple[int, int, float, int, bool]]:
        """Yield ``(owner, pivot, dist, hops, is_out)`` for non-trivial entries."""
        for v in range(self.n):
            for pivot, (dist, hops) in self.out[v].items():
                if pivot != v:
                    yield v, pivot, dist, hops, True
            for pivot, (dist, hops) in self.inn[v].items():
                if pivot != v:
                    yield v, pivot, dist, hops, False

    @classmethod
    def from_entries(
        cls,
        rank: Sequence[int],
        entries: Iterable[tuple[int, int, float, int, bool]],
    ) -> "DirectedLabelState":
        """Rebuild a state from :meth:`iter_entries`-style tuples.

        The inverse of :meth:`iter_entries` (trivial self entries are
        implicit).  Used to materialize a dict state from the
        array-backed engine, e.g. for the exhaustive pruning sweep.
        """
        state = cls(rank)
        for owner, pivot, dist, hops, is_out in entries:
            a, b = (owner, pivot) if is_out else (pivot, owner)
            state.set_pair(a, b, dist, hops)
        return state


class UndirectedLabelState:
    """Mutable single-store labels for an undirected graph (Section 7).

    An entry ``{owner, pivot}`` with ``rank[pivot] < rank[owner]`` is
    stored as ``lab[owner][pivot]``; ``rev[owner]`` mirrors who owns
    ``owner`` as a pivot.
    """

    __slots__ = ("n", "rank", "lab", "rev", "_touched")

    def __init__(self, rank: Sequence[int]) -> None:
        self.n = len(rank)
        self.rank = list(rank)
        self.lab: list[dict[int, EntryValue]] = [
            {v: (0.0, 0)} for v in range(self.n)
        ]
        self.rev: list[dict[int, EntryValue]] = [{} for _ in range(self.n)]
        self._touched: tuple[set[int], set[int]] | None = None

    def track_touched(
        self, sets: tuple[set[int], set[int]] | None = None
    ) -> tuple[set[int], set[int]]:
        """Start recording which vertices' labels change.

        Same contract as :meth:`DirectedLabelState.track_touched`;
        the single undirected store only ever fills the first set.
        """
        if sets is not None:
            self._touched = sets
        elif self._touched is None:
            self._touched = (set(), set())
        return self._touched

    def owner_pivot(self, a: int, b: int) -> tuple[int, int]:
        """Normalize an unordered pair to ``(owner, pivot)`` by rank."""
        if self.rank[a] < self.rank[b]:
            return b, a
        return a, b

    def get_pair(self, a: int, b: int) -> EntryValue | None:
        """Current entry for the unordered pair ``{a, b}``, if any."""
        owner, pivot = self.owner_pivot(a, b)
        return self.lab[owner].get(pivot)

    def set_pair(self, a: int, b: int, dist: float, hops: int) -> None:
        """Insert or overwrite the entry for ``{a, b}``."""
        owner, pivot = self.owner_pivot(a, b)
        value = (dist, hops)
        self.lab[owner][pivot] = value
        self.rev[pivot][owner] = value
        if self._touched is not None:
            self._touched[0].add(owner)

    def remove_pair(self, a: int, b: int) -> None:
        """Delete the entry for ``{a, b}`` (must exist)."""
        owner, pivot = self.owner_pivot(a, b)
        del self.lab[owner][pivot]
        del self.rev[pivot][owner]
        if self._touched is not None:
            self._touched[0].add(owner)

    def two_hop_bound(self, a: int, b: int, exclude_pivot: int = -1) -> float:
        """Best ``d1 + d2`` over common pivots of ``L(a)`` and ``L(b)``."""
        la = self.lab[a]
        lb = self.lab[b]
        best = INF
        if len(la) > len(lb):
            la, lb = lb, la
        for w, (d1, _) in la.items():
            if w == exclude_pivot:
                continue
            hit = lb.get(w)
            if hit is not None:
                d = d1 + hit[0]
                if d < best:
                    best = d
        return best

    def total_entries(self) -> int:
        """Non-trivial entries across the store."""
        return sum(len(d) - 1 for d in self.lab)

    def iter_entries(self) -> Iterator[tuple[int, int, float, int, bool]]:
        """Yield ``(owner, pivot, dist, hops, True)`` for non-trivial entries."""
        for v in range(self.n):
            for pivot, (dist, hops) in self.lab[v].items():
                if pivot != v:
                    yield v, pivot, dist, hops, True

    @classmethod
    def from_entries(
        cls,
        rank: Sequence[int],
        entries: Iterable[tuple[int, int, float, int, bool]],
    ) -> "UndirectedLabelState":
        """Rebuild a state from :meth:`iter_entries`-style tuples."""
        state = cls(rank)
        for owner, pivot, dist, hops, _is_out in entries:
            state.set_pair(owner, pivot, dist, hops)
        return state


# ---------------------------------------------------------------------------
# Frozen index
# ---------------------------------------------------------------------------

# Bytes per label entry under the paper's storage convention (Section 8):
# a 32-bit pivot id plus an 8-bit distance.
BYTES_PER_ENTRY = 5

_MAGIC = b"RPLI"
_VERSION = 1


@runtime_checkable
class LabelStore(Protocol):
    """Read-side contract of a frozen 2-hop label store.

    A store presents each vertex's out-/in-label as a sequence of
    ``(pivot, dist)`` pairs **sorted by pivot id** and answers distance
    queries over them.  Consumers (the oracle facade, the inverted
    k-NN index, the disk simulator, the verifier) accept any
    implementation; :class:`LabelIndex` (lists of tuples) and
    :class:`repro.core.flatstore.FlatLabelStore` (contiguous CSR
    arrays) are the two shipped backends.

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

    def query_via(self, s: int, t: int) -> tuple[float, int]:
        """``(dist, best_pivot)``; pivot is -1 when unreachable."""
        ...

    def total_entries(self, include_trivial: bool = False) -> int:
        """Total label entries."""
        ...

    def size_in_bytes(self) -> int:
        """Index size under the paper's 5-bytes-per-entry convention."""
        ...

    def save(self, path) -> None:
        """Persist the store to disk (atomically)."""
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


class LabelIndex:
    """Immutable 2-hop label index with merge-join querying.

    For directed graphs each vertex has an out-label and an in-label;
    for undirected graphs the two alias the same array.  Labels are
    sorted by pivot id so a distance query is a linear merge of two
    sorted arrays (the disk-friendly evaluation of Section 2: "looking
    up Lout(s) and Lin(t)").

    Self entries ``(v, 0)`` are stored explicitly, as in the paper.

    The labels are held either as per-vertex ``(pivot, dist)`` tuple
    lists (the dict build engine, v1 files) or as the CSR arrays of a
    private :class:`~repro.core.flatstore.FlatLabelStore`
    (:meth:`over_store`: what the array build engine freezes into).
    An array-held index answers every method from the arrays and packs
    into the v2/v3 stores without touching an entry;
    :attr:`out_labels` / :attr:`in_labels` are then a derived view,
    materialised on first access.

    An index built with pendant vertices peeled
    (:meth:`with_pendants`) carries ``parent`` / ``hang``.  The tuple
    lists always hold a pendant's *derived* label — its parent's,
    shifted by the pendant edge, plus ``(v, 0.0)`` — so reading and
    querying them needs no care; the arrays (and the v2/v3 files)
    hold an empty row instead, and the size figures count what the
    arrays store.
    """

    __slots__ = (
        "n", "directed", "rank", "parent", "hang",
        "_out_labels", "_in_labels", "_store",
    )

    def __init__(
        self,
        num_vertices: int,
        directed: bool,
        out_labels: list[list[tuple[int, float]]],
        in_labels: list[list[tuple[int, float]]],
        rank: list[int] | None = None,
    ) -> None:
        self.n = num_vertices
        self.directed = directed
        self._out_labels = out_labels
        self._in_labels = in_labels
        self.rank = rank
        self.parent = self.hang = None
        self._store = None

    @classmethod
    def over_store(cls, store) -> "LabelIndex":
        """An index held as ``store``'s CSR arrays (v2 layout).

        The store becomes private to the index: it is never handed out
        or updated, which is what lets ``from_index`` share its arrays.
        """
        index = cls(store.n, store.directed, None, None, store.rank)
        index.parent, index.hang = store.parent, store.hang
        index._store = store
        return index

    def with_pendants(self, parent, hang) -> "LabelIndex":
        """This index of a core graph, extended to the pendants peeled
        off it (:func:`repro.graphs.transform.peel_pendants`).

        ``self`` labels the graph with every pendant isolated, so a
        pendant's row is its bare self entry: the arrays drop it, the
        tuple lists replace it by the derived label.
        """
        if self._store is not None:
            from repro.core.flatstore import drop_pendant_rows

            return LabelIndex.over_store(
                drop_pendant_rows(self._store, parent, hang)
            )
        labels = list(self._out_labels)
        for v, h in enumerate(hang):
            if h:
                label = [(p, h + d) for p, d in labels[parent[v]]]
                label.append((v, 0.0))
                label.sort()
                labels[v] = label
        index = LabelIndex(self.n, False, labels, labels, self.rank)
        index.parent, index.hang = parent, hang
        return index

    @property
    def out_labels(self) -> list[list[tuple[int, float]]]:
        """Per-vertex out-labels as tuple lists (do not mutate)."""
        if self._out_labels is None:
            self._materialise()
        return self._out_labels

    @property
    def in_labels(self) -> list[list[tuple[int, float]]]:
        """Per-vertex in-labels; aliases :attr:`out_labels` if undirected."""
        if self._in_labels is None:
            self._materialise()
        return self._in_labels

    def _materialise(self) -> None:
        lists = self._store.to_index()
        self._out_labels, self._in_labels = lists.out_labels, lists.in_labels

    # -- construction ---------------------------------------------------
    @classmethod
    def from_state(
        cls, state: DirectedLabelState | UndirectedLabelState
    ) -> "LabelIndex":
        """Freeze a construction-time store into a queryable index."""
        if isinstance(state, DirectedLabelState):
            out_labels = [
                sorted((p, d) for p, (d, _) in state.out[v].items())
                for v in range(state.n)
            ]
            in_labels = [
                sorted((p, d) for p, (d, _) in state.inn[v].items())
                for v in range(state.n)
            ]
            return cls(state.n, True, out_labels, in_labels, list(state.rank))
        labels = [
            sorted((p, d) for p, (d, _) in state.lab[v].items())
            for v in range(state.n)
        ]
        return cls(state.n, False, labels, labels, list(state.rank))

    # -- querying ---------------------------------------------------------
    def query(self, s: int, t: int) -> float:
        """Exact ``dist(s, t)``; :data:`INF` when unreachable."""
        if self._store is not None:
            return self._store.query(s, t)
        if not 0 <= s < self.n or not 0 <= t < self.n:
            raise IndexError(f"query ({s}, {t}) out of range [0, {self.n})")
        if s == t:
            return 0.0
        return merge_join_distance(self.out_labels[s], self.in_labels[t])

    def query_via(self, s: int, t: int) -> tuple[float, int]:
        """Like :meth:`query` but also return the best pivot (-1 if none).

        Useful for path reconstruction: the pivot is the highest-ranked
        vertex on a shortest ``s -> t`` path.
        """
        if self._store is not None:
            return self._store.query_via(s, t)
        if not 0 <= s < self.n or not 0 <= t < self.n:
            raise IndexError(f"query ({s}, {t}) out of range [0, {self.n})")
        if s == t:
            return 0.0, s
        best = INF
        best_pivot = -1
        a = self.out_labels[s]
        b = self.in_labels[t]
        i = j = 0
        while i < len(a) and j < len(b):
            pa, da = a[i]
            pb, db = b[j]
            if pa == pb:
                d = da + db
                if d < best:
                    best = d
                    best_pivot = pa
                i += 1
                j += 1
            elif pa < pb:
                i += 1
            else:
                j += 1
        return best, best_pivot

    def label_of(self, v: int, out: bool = True) -> list[tuple[int, float]]:
        """The (pivot, dist) list of ``v``'s out- or in-label."""
        return list(self.out_label(v) if out else self.in_label(v))

    # -- LabelStore accessors ------------------------------------------------
    def out_label(self, v: int) -> list[tuple[int, float]]:
        """``Lout(v)`` (do not mutate)."""
        if self._store is not None:
            return self._store.out_label(v)
        return self._out_labels[v]

    def in_label(self, v: int) -> list[tuple[int, float]]:
        """``Lin(v)`` (do not mutate)."""
        if self._store is not None:
            return self._store.in_label(v)
        return self._in_labels[v]

    # -- statistics ---------------------------------------------------------
    def total_entries(self, include_trivial: bool = False) -> int:
        """Total label entries (self entries excluded unless asked)."""
        if self._store is not None:
            return self._store.total_entries(include_trivial)
        total = sum(self._stored_sizes())
        if include_trivial:
            return total
        return total - self.n * (2 if self.directed else 1) + self._pendants()

    def _stored_sizes(self) -> list[int]:
        """Per-vertex entry counts of a tuple-list index, self entries
        included, as the arrays would store them: nothing for a pendant."""
        hang = self.hang
        sizes = []
        for v in range(self.n):
            if hang is not None and hang[v]:
                sizes.append(0)
                continue
            size = len(self.out_labels[v])
            if self.directed:
                size += len(self.in_labels[v])
            sizes.append(size)
        return sizes

    def _pendants(self) -> int:
        return sum(map(bool, self.hang)) if self.hang is not None else 0

    def stats(self) -> LabelStats:
        """Aggregate size statistics (paper's |label| counts non-trivial)."""
        if self._store is not None:
            return self._store.stats()
        trivial = 2 if self.directed else 1
        per_vertex = [max(size - trivial, 0) for size in self._stored_sizes()]
        total = sum(per_vertex)
        return LabelStats(
            num_vertices=self.n,
            total_entries=total,
            max_label_size=max(per_vertex, default=0),
            avg_label_size=total / self.n if self.n else 0.0,
            index_bytes=self.size_in_bytes(),
            pendants=self._pendants(),
        )

    def size_in_bytes(self) -> int:
        """Index size under the paper's 5-bytes-per-entry convention."""
        return self.total_entries(include_trivial=True) * BYTES_PER_ENTRY

    def entries_per_pivot(self) -> dict[int, int]:
        """Non-trivial entry counts keyed by pivot vertex (for Figure 8)."""
        counts: dict[int, int] = {}
        for v in range(self.n):
            for p, _ in self.out_labels[v]:
                if p != v:
                    counts[p] = counts.get(p, 0) + 1
            if self.directed:
                for p, _ in self.in_labels[v]:
                    if p != v:
                        counts[p] = counts.get(p, 0) + 1
        return counts

    def coverage_curve(
        self, fractions: Sequence[float]
    ) -> list[tuple[float, float]]:
        """Label coverage by top-ranked vertices (paper's Figure 8).

        For each requested fraction ``f`` of top-ranked vertices, report
        the fraction of non-trivial label entries whose pivot lies in
        that top set.  Requires the index to carry its ranking.
        """
        if self.rank is None:
            raise ValueError("index has no ranking attached")
        counts = self.entries_per_pivot()
        total = sum(counts.values())
        order = sorted(range(self.n), key=lambda v: self.rank[v])
        curve = []
        for f in fractions:
            k = max(1, int(round(f * self.n)))
            covered = sum(counts.get(v, 0) for v in order[:k])
            curve.append((f, covered / total if total else 1.0))
        return curve

    def top_fraction_for_coverage(self, target: float) -> float:
        """Smallest fraction of top vertices covering ``target`` of entries.

        This regenerates the "top vertices coverage 70%/80%/90%" columns
        of Table 7.
        """
        if self.rank is None:
            raise ValueError("index has no ranking attached")
        counts = self.entries_per_pivot()
        total = sum(counts.values())
        if total == 0:
            return 0.0
        order = sorted(range(self.n), key=lambda v: self.rank[v])
        covered = 0
        for k, v in enumerate(order, start=1):
            covered += counts.get(v, 0)
            if covered >= target * total:
                return k / self.n
        return 1.0

    # -- serialization -------------------------------------------------------
    def save(self, path) -> None:
        """Write the index to ``path`` in binary format v1.

        The write is atomic (temp file + rename): a crash mid-save
        never leaves a truncated index behind.  For the flat-array
        format v2 see :meth:`repro.core.flatstore.FlatLabelStore.save`.
        """
        with atomic_binary_writer(path) as fh:
            fh.write(_MAGIC)
            flags = 1 if self.directed else 0
            has_rank = 1 if self.rank is not None else 0
            fh.write(struct.pack("<BBBI", _VERSION, flags, has_rank, self.n))
            if self.rank is not None:
                fh.write(struct.pack(f"<{self.n}I", *self.rank))

            def write_side(labels: list[list[tuple[int, float]]]) -> None:
                for lab in labels:
                    fh.write(struct.pack("<I", len(lab)))
                    for p, d in lab:
                        fh.write(struct.pack("<Id", p, d))

            write_side(self.out_labels)
            if self.directed:
                write_side(self.in_labels)

    @classmethod
    def load(cls, path) -> "LabelIndex":
        """Read an index from ``path``, whatever its format version.

        Version 1 files (this class's :meth:`save`) are read directly;
        version 2 flat-array files are read through
        :mod:`repro.core.flatstore` and version 3 quantized files
        through :mod:`repro.core.quantized`, both expanded to lists.
        Raises
        ``ValueError`` on anything that is not a complete index file
        (wrong magic, unsupported version, truncation).
        """
        try:
            with open(path, "rb") as fh:
                if fh.read(4) != _MAGIC:
                    raise ValueError(f"{path}: not a label index file")
                version, flags, has_rank, n = struct.unpack(
                    "<BBBI", fh.read(7)
                )
                if version == 2:
                    from repro.core.flatstore import FlatLabelStore

                    return FlatLabelStore.load(path).to_index()
                if version == 3:
                    from repro.core.quantized import QuantizedLabelStore

                    return QuantizedLabelStore.load(path).to_index()
                if version != _VERSION:
                    raise ValueError(f"{path}: unsupported version {version}")
                directed = bool(flags & 1)
                rank = None
                if has_rank:
                    rank = list(struct.unpack(f"<{n}I", fh.read(4 * n)))

                entry = struct.Struct("<Id")

                def read_side() -> list[list[tuple[int, float]]]:
                    side = []
                    for _ in range(n):
                        (count,) = struct.unpack("<I", fh.read(4))
                        lab = [
                            entry.unpack(fh.read(entry.size))
                            for _ in range(count)
                        ]
                        side.append([(int(p), float(d)) for p, d in lab])
                    return side

                out_labels = read_side()
                in_labels = read_side() if directed else out_labels
        except struct.error as exc:
            raise ValueError(f"{path}: truncated or corrupt index file") from exc
        return cls(n, directed, out_labels, in_labels, rank)

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"LabelIndex(|V|={self.n}, {kind}, "
            f"entries={self.total_entries()})"
        )


def merge_join_distance(
    a: list[tuple[int, float]], b: list[tuple[int, float]]
) -> float:
    """Minimum ``da + db`` over common pivots of two sorted labels."""
    best = INF
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        pa, da = a[i]
        pb, db = b[j]
        if pa == pb:
            d = da + db
            if d < best:
                best = d
            i += 1
            j += 1
        elif pa < pb:
            i += 1
        else:
            j += 1
    return best
