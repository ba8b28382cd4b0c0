"""The dict label model: per-entry build states and tuple-list indexes.

``repro`` builds, stores and serves one label representation, the CSR
:class:`~repro.core.flatstore.FlatLabelStore` (built through the
struct-of-arrays :class:`~repro.core.arraystate.ArrayLabelState`).  The
kit keeps the per-entry model the paper's algorithms are easiest to
read in, for the code that is written in it:

* :class:`DirectedLabelState` / :class:`UndirectedLabelState` — mutable
  dict stores with the reverse indexes the rule joins need and the
  2-hop bound used for pruning; the external-memory builder of
  :mod:`paper.io_sim` runs on them, and so do the test-only dict
  reference engines (``tests/reference/``);
* :class:`CandidateSet` and :func:`admit_and_prune` — one round's
  candidate reduction, admission and snapshot pruning over those
  states;
* :class:`LabelIndex` — per-vertex ``(pivot, dist)`` tuple lists, the
  index the baselines (PLL, IS-Label, bit-parallel labels) and the
  external builder return;
* :func:`to_store` — packs a :class:`LabelIndex` into the CSR store,
  for the benches that time queries the way ``repro`` serves them.

Terminology (Sections 2-3 of the paper, adapted to zero-based ranks):
every vertex has a unique **rank**, rank 0 the *highest* priority (the
paper's ``r(u) > r(v)`` is ``rank[u] < rank[v]`` here); a directed
**label entry** ``(a -> b, d)`` is stored in ``Lout(a)`` when
``rank[b] < rank[a]`` and in ``Lin(b)`` otherwise; the trivial self
entries ``(v, 0)`` live in both stores; an undirected graph has one
store ``L(v)`` of higher-ranked pivots (Section 7).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.flatstore import FlatLabelStore, packed
from repro.core.labels import BYTES_PER_ENTRY, INF, LabelStats
from repro.core.pruning import PruneOutcome
from repro.core.rules import PrevEntry

# A label entry value as stored during construction: (distance, hops).
EntryValue = tuple[float, int]


class DirectedLabelState:
    """Mutable Lin/Lout stores for a directed graph under construction.

    The stores are dictionaries ``pivot -> (dist, hops)``.  Reverse
    indexes (``rev_out[u]``: who has ``u`` in their out-label;
    ``rev_in[v]``: who has ``v`` in their in-label) are maintained
    incrementally because the rule joins go through them (they play
    the role of the second sort order of the paper's Algorithm 2
    files).
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
        mutation adds the vertex whose ``Lout`` / ``Lin`` it changed
        (the contract of
        :meth:`repro.core.arraystate.ArrayLabelState.track_touched`).
        ``sets`` re-attaches existing sets.
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


# ---------------------------------------------------------------------------
# One round's admission and pruning
# ---------------------------------------------------------------------------


class CandidateSet:
    """Accumulates generated candidates, keeping the best per pair.

    ``raw_generated`` counts every rule application (before
    deduplication) — the quantity behind the *growing factor* of
    Figure 10; ``pairs`` maps ``(a, b)`` to the best ``(dist, hops)``
    seen (smaller distance wins; ties prefer fewer hops).  The array
    twin is :class:`repro.core.rules.CandidateBatch`.
    """

    __slots__ = ("pairs", "raw_generated")

    def __init__(self) -> None:
        self.pairs: dict[tuple[int, int], EntryValue] = {}
        self.raw_generated = 0

    def offer(self, a: int, b: int, dist: float, hops: int) -> None:
        """Record a generated candidate for the pair ``a -> b``."""
        self.raw_generated += 1
        key = (a, b)
        current = self.pairs.get(key)
        if (
            current is None
            or dist < current[0]
            or (dist == current[0] and hops < current[1])
        ):
            self.pairs[key] = (dist, hops)

    def __len__(self) -> int:
        return len(self.pairs)

    def items(self) -> Iterable[tuple[tuple[int, int], EntryValue]]:
        return self.pairs.items()


def admit_and_prune(
    state: DirectedLabelState | UndirectedLabelState,
    candidates: CandidateSet,
    prune: bool = True,
) -> tuple[list[PrevEntry], PruneOutcome]:
    """Stage ``candidates`` into ``state``, prune, return the survivors.

    Returns the surviving entries (the ``prevLabel`` of the next
    iteration) and the iteration counters.  With ``prune=False`` only
    admission (duplicate suppression) is applied.  The array twin is
    :func:`repro.core.pruning.admit_and_prune_arrays`, with the same
    semantics (Sections 3.1 and 3.3):

    * a candidate is admitted when its pair has no entry yet or it
      strictly improves the distance, and is inserted at once, so
      candidates of one round can prune each other (Lemma 6);
    * pruning is two-pass: every bound is evaluated with *all* staged
      candidates present, then the removals land together, which makes
      the outcome independent of evaluation order (what the
      external-memory build relies on for bit-identical results).
    """
    staged: list[PrevEntry] = []
    for (a, b), (dist, hops) in candidates.items():
        existing = state.get_pair(a, b)
        if existing is not None and existing[0] <= dist:
            continue
        state.set_pair(a, b, dist, hops)
        staged.append((a, b, dist, hops))

    admitted = len(staged)
    if not prune:
        return staged, PruneOutcome(
            raw_generated=candidates.raw_generated,
            distinct_generated=len(candidates),
            admitted=admitted,
            pruned=0,
        )

    directed = isinstance(state, DirectedLabelState)
    survivors: list[PrevEntry] = []
    doomed: list[tuple[int, int]] = []
    for a, b, dist, hops in staged:
        if directed:
            exclude = b if state.is_out_pair(a, b) else a
        else:
            # Undirected entries are (owner, pivot); the trivial
            # self-route goes through the pivot.
            exclude = state.owner_pivot(a, b)[1]
        bound = state.two_hop_bound(a, b, exclude_pivot=exclude)
        if bound <= dist:
            doomed.append((a, b))
        else:
            survivors.append((a, b, dist, hops))
    for a, b in doomed:
        state.remove_pair(a, b)

    return survivors, PruneOutcome(
        raw_generated=candidates.raw_generated,
        distinct_generated=len(candidates),
        admitted=admitted,
        pruned=len(doomed),
    )


# ---------------------------------------------------------------------------
# Frozen tuple-list index
# ---------------------------------------------------------------------------


class LabelIndex:
    """Immutable 2-hop label index over per-vertex tuple lists.

    For directed graphs each vertex has an out-label and an in-label;
    for undirected graphs the two alias the same list.  Labels are
    sorted by pivot id, self entries ``(v, 0)`` included as in the
    paper, so a distance query is a linear merge of two sorted lists
    (Section 2: "looking up Lout(s) and Lin(t)").  It implements the
    :class:`~repro.core.labels.LabelStore` protocol and measures its
    size with the paper's 32-bit-pivot + 8-bit-distance convention.
    """

    __slots__ = ("n", "directed", "rank", "out_labels", "in_labels")

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
        #: Per-vertex out-labels as tuple lists (do not mutate).
        self.out_labels = out_labels
        #: Per-vertex in-labels; aliases :attr:`out_labels` if undirected.
        self.in_labels = in_labels
        self.rank = rank

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

    def query(self, s: int, t: int) -> float:
        """Exact ``dist(s, t)``; :data:`INF` when unreachable."""
        if not 0 <= s < self.n or not 0 <= t < self.n:
            raise IndexError(f"query ({s}, {t}) out of range [0, {self.n})")
        if s == t:
            return 0.0
        return merge_join_distance(self.out_labels[s], self.in_labels[t])

    def out_label(self, v: int) -> list[tuple[int, float]]:
        """``Lout(v)`` (do not mutate)."""
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range [0, {self.n})")
        return self.out_labels[v]

    def in_label(self, v: int) -> list[tuple[int, float]]:
        """``Lin(v)`` (do not mutate)."""
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range [0, {self.n})")
        return self.in_labels[v]

    def _sizes(self) -> list[int]:
        """Per-vertex entry counts, self entries included."""
        if not self.directed:
            return [len(lab) for lab in self.out_labels]
        return [len(o) + len(i) for o, i in zip(self.out_labels, self.in_labels)]

    def total_entries(self, include_trivial: bool = False) -> int:
        """Total label entries (self entries excluded unless asked)."""
        total = sum(self._sizes())
        if include_trivial:
            return total
        return total - self.n * (2 if self.directed else 1)

    def stats(self) -> LabelStats:
        """Aggregate size statistics (paper's |label| counts non-trivial)."""
        trivial = 2 if self.directed else 1
        per_vertex = [max(size - trivial, 0) for size in self._sizes()]
        total = sum(per_vertex)
        return LabelStats(
            num_vertices=self.n,
            total_entries=total,
            max_label_size=max(per_vertex, default=0),
            avg_label_size=total / self.n if self.n else 0.0,
            index_bytes=self.size_in_bytes(),
        )

    def size_in_bytes(self) -> int:
        """Index size under the paper's 5-bytes-per-entry convention."""
        return self.total_entries(include_trivial=True) * BYTES_PER_ENTRY

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


def to_store(index: LabelIndex) -> FlatLabelStore:
    """``index``'s labels packed into a v2-encoded CSR store."""

    def side(labels):
        sizes = np.fromiter(map(len, labels), np.int64, len(labels))
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        entries = [entry for lab in labels for entry in lab]
        pivots = np.fromiter((p for p, _ in entries), np.int64, len(entries))
        dists = np.fromiter((d for _, d in entries), np.float64, len(entries))
        return offsets, pivots, dists

    sides = [side(index.out_labels)]
    if index.directed:
        sides.append(side(index.in_labels))
    return packed(index.n, index.directed, "v2", sides, rank=index.rank)
