"""Array-backed construction state of the build engine.

A per-entry label state (dicts of ``pivot -> (dist, hops)``) pays a
Python-level dict probe per rule application and per pruning test;
profiling a 10k-vertex Barabasi-Albert build showed ~90% of the wall
clock inside those per-entry loops.  This module keeps the label state
as struct-of-arrays instead:

* every store side (``Lout`` / ``Lin``, or the single undirected
  ``L``) is a :class:`SideArrays` — contiguous ``owner`` / ``pivot`` /
  ``dist`` / ``hops`` arrays sorted by ``(owner, pivot)`` with CSR
  offsets per owner, so a vertex's label is a slice and an entry
  lookup is one ``searchsorted`` on the combined ``owner * n + pivot``
  key;
* **trivial self entries are not stored**.  They only ever matter to
  the pruning test through an entry's own pivot — exactly the route
  a pruning test must exclude — so leaving them out makes the
  vectorized bound the excluded bound by construction (they are
  re-added when freezing);
* **the state is columnar from the graph to the file**.  The adjacency
  is read once into arc columns (:func:`arc_columns`) that seed the
  state and, later, the stepping partners; a round's staged overlay is
  built straight from the deduplicated candidate columns; and
  :meth:`ArrayLabelState.freeze` merges the self entries into each
  sorted side with one ``searchsorted`` + ``insert`` per array, giving
  the v2-layout CSR arrays of the
  :class:`~repro.core.flatstore.FlatLabelStore` a build returns, which
  the v2/v3 writers take as they are.  No per-entry Python object
  exists anywhere on that path;
* **the pruning test gathers only possible witnesses**.  Both legs of
  a witness route are strictly shorter than the candidate, so a side
  whose shortest entry is not is *inert* and is neither expanded nor
  probed (:meth:`ArrayLabelState.prunable` has the argument) — in a
  Hop-Stepping round on an unweighted graph that is the whole staged
  overlay;
* each iteration publishes a read-only :class:`LabelSnapshot` /
  :class:`EdgeSnapshot` — per-vertex partner arrays re-sorted by
  pivot *rank* so the minimized rules' "ranked between" filters become
  one ``searchsorted`` plus a slice.  The snapshots are plain
  picklable dataclasses: the multiprocess build engine ships them to
  workers once per iteration.

All reductions (candidate dedupe, admission, pruning) use the same
min-``(dist, hops)`` logic as the per-entry reference engine in
``tests/reference/dict_build.py``, so the two — and any worker
partition of the candidate generation — produce **bit-identical**
label sets and iteration counters (``tests/core/test_parallel_build.py``
enforces this).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from repro.core.flatstore import FlatLabelStore, frozen_views
from repro.graphs.digraph import Graph

#: Pruning expands each staged pair's source label; blocks of this many
#: pairs bound the temporary row count (and peak memory) per batch.
PRUNE_BLOCK_PAIRS = 65_536

#: Elements in the pruning test's dense probe table (~6 MB of f64+i32,
#: the same cache-residency reasoning as the query kernel's scatter
#: join).  Rows per vertex block is this divided by ``n``.
PRUNE_TABLE_ELEMS = 1 << 19

#: Below this many expanded-and-filtered rows the dense probe table is
#: not worth scattering; the global ``searchsorted`` probe runs instead.
PRUNE_DENSE_MIN_ROWS = 8_192


def expand_segments(
    starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ragged gather: flatten the index ranges ``[starts[i], ends[i])``.

    Returns ``(reps, pos)`` where ``pos`` walks every range in order
    and ``reps[j]`` names the range ``pos[j]`` came from.  ``reps`` is
    nondecreasing, which the pruning min-reduction relies on.  Both
    arrays are int32 when the ranges allow it — expansion output feeds
    straight into gathers, where the narrower indexes halve the memory
    traffic.
    """
    counts = ends - starts
    total = int(counts.sum())
    rdt = np.int32 if counts.size <= 0x7FFFFFFF else np.int64
    reps = np.repeat(np.arange(counts.size, dtype=rdt), counts)
    if total == 0:
        return reps, np.zeros(0, dtype=rdt)
    idt = (
        np.int32
        if total <= 0x7FFFFFFF and int(ends.max()) <= 0x7FFFFFFF
        else np.int64
    )
    seg0 = np.cumsum(counts) - counts
    # Per-range base offsets ride along via one repeat (sequential
    # write) instead of two gathers through ``reps``.
    pos = np.arange(total, dtype=idt) + np.repeat(
        (starts - seg0).astype(idt, copy=False), counts
    )
    return reps, pos


def arc_columns(graph: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every stored arc as ``(source, target, weight)`` columns.

    One bulk read of the adjacency lists, in vertex then list order
    (both directions of an undirected edge, like the lists).  The
    iteration-1 seed and the stepping partners are both derived from
    these columns, so the graph is walked in Python once per build.
    """
    n = graph.num_vertices
    degree = np.fromiter(map(graph.out_degree, range(n)), np.int64, n)
    arcs = int(degree.sum())
    src = np.repeat(np.arange(n, dtype=np.int64), degree)
    tgt = np.fromiter(
        chain.from_iterable(map(graph.out_neighbors, range(n))), np.int64, arcs
    )
    if graph.weighted:
        wt = np.fromiter(
            chain.from_iterable(map(graph.out_weights, range(n))),
            np.float64,
            arcs,
        )
    else:
        wt = np.ones(arcs)
    return src, tgt, wt


@dataclass
class PrevBlock:
    """One iteration's surviving entries as parallel arrays.

    The array twin of the rule engines' ``list[PrevEntry]``: ``(a, b)``
    is the directed pair (or normalized ``(owner, pivot)`` for
    undirected states).
    """

    a: np.ndarray
    b: np.ndarray
    dist: np.ndarray
    hops: np.ndarray

    def __len__(self) -> int:
        return int(self.a.size)

    @classmethod
    def from_lists(cls, entries: Sequence[tuple[int, int, float, int]]):
        """Build from ``(a, b, dist, hops)`` tuples (init / tests)."""
        if not entries:
            return cls(
                np.zeros(0, np.int64),
                np.zeros(0, np.int64),
                np.zeros(0, np.float64),
                np.zeros(0, np.int64),
            )
        a, b, d, h = zip(*entries)
        return cls(
            np.asarray(a, np.int64),
            np.asarray(b, np.int64),
            np.asarray(d, np.float64),
            np.asarray(h, np.int64),
        )


class SideArrays:
    """One store side as sorted parallel arrays with CSR offsets.

    Entries are kept sorted by the combined key ``owner * n + pivot``;
    ``off[v] : off[v + 1]`` is vertex ``v``'s slice.  Mutations
    (``update_values`` / ``insert`` / ``delete``) preserve the order,
    so lookups stay a single ``searchsorted``.
    """

    __slots__ = ("n", "owner", "piv", "dist", "hops", "key", "off")

    def __init__(
        self,
        n: int,
        owner: np.ndarray,
        piv: np.ndarray,
        dist: np.ndarray,
        hops: np.ndarray,
    ) -> None:
        self.n = n
        key = owner * n + piv
        order = np.argsort(key)
        self.owner = owner[order]
        self.piv = piv[order]
        self.dist = dist[order]
        self.hops = hops[order]
        self.key = key[order]
        self._refresh_offsets()

    @classmethod
    def empty(cls, n: int) -> "SideArrays":
        """A side with no entries over an ``n``-vertex id space."""
        return cls(
            n,
            np.zeros(0, np.int64),
            np.zeros(0, np.int64),
            np.zeros(0, np.float64),
            np.zeros(0, np.int64),
        )

    def _refresh_offsets(self) -> None:
        self.off = np.searchsorted(self.owner, np.arange(self.n + 1))

    def __len__(self) -> int:
        return int(self.key.size)

    # -- queries -------------------------------------------------------
    def lookup(self, owner: np.ndarray, piv: np.ndarray):
        """Positions and hit mask for the pairs ``owner -> piv``."""
        qkey = owner * self.n + piv
        pos = np.searchsorted(self.key, qkey)
        found = np.zeros(qkey.size, dtype=bool)
        if self.key.size:
            inb = pos < self.key.size
            found[inb] = self.key[pos[inb]] == qkey[inb]
        return pos, found

    # -- mutations -----------------------------------------------------
    def update_values(
        self, pos: np.ndarray, dist: np.ndarray, hops: np.ndarray
    ) -> None:
        """Overwrite the values at ``pos`` (keys unchanged)."""
        self.dist[pos] = dist
        self.hops[pos] = hops

    def insert(
        self,
        owner: np.ndarray,
        piv: np.ndarray,
        dist: np.ndarray,
        hops: np.ndarray,
    ) -> None:
        """Merge new (absent) entries, keeping the key order."""
        if owner.size == 0:
            return
        key = owner * self.n + piv
        order = np.argsort(key)
        owner, piv, dist, hops, key = (
            owner[order],
            piv[order],
            dist[order],
            hops[order],
            key[order],
        )
        pos = np.searchsorted(self.key, key)
        self.owner = np.insert(self.owner, pos, owner)
        self.piv = np.insert(self.piv, pos, piv)
        self.dist = np.insert(self.dist, pos, dist)
        self.hops = np.insert(self.hops, pos, hops)
        self.key = np.insert(self.key, pos, key)
        self._refresh_offsets()

    def delete(self, owner: np.ndarray, piv: np.ndarray) -> None:
        """Remove the (present) entries ``owner -> piv``."""
        if owner.size == 0:
            return
        pos, found = self.lookup(owner, piv)
        keep = np.ones(self.key.size, dtype=bool)
        keep[pos[found]] = False
        self.owner = self.owner[keep]
        self.piv = self.piv[keep]
        self.dist = self.dist[keep]
        self.hops = self.hops[keep]
        self.key = self.key[keep]
        self._refresh_offsets()


# ---------------------------------------------------------------------------
# Read-only generation snapshots (picklable, shipped to worker processes)
# ---------------------------------------------------------------------------


@dataclass
class EdgeSnapshot:
    """Static edge partners for Hop-Stepping joins.

    Adjacency in CSR form with neighbours sorted by *rank* inside each
    segment; ``in_key`` / ``out_key`` are ``vertex * n + rank[nbr]``
    so a minimized rule's "rank below the prev pivot" filter is one
    global ``searchsorted``.  For undirected graphs the ``out_*``
    arrays hold the full neighbourhood and the ``in_*`` arrays alias
    them.
    """

    n: int
    directed: bool
    rank: np.ndarray
    in_off: np.ndarray
    in_src: np.ndarray
    in_wt: np.ndarray
    in_key: np.ndarray
    out_off: np.ndarray
    out_tgt: np.ndarray
    out_wt: np.ndarray
    out_key: np.ndarray

    @classmethod
    def from_arcs(
        cls,
        n: int,
        directed: bool,
        rank: np.ndarray,
        src: np.ndarray,
        tgt: np.ndarray,
        wt: np.ndarray,
    ) -> "EdgeSnapshot":
        """Pack :func:`arc_columns` into the rank-keyed CSR views.

        Built once per index construction (the edges never change);
        ``rank`` is the vertex importance order the rule filters
        compare against.
        """

        def csr(owner, nbr, weight):
            order = np.lexsort((rank[nbr], owner))
            owner, nbr, weight = owner[order], nbr[order], weight[order]
            off = np.searchsorted(owner, np.arange(n + 1))
            key = owner * n + rank[nbr]
            return off, nbr, weight, key

        out_off, out_tgt, out_wt, out_key = csr(src, tgt, wt)
        if directed:
            in_off, in_src, in_wt, in_key = csr(tgt, src, wt)
        else:
            # Undirected adjacency lists already contain both endpoints.
            in_off, in_src, in_wt, in_key = out_off, out_tgt, out_wt, out_key
        return cls(
            n=n,
            directed=directed,
            rank=rank,
            in_off=in_off,
            in_src=in_src,
            in_wt=in_wt,
            in_key=in_key,
            out_off=out_off,
            out_tgt=out_tgt,
            out_wt=out_wt,
            out_key=out_key,
        )


@dataclass
class LabelSnapshot:
    """Per-iteration label partners for Hop-Doubling joins.

    Two views of the current (pre-admission) label state:

    * ``out_r_* `` / ``in_r_*`` — each side grouped by owner with
      entries sorted by pivot rank (the Rule 1/4 partner files; the
      ``*_key`` arrays are ``owner * n + rank[pivot]``);
    * ``rev_out_*`` / ``rev_in_*`` — the same sides grouped by pivot
      (the Rule 2/5 reverse indexes).

    For undirected states the single store occupies the ``out``/
    ``rev_out`` slots and the ``in`` slots alias them.
    """

    n: int
    directed: bool
    rank: np.ndarray
    out_r_off: np.ndarray
    out_r_piv: np.ndarray
    out_r_dist: np.ndarray
    out_r_hops: np.ndarray
    out_r_key: np.ndarray
    in_r_off: np.ndarray
    in_r_piv: np.ndarray
    in_r_dist: np.ndarray
    in_r_hops: np.ndarray
    in_r_key: np.ndarray
    rev_out_off: np.ndarray
    rev_out_owner: np.ndarray
    rev_out_dist: np.ndarray
    rev_out_hops: np.ndarray
    rev_in_off: np.ndarray
    rev_in_owner: np.ndarray
    rev_in_dist: np.ndarray
    rev_in_hops: np.ndarray


def _rank_sorted_view(side: SideArrays, rank: np.ndarray):
    """A side re-sorted by ``(owner, rank[pivot])`` with search keys."""
    n = side.n
    order = np.lexsort((rank[side.piv], side.owner))
    piv = side.piv[order]
    owner = side.owner[order]
    key = owner * n + rank[piv]
    # Same grouping as the pivot-sorted side, so offsets are shared.
    return side.off, piv, side.dist[order], side.hops[order], key


def _pivot_grouped_view(side: SideArrays):
    """A side re-grouped by pivot (the reverse index of the rules)."""
    n = side.n
    order = np.lexsort((side.owner, side.piv))
    piv = side.piv[order]
    off = np.searchsorted(piv, np.arange(n + 1))
    return off, side.owner[order], side.dist[order], side.hops[order]


# ---------------------------------------------------------------------------
# The mutable array state
# ---------------------------------------------------------------------------


class ArrayLabelState:
    """Mutable struct-of-arrays label state (directed or undirected).

    The entries of ``Lout`` / ``Lin`` (or the single undirected ``L``)
    minus the implicit trivial self pairs, one :class:`SideArrays` per
    store side, with every per-iteration operation — admission,
    pruning, snapshots for the rule joins — vectorized over them.
    """

    __slots__ = ("n", "directed", "rank", "out", "inn", "_touched", "_staged")

    def __init__(self, rank: Sequence[int], directed: bool) -> None:
        self.n = len(rank)
        self.directed = directed
        self.rank = np.asarray(rank, dtype=np.int64)
        self.out = SideArrays.empty(self.n)
        self.inn = SideArrays.empty(self.n) if directed else self.out
        self._touched: tuple[set, set] | None = None
        # Per-side staged-candidate overlays between stage() and
        # commit_staged() — None outside an admission round.
        self._staged: tuple[SideArrays, SideArrays] | None = None

    def track_touched(
        self, sets: tuple[set, set] | None = None
    ) -> tuple[set, set]:
        """Start recording which vertices' labels change.

        Returns ``(out_owners, in_owners)`` sets that every admission
        and removal adds its store-side owner to (undirected states
        fill only the first).  ``sets`` re-attaches existing sets, which
        the dynamic index uses when it swaps the state underneath.
        """
        if sets is not None:
            self._touched = sets
        elif self._touched is None:
            self._touched = (set(), set())
        return self._touched

    # -- construction --------------------------------------------------
    @classmethod
    def from_block(
        cls, rank: Sequence[int], directed: bool, block: PrevBlock
    ) -> "ArrayLabelState":
        """Seed from the iteration-1 entries.

        Entries must already be deduplicated (one value per pair) and,
        for undirected states, normalized to ``(owner, pivot)``.
        """
        state = cls(rank, directed)
        sides = [
            SideArrays(
                state.n, owners[mask], pivs[mask], block.dist[mask], block.hops[mask]
            )
            for _, mask, owners, pivs in state._side_groups(block.a, block.b)
        ]
        state.out = sides[0]
        state.inn = sides[-1]
        return state

    def _side_groups(self, a: np.ndarray, b: np.ndarray):
        """Route pairs to their store side: (side, mask, owners, pivots)."""
        if self.directed:
            out_mask = self.rank[b] < self.rank[a]
            return (
                (self.out, out_mask, a, b),
                (self.inn, ~out_mask, b, a),
            )
        return ((self.out, np.ones(a.size, dtype=bool), a, b),)

    # -- snapshots -----------------------------------------------------
    def label_snapshot_for(
        self,
        anchors: np.ndarray | None,
        rev_out_anchors: np.ndarray | None = None,
        rev_in_anchors: np.ndarray | None = None,
    ) -> LabelSnapshot:
        """Doubling partners restricted to the anchor vertices.

        The owner-grouped views cover only entries *owned by* an
        ``anchors`` vertex (``None`` = all owners, the full views) and
        the reverse views only entries *pivoted at* a ``rev_*_anchors``
        vertex (``None`` falls back to ``anchors``); every other
        vertex's segment is empty.  The doubling joins anchor
        exclusively at the prev entries' endpoints — and the reverse
        joins (Rules 2/5) specifically at the prev entries' *owner*
        ends, which rank below their pivots and therefore pivot few
        entries — so for any ``prev`` covered by the anchor sets the
        joins produce the exact rule applications (same values, same
        order) the full views (``anchors=None``) yield, while sorting
        only the touched partner slices instead of the whole store.
        This is what makes a repair round's cost track the fresh-entry
        frontier rather than the index size.
        """
        n, rank = self.n, self.rank
        if anchors is not None:
            flag = np.zeros(n, dtype=bool)
            flag[anchors] = True
        else:
            flag = None

        def owner_view(side: SideArrays):
            if flag is None:
                return _rank_sorted_view(side, rank)
            idx = np.flatnonzero(flag[side.owner])
            owner = side.owner[idx]
            piv = side.piv[idx]
            order = np.lexsort((rank[piv], owner))
            owner = owner[order]
            piv = piv[order]
            off = np.searchsorted(owner, np.arange(n + 1))
            sel = idx[order]
            return off, piv, side.dist[sel], side.hops[sel], owner * n + rank[piv]

        def pivot_view(side: SideArrays, pivots):
            if pivots is None and flag is None:
                return _pivot_grouped_view(side)
            if pivots is None:
                pflag = flag
            else:
                pflag = np.zeros(n, dtype=bool)
                pflag[pivots] = True
            idx = np.flatnonzero(pflag[side.piv])
            piv = side.piv[idx]
            owner = side.owner[idx]
            order = np.lexsort((owner, piv))
            sel = idx[order]
            off = np.searchsorted(piv[order], np.arange(n + 1))
            return off, owner[order], side.dist[sel], side.hops[sel]

        o_off, o_piv, o_dist, o_hops, o_key = owner_view(self.out)
        ro_off, ro_owner, ro_dist, ro_hops = pivot_view(self.out, rev_out_anchors)
        if self.directed:
            i_off, i_piv, i_dist, i_hops, i_key = owner_view(self.inn)
            ri_off, ri_owner, ri_dist, ri_hops = pivot_view(
                self.inn, rev_in_anchors
            )
        else:
            i_off, i_piv, i_dist, i_hops, i_key = (
                o_off,
                o_piv,
                o_dist,
                o_hops,
                o_key,
            )
            ri_off, ri_owner, ri_dist, ri_hops = (
                ro_off,
                ro_owner,
                ro_dist,
                ro_hops,
            )
        return LabelSnapshot(
            n=n,
            directed=self.directed,
            rank=rank,
            out_r_off=o_off,
            out_r_piv=o_piv,
            out_r_dist=o_dist,
            out_r_hops=o_hops,
            out_r_key=o_key,
            in_r_off=i_off,
            in_r_piv=i_piv,
            in_r_dist=i_dist,
            in_r_hops=i_hops,
            in_r_key=i_key,
            rev_out_off=ro_off,
            rev_out_owner=ro_owner,
            rev_out_dist=ro_dist,
            rev_out_hops=ro_hops,
            rev_in_off=ri_off,
            rev_in_owner=ri_owner,
            rev_in_dist=ri_dist,
            rev_in_hops=ri_hops,
        )

    def doubling_snapshot(self, prev: PrevBlock) -> LabelSnapshot:
        """The cheapest snapshot that serves a doubling round over ``prev``.

        A small frontier (the dynamic-update repair rounds, the tail
        iterations of a build) gets the restricted
        :meth:`label_snapshot_for`; a frontier touching a sizable
        share of the vertices falls back to the full owner views
        (``anchors=None``), whose single global sort is cheaper than
        masking at that scale.  Either choice yields identical
        rule applications, so callers are free to treat this as a pure
        performance knob.
        """
        anchors = np.unique(np.concatenate((prev.a, prev.b)))
        # Rule 2 reverse joins anchor at the prev entries' ``a`` ends
        # and Rule 5 at the ``b`` ends (for undirected states the
        # single rev view anchors at the owners, prev.a) — restricting
        # the reverse views to those keeps the high-degree pivots'
        # huge reverse fan-ins out of the sort, so they stay
        # restricted even when the owner views fall back to the full
        # sort for a large frontier.
        if anchors.size * 4 > self.n:
            anchors = None
        return self.label_snapshot_for(
            anchors,
            rev_out_anchors=np.unique(prev.a),
            rev_in_anchors=np.unique(prev.b),
        )

    # -- scalar queries ------------------------------------------------
    def owner_pivot(self, a: int, b: int) -> tuple[int, int]:
        """Normalize an unordered pair to ``(owner, pivot)`` by rank."""
        if self.rank[a] < self.rank[b]:
            return b, a
        return a, b

    def get_pair_distance(self, a: int, b: int) -> float | None:
        """Current distance of the entry for the pair ``a -> b``, if any."""
        if self.directed:
            if self.rank[b] < self.rank[a]:
                side, owner, piv = self.out, a, b
            else:
                side, owner, piv = self.inn, b, a
        else:
            side = self.out
            owner, piv = self.owner_pivot(a, b)
        key = owner * self.n + piv
        pos = int(np.searchsorted(side.key, key))
        if pos < side.key.size and side.key[pos] == key:
            return float(side.dist[pos])
        return None

    def two_hop_distance(self, s: int, t: int) -> float:
        """Exact ``dist(s, t)`` on the current state.

        The join over non-trivial entries plus the two trivial-pivot
        routes, which both collapse to the pair's own entry (the only
        routes the trivial self entries ever contribute).
        """
        if s == t:
            return 0.0
        pair = self.get_pair_distance(s, t)
        best = np.inf if pair is None else pair
        out, inn = self.out, self.inn
        ao, ae = out.off[s], out.off[s + 1]
        bo, be = inn.off[t], inn.off[t + 1]
        if ae > ao and be > bo:
            _, ia, ib = np.intersect1d(
                out.piv[ao:ae],
                inn.piv[bo:be],
                assume_unique=True,
                return_indices=True,
            )
            if ia.size:
                best = min(
                    best, float((out.dist[ao + ia] + inn.dist[bo + ib]).min())
                )
        return float(best)

    # -- admission -----------------------------------------------------
    def admit(
        self,
        a: np.ndarray,
        b: np.ndarray,
        dist: np.ndarray,
        hops: np.ndarray,
    ) -> np.ndarray:
        """Stage deduplicated candidates; return the admitted mask.

        The admission rule of
        :func:`repro.core.pruning.admit_and_prune_arrays`: a candidate
        is admitted when the pair has no entry yet or strictly improves
        the distance; admitted values overwrite in place.
        """
        admitted = np.zeros(a.size, dtype=bool)
        for i, (side, mask, owners, pivs) in enumerate(self._side_groups(a, b)):
            o = owners[mask]
            if o.size == 0:
                continue
            p = pivs[mask]
            d = dist[mask]
            h = hops[mask]
            pos, found = side.lookup(o, p)
            better = np.zeros(o.size, dtype=bool)
            if found.any():
                better[found] = d[found] < side.dist[pos[found]]
                upd = found & better
                side.update_values(pos[upd], d[upd], h[upd])
            new = ~found
            side.insert(o[new], p[new], d[new], h[new])
            admitted[mask] = new | better
            if self._touched is not None:
                self._touched[i].update(o[new | better].tolist())
        return admitted

    def stage(
        self,
        a: np.ndarray,
        b: np.ndarray,
        dist: np.ndarray,
        hops: np.ndarray,
    ) -> np.ndarray:
        """Like :meth:`admit`, but into a deferred per-side overlay.

        The admitted candidates land in small staged side arrays
        instead of the base arrays; :meth:`prunable` joins over base
        *and* staged entries (the Section 3.3 snapshot semantics), and
        :meth:`commit_staged` then merges only the survivors — so a
        round that prunes most of what it admits (the common case)
        never pays the O(index) insert-then-delete of the base arrays
        for the doomed majority.  The admitted mask and the eventual
        state are bit-identical to the immediate :meth:`admit` path.
        """
        staged = []
        admitted = np.zeros(a.size, dtype=bool)
        for i, (side, mask, owners, pivs) in enumerate(self._side_groups(a, b)):
            o = owners[mask]
            p = pivs[mask]
            d = dist[mask]
            h = hops[mask]
            pos, found = side.lookup(o, p)
            better = np.zeros(o.size, dtype=bool)
            if found.any():
                better[found] = d[found] < side.dist[pos[found]]
            keep = ~found | better
            staged.append(SideArrays(self.n, o[keep], p[keep], d[keep], h[keep]))
            admitted[mask] = keep
            if self._touched is not None:
                self._touched[i].update(o[keep].tolist())
        self._staged = (staged[0], staged[-1])
        return admitted

    def commit_staged(
        self,
        a: np.ndarray,
        b: np.ndarray,
        dist: np.ndarray,
        hops: np.ndarray,
        doomed: np.ndarray,
    ) -> None:
        """Merge the staged round into the base arrays.

        ``(a, b, dist, hops)`` are the staged (admitted) candidates
        and ``doomed`` the pruning verdicts, all in candidate order.
        Surviving new pairs are inserted, surviving improvements
        overwrite in place, and doomed improvements delete the (now
        stale) base entry — the exact end state the
        admit-then-prune-then-remove path reaches, with base mutations
        proportional to the survivors instead of the admitted.
        """
        keep = ~doomed
        for side, mask, owners, pivs in self._side_groups(a, b):
            o = owners[mask]
            if o.size == 0:
                continue
            p = pivs[mask]
            d = dist[mask]
            h = hops[mask]
            k = keep[mask]
            pos, found = side.lookup(o, p)
            upd = found & k
            side.update_values(pos[upd], d[upd], h[upd])
            new = ~found & k
            side.insert(o[new], p[new], d[new], h[new])
            gone = found & ~k
            side.delete(o[gone], p[gone])
        self._staged = None

    def remove(self, a: np.ndarray, b: np.ndarray) -> None:
        """Delete the (present) entries of the pairs ``a -> b``."""
        for i, (side, mask, owners, pivs) in enumerate(self._side_groups(a, b)):
            side.delete(owners[mask], pivs[mask])
            if self._touched is not None:
                self._touched[i].update(owners[mask].tolist())

    # -- pruning -------------------------------------------------------
    def prunable(self, a: np.ndarray, b: np.ndarray, dist: np.ndarray):
        """Vectorized Section 3.3 pruning test for the pairs ``a -> b``.

        True where the best ``d1 + d2`` over common pivots of the
        pair's ``Lout(a)`` and ``Lin(b)``, the pair's own pivot
        excluded, is ``<= dist``: the join runs over non-trivial
        entries only, which is exactly what the exclusion admits (see
        the module docstring).  The smaller of the two labels is
        expanded and the larger probed.  Evaluated in blocks to bound
        peak memory.

        **Only possible witnesses are gathered.**  A witness route
        needs ``d1 + d2 <= dist`` with both legs positive (edge weights
        are validated positive and trivial self entries are not
        stored), hence ``d1 < dist`` and ``d2 < dist``.  Expanded
        entries at distance ``>= dist`` are dropped before the probe,
        and a whole side — base or staged overlay, expanded or probed —
        whose *shortest* entry is not below a block's largest candidate
        distance is **inert** for that block and is neither expanded
        nor probed: every row it would contribute fails one of the two
        inequalities, so the doomed mask cannot change (what the
        per-entry filter has always assumed holds for the side rule
        too: no leg is so short that adding it to the other rounds
        away, i.e. distances stay within 2**53 of each other).  Inert
        sides do not count towards the label sizes that pick the
        expansion side either.  In a Hop-Stepping round on an
        unweighted graph every candidate, and so every staged entry,
        has distance exactly ``i``: the overlay is inert for the whole
        round.  Each side's minimum is taken once per call.

        Large blocks probe through a cache-resident epoch-stamped
        scatter table (pairs sorted by probe owner, the probed side's
        entries scattered one vertex block at a time — the query
        kernel's dense join, transplanted): each filtered row costs
        two O(1) gathers instead of a binary search over the whole
        side.  Small blocks keep the global ``searchsorted`` probe.
        Either path forms the identical ``d1 + d2`` sums, so the
        outcome — and the bit-identity with the reference engine —
        does not depend on the join strategy.
        """
        best = np.full(a.size, np.inf)
        if a.size == 0:
            return best <= dist
        staged_out, staged_inn = self._staged or (None, None)

        def with_floor(sides):
            return [(s, s.dist.min()) for s in sides if s is not None and len(s)]

        outs = with_floor((self.out, staged_out))
        inns = with_floor((self.inn, staged_inn)) if self.directed else outs

        top = dist.max()

        def live_size(sides, owner):
            size = np.zeros(owner.size, dtype=np.int64)
            for side, floor in sides:
                if floor < top:
                    size += side.off[owner + 1] - side.off[owner]
            return size

        expand_out = live_size(outs, a) <= live_size(inns, b)
        block_rows = PRUNE_TABLE_ELEMS // self.n
        for sel, exps, exp_owner, probes, probe_owner in (
            (expand_out, outs, a, inns, b),
            (~expand_out, inns, b, outs, a),
        ):
            idx = np.flatnonzero(sel)
            if idx.size == 0:
                continue
            # Sorting the pairs by probe owner makes each vertex
            # block's rows one contiguous run (the dense path's walk);
            # the searchsorted path is order-insensitive.
            idx = idx[np.argsort(probe_owner[idx], kind="stable")]
            for lo in range(0, idx.size, PRUNE_BLOCK_PAIRS):
                blk = idx[lo : lo + PRUNE_BLOCK_PAIRS]
                eo = exp_owner[blk]
                db = dist[blk]
                po = probe_owner[blk]
                ceiling = db.max()
                live = [side for side, floor in probes if floor < ceiling]
                if not live:
                    continue
                for exp, floor in exps:
                    if floor >= ceiling:
                        continue
                    reps, pos = expand_segments(exp.off[eo], exp.off[eo + 1])
                    if pos.size == 0:
                        continue
                    d1 = exp.dist[pos]
                    keep = d1 < db[reps]
                    reps, pos, d1 = reps[keep], pos[keep], d1[keep]
                    if pos.size == 0:
                        continue
                    piv = exp.piv[pos]
                    if pos.size >= PRUNE_DENSE_MIN_ROWS and block_rows >= 1:
                        joins = [
                            self._prune_join_dense(
                                live, po, reps, piv, d1, block_rows
                            )
                        ]
                    else:
                        joins = [
                            self._prune_join_sorted(pr, po, reps, piv, d1)
                            for pr in live
                        ]
                    for bounds, pair in joins:
                        if pair.size:
                            at = blk[pair]
                            best[at] = np.minimum(best[at], bounds)
        return best <= dist

    @staticmethod
    def _prune_join_sorted(probe, po, reps, piv, d1):
        """Probe via one global searchsorted into the side's key array."""
        p2, hit = probe.lookup(po[reps], piv)
        if not hit.any():
            return np.zeros(0), np.zeros(0, np.int64)
        sums = d1[hit] + probe.dist[p2[hit]]
        rh = reps[hit]  # nondecreasing (expand_segments contract)
        seg = np.flatnonzero(
            np.concatenate((np.ones(1, dtype=bool), rh[1:] != rh[:-1]))
        )
        return np.minimum.reduceat(sums, seg), rh[seg]

    def _prune_join_dense(self, probes, po, reps, piv, d1, block_rows):
        """Probe via an epoch-stamped scatter table over vertex blocks.

        ``po`` must be nondecreasing (pairs sorted by probe owner), so
        each block of probe-owner ids owns one contiguous row run.
        Every side in ``probes`` (base, staged overlay) is scattered
        into the same table with a min-merge, so one gather per row
        probes them all.
        """
        n = self.n
        table_d = np.empty(block_rows * n, dtype=np.float64)
        table_e = np.zeros(block_rows * n, dtype=np.int32)
        qkey = po[reps] * n + piv
        vedges = np.arange(0, n + block_rows, block_rows, dtype=np.int64)
        # Rows per block: pair runs via po, then row runs via reps.
        pair_cuts = np.searchsorted(po, vedges)
        row_cuts = np.searchsorted(reps, pair_cuts)
        bounds_parts = []
        pair_parts = []
        for k in range(vedges.size - 1):
            r0, r1 = int(row_cuts[k]), int(row_cuts[k + 1])
            if r0 == r1:
                continue
            b0 = int(vedges[k])
            hi = min(b0 + block_rows, n)
            shift = b0 * n
            epoch = k + 1
            for probe in probes:
                so, se = int(probe.off[b0]), int(probe.off[hi])
                if se == so:
                    continue
                addr = probe.key[so:se] - shift
                fresh = probe.dist[so:se]
                if probe is not probes[0]:
                    fresh = np.minimum(
                        fresh,
                        np.where(table_e[addr] == epoch, table_d[addr], np.inf),
                    )
                table_d[addr] = fresh
                table_e[addr] = epoch
            taddr = qkey[r0:r1] - shift
            hit = np.flatnonzero(table_e[taddr] == epoch)
            if hit.size == 0:
                continue
            sums = d1[r0:r1][hit] + table_d[taddr[hit]]
            rh = reps[r0:r1][hit]
            seg = np.flatnonzero(
                np.concatenate((np.ones(1, dtype=bool), rh[1:] != rh[:-1]))
            )
            bounds_parts.append(np.minimum.reduceat(sums, seg))
            pair_parts.append(rh[seg])
        if not bounds_parts:
            return np.zeros(0), np.zeros(0, np.int64)
        return np.concatenate(bounds_parts), np.concatenate(pair_parts)

    # -- statistics / export -------------------------------------------
    def total_entries(self) -> int:
        """Non-trivial entries across the store sides."""
        total = len(self.out)
        if self.directed:
            total += len(self.inn)
        return total

    def freeze(self) -> FlatLabelStore:
        """Freeze into a queryable v2 :class:`~repro.core.flatstore.FlatLabelStore`.

        Each label sorted by pivot id with the trivial ``(v, 0)`` self
        entry re-added, held as CSR arrays, so packing and
        saving them never builds a per-entry object.  The arrays are
        copies: the store does not follow later mutations.
        """
        out = self._csr_side(self.out)
        inn = self._csr_side(self.inn) if self.directed else out
        return FlatLabelStore(
            self.n, self.directed, *out, *inn, rank=self.rank.tolist()
        )

    def _csr_side(self, side: SideArrays) -> tuple:
        """``(offsets, pivots, dists)`` of one side, self entries merged in.

        The side is already sorted by ``(owner, pivot)``, so vertex
        ``v``'s ``(v, 0.0)`` entry goes where key ``v * n + v`` sorts.
        """
        n = self.n
        verts = np.arange(n, dtype=np.int64)
        at = np.searchsorted(side.key, verts * (n + 1))
        return frozen_views(
            side.off + np.arange(n + 1, dtype=np.int64),
            np.insert(side.piv, at, verts).astype(np.int32),
            np.insert(side.dist, at, 0.0),
        )

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"ArrayLabelState(|V|={self.n}, {kind}, "
            f"entries={self.total_entries()})"
        )
