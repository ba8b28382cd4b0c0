"""Array-backed construction state of the build engine.

A per-entry label state (dicts of ``pivot -> (dist, hops)``) pays a
Python-level dict probe per rule application and per pruning test;
profiling a 10k-vertex Barabasi-Albert build showed ~90% of the wall
clock inside those per-entry loops.  This module keeps the label state
as struct-of-arrays instead:

* every store side (``Lout`` / ``Lin``, or the single undirected
  ``L``) is a :class:`SideArrays` — contiguous ``key`` / ``pivot`` /
  ``dist`` / ``hops`` arrays sorted by the int64 key
  ``owner * n + pivot`` with CSR offsets per owner, so a vertex's label
  is a slice and an entry lookup is one ``searchsorted``.  Ids and hop
  counts are int32 whenever ``n`` allows (:func:`id_dtype`) and the
  owner is not stored (it is ``key // n``): 24 bytes per entry;
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
* **the pruning test splits hubs from tails**, as the query kernel
  does (:mod:`repro.core.hubs`).  On a scale-free graph a few
  top-ranked pivots hold most entries, so a call builds a dense uint8
  table of every vertex's shortest entry to each of the top
  ``PRUNE_HUB_COLUMNS`` ranks, dooms the pairs whose hub part
  ``min_j H_out[a, j] + H_in[b, j]`` is within the candidate's
  distance with no join at all, and joins the rest over their other
  pivots only.  A call too small to pay for scanning the labels, or
  one with an entry to a hub that a cell cannot hold, runs the same
  code with zero hub columns;
* each iteration publishes a read-only :class:`LabelSnapshot` /
  :class:`EdgeSnapshot` — per-vertex partner arrays re-sorted by
  pivot *rank* so the minimized rules' "ranked between" filters become
  one ``searchsorted`` plus a slice;
* **a round holds nothing whole but the state, its candidates'
  running minimum and the survivors.**  Alive at each step beside the
  label state: while the rules run (:mod:`repro.core.rules`), the
  previous round's survivors (:class:`PrevBlock`, 20 bytes each), the
  snapshot, the running minimum (20 bytes per distinct pair) and one
  block of raw candidates (``GENERATE_BLOCK_CANDIDATES``); while
  staging (:meth:`ArrayLabelState.stage`), the candidates as they turn
  into the staged overlays (24 bytes per admitted entry); while
  pruning (:meth:`ArrayLabelState.prunable`), the overlays, ~20 bytes
  of scratch per staged pair, the hub tables (``n`` times
  ``PRUNE_HUB_COLUMNS`` bytes per side) and one block of expanded rows
  (``PRUNE_BLOCK_ROWS`` / ``PRUNE_BLOCK_PAIRS``); while committing
  (:meth:`ArrayLabelState.commit_staged`), each overlay until its
  survivors are copied out, then the growing base arrays.  Every
  column moves through index arrays or one compress, never a
  full-size mask per column per side.

All reductions (candidate dedupe, admission, pruning) use the same
min-``(dist, hops)`` logic as the per-entry reference engine in
``tests/reference/dict_build.py``, so the two produce
**bit-identical** label sets and iteration counters
(``tests/core/test_parallel_build.py`` enforces this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.flatstore import FlatLabelStore, frozen_views
from repro.core.hubs import NO_ENTRY, hub_min, misfit
from repro.graphs.digraph import Graph, id_dtype

#: Pruning expands each staged pair's smaller label into rows (about 50
#: bytes each while they are filtered and joined); a block of pairs
#: holds at most this many pairs and about this many rows, which bound
#: the prune test's scratch memory.
PRUNE_BLOCK_PAIRS = 65_536
PRUNE_BLOCK_ROWS = 1 << 19

#: Elements in the pruning test's dense probe table (~6 MB of f64+i32,
#: the same cache-residency reasoning as the query kernel's scatter
#: join).  Rows per vertex block is this divided by ``n``.
PRUNE_TABLE_ELEMS = 1 << 19

#: Below this many expanded-and-filtered rows the dense probe table is
#: not worth scattering; the global ``searchsorted`` probe runs instead.
PRUNE_DENSE_MIN_ROWS = 8_192

#: Hub columns of the pruning test: pivots ranked above this (``rank <
#: PRUNE_HUB_COLUMNS``) get a column of the call's dense hub table.
#: Prune time of whole builds at 32 / 64 / 128 / 256 columns (one
#: pinned core, same calls): GLP-20k 0.127 / 0.129 / 0.135 / 0.141 s,
#: BA-10k 0.46 / 0.44 / 0.42 / 0.44 s, GLP-70k 0.68 / 0.67 / 0.72 /
#: 0.77 s; zero columns 0.34, 0.82 and 2.07 s.
PRUNE_HUB_COLUMNS = 64

#: The hub table is built for a call only when the call expands at
#: least this many rows per entry the table would scan; a smaller call
#: (the repair of a few edges) joins every pivot as rows.  Measured per
#: call in repairs on BA-10k and GLP-70k: the table lost at 0.1 rows
#: per entry and below (e.g. 6.2 against 4.6 ms) and won from 0.4 on
#: (13.9 against 16.7 ms).
PRUNE_HUB_ROWS_PER_ENTRY = 0.25


def pair_keys(owner: np.ndarray, other: np.ndarray, n: int) -> np.ndarray:
    """``owner * n + other`` as int64, whatever the width of the ids.

    Every pair key goes through here: an int32 id column times ``n``
    would wrap at ~46k vertices.
    """
    key = np.multiply(owner, n, dtype=np.int64)
    key += other
    return key


def split_keys(key: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(key // n, key % n)`` as :func:`id_dtype` columns, written
    straight into the narrow columns (no int64 temporaries)."""
    ids = id_dtype(n)
    owner = np.empty(key.size, dtype=ids)
    other = np.empty(key.size, dtype=ids)
    np.floor_divide(key, n, out=owner, casting="unsafe")
    np.remainder(key, n, out=other, casting="unsafe")
    return owner, other


def find_sorted(keys: np.ndarray, qkey: np.ndarray):
    """``(pos, found)``: where each of ``qkey`` sorts into the sorted
    ``keys``, and whether it is there."""
    pos = np.searchsorted(keys, qkey)
    if not keys.size:
        return pos, np.zeros(qkey.size, dtype=bool)
    return pos, keys[np.minimum(pos, keys.size - 1)] == qkey


def insertion_plan(size: int, pos: np.ndarray):
    """Where new items land when merged before the positions ``pos``
    of ``size`` old ones; ``pos`` is nondecreasing (a ``searchsorted``
    of sorted keys).  One plan serves every column (:func:`insert_into`).
    """
    at = pos + np.arange(pos.size)
    old = np.ones(size + pos.size, dtype=bool)
    old[at] = False
    return at, old


def insert_into(column: np.ndarray, plan, values: np.ndarray) -> np.ndarray:
    """``column`` with ``values`` merged in by an :func:`insertion_plan`
    (what ``np.insert`` returns).  Called a column at a time, so the
    caller can drop each old column as soon as its successor exists."""
    at, old = plan
    out = np.empty(old.size, dtype=column.dtype)
    out[at] = values
    out[old] = column
    return out


def block_bounds(counts: np.ndarray, budget: int, most: int | None = None) -> list:
    """Cut points of consecutive blocks over items of sizes ``counts``.

    A block's sizes add up to at most ``budget`` plus its first item's
    (an item larger than ``budget`` is a block of its own), and it holds
    at most ``most`` items.  Returns ``[0, ..., counts.size]``.
    """
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    cuts = [np.searchsorted(ends, np.arange(budget, total, budget), "right")]
    if most is not None:
        cuts.append(np.arange(most, counts.size, most))
    return np.unique(np.concatenate(([0], *cuts, [counts.size]))).tolist()


def _pick(sel, *columns) -> tuple:
    """``columns`` restricted to the rows ``sel`` (``None``: all, no copy)."""
    return columns if sel is None else tuple(column[sel] for column in columns)


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
    """Every stored arc as ``(source, target, weight)`` columns: views of
    the graph's out CSR (both directions of an undirected edge), the
    source expanded from the offsets, unit weights if unweighted.  The
    iteration-1 seed and the stepping partners both derive from them.
    """
    offsets, targets, weights = graph.csr()
    n = graph.num_vertices
    src = np.repeat(np.arange(n, dtype=id_dtype(n)), np.diff(offsets))
    return src, targets, np.ones(targets.size) if weights is None else weights


@dataclass
class PrevBlock:
    """One iteration's surviving entries as parallel arrays.

    The array twin of the rule engines' ``list[PrevEntry]``: ``(a, b)``
    is the directed pair (or normalized ``(owner, pivot)`` for
    undirected states).  The order of the entries carries no meaning:
    a round's candidates are reduced per pair whatever order the rules
    meet them in.
    """

    a: np.ndarray
    b: np.ndarray
    dist: np.ndarray
    hops: np.ndarray

    def __len__(self) -> int:
        return int(self.a.size)

    @classmethod
    def from_keys(cls, n: int, key, dist, hops) -> "PrevBlock":
        """The pairs of int64 keys ``a * n + b``, ids narrowed."""
        return cls(*split_keys(key, n), dist, hops)

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

    Entries are kept sorted by the combined key ``owner * n + pivot``
    (int64); ``off[v] : off[v + 1]`` is vertex ``v``'s slice.  The
    stored columns are ``key``, ``piv`` and ``hops`` (the last two
    :func:`id_dtype`) and ``dist`` (float64), 24 bytes an entry when
    ids are int32; ``owner`` is ``key // n`` and is derived on demand
    from the offsets.  Mutations
    (``update_values`` / ``insert`` / ``delete_at``) preserve the
    order, so lookups stay a single ``searchsorted``.
    """

    __slots__ = ("n", "key", "piv", "dist", "hops", "off")

    def __init__(
        self,
        n: int,
        key: np.ndarray,
        piv: np.ndarray,
        dist: np.ndarray,
        hops: np.ndarray,
    ) -> None:
        """Adopt columns already sorted by ``key`` (no copy)."""
        self.n = n
        self.key = key
        self.piv = piv
        self.dist = dist
        self.hops = hops
        self._refresh_offsets()

    @classmethod
    def from_pairs(cls, n, owner, piv, dist, hops) -> "SideArrays":
        """Sort the entries ``owner -> piv`` into a side, ids narrowed."""
        key = pair_keys(owner, piv, n)
        order = np.argsort(key)
        ids = id_dtype(n)
        return cls(
            n,
            key[order],
            piv[order].astype(ids, copy=False),
            dist[order],
            hops[order].astype(ids, copy=False),
        )

    @classmethod
    def empty(cls, n: int) -> "SideArrays":
        """A side with no entries over an ``n``-vertex id space."""
        ids = id_dtype(n)
        return cls(
            n,
            np.zeros(0, np.int64),
            np.zeros(0, ids),
            np.zeros(0, np.float64),
            np.zeros(0, ids),
        )

    def _refresh_offsets(self) -> None:
        self.off = np.searchsorted(
            self.key, np.arange(self.n + 1, dtype=np.int64) * self.n
        )

    def __len__(self) -> int:
        return int(self.key.size)

    @property
    def owner(self) -> np.ndarray:
        """Each entry's owner (a new array, from the offsets)."""
        return np.repeat(
            np.arange(self.n, dtype=id_dtype(self.n)), np.diff(self.off)
        )

    # -- queries -------------------------------------------------------
    def find(self, qkey: np.ndarray):
        """Positions and hit mask for the pair keys ``qkey``."""
        return find_sorted(self.key, qkey)

    def lookup(self, owner: np.ndarray, piv: np.ndarray):
        """Positions and hit mask for the pairs ``owner -> piv``."""
        return self.find(pair_keys(owner, piv, self.n))

    # -- mutations -----------------------------------------------------
    def update_values(
        self, pos: np.ndarray, dist: np.ndarray, hops: np.ndarray
    ) -> None:
        """Overwrite the values at ``pos`` (keys unchanged)."""
        self.dist[pos] = dist
        self.hops[pos] = hops

    def insert(self, key, piv, dist, hops) -> None:
        """Merge new (absent) entries given sorted by ``key``."""
        if key.size == 0:
            return
        plan = insertion_plan(self.key.size, np.searchsorted(self.key, key))
        self.key = insert_into(self.key, plan, key)
        self.piv = insert_into(self.piv, plan, piv)
        self.dist = insert_into(self.dist, plan, dist)
        self.hops = insert_into(self.hops, plan, hops)
        self._refresh_offsets()

    def delete_at(self, pos: np.ndarray) -> None:
        """Remove the entries at the positions ``pos``."""
        if pos.size == 0:
            return
        keep = np.ones(self.key.size, dtype=bool)
        keep[pos] = False
        self.key = self.key[keep]
        self.piv = self.piv[keep]
        self.dist = self.dist[keep]
        self.hops = self.hops[keep]
        self._refresh_offsets()


# ---------------------------------------------------------------------------
# Read-only generation snapshots
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
            # The keys are distinct (a graph has no parallel arcs), so
            # one plain argsort orders the rows by owner, then rank.
            key = pair_keys(owner, rank[nbr], n)
            order = np.argsort(key)
            key = key[order]
            off = np.searchsorted(key, np.arange(n + 1) * n)
            return off, nbr[order], weight[order], key

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
    owner = side.owner
    order = np.lexsort((rank[side.piv], owner))
    piv = side.piv[order]
    key = pair_keys(owner, rank[piv], side.n)  # owner is already sorted
    # Same grouping as the pivot-sorted side, so offsets are shared.
    return side.off, piv, side.dist[order], side.hops[order], key


def _pivot_grouped_view(side: SideArrays):
    """A side re-grouped by pivot (the reverse index of the rules)."""
    n = side.n
    owner = side.owner
    order = np.lexsort((owner, side.piv))
    piv = side.piv[order]
    off = np.searchsorted(piv, np.arange(n + 1))
    return off, owner[order], side.dist[order], side.hops[order]


class _ProbeTable:
    """The dense prune join's scatter table: ``rows`` vertices' rows of
    ``n`` slots, a distance and an epoch stamp per slot, and the last
    epoch handed out.  One per :meth:`ArrayLabelState.prunable` call,
    shared by its pair blocks, and allocated on first use."""

    __slots__ = ("n", "rows", "_arrays", "epoch")

    def __init__(self, n: int) -> None:
        self.n = n
        self.rows = PRUNE_TABLE_ELEMS // n
        self._arrays = None
        self.epoch = 0

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(dist, epoch_of)``, each ``rows * n`` slots."""
        if self._arrays is None:
            size = self.rows * self.n
            self._arrays = (
                np.empty(size, dtype=np.float64),
                np.zeros(size, dtype=np.int32),
            )
        return self._arrays


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
        # Per-side staged-candidate overlays (Lout's first) between
        # stage() and commit_staged() — None outside an admission round.
        self._staged: list[SideArrays] | None = None

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
            SideArrays.from_pairs(
                state.n, owner, piv, *_pick(sel, block.dist, block.hops)
            )
            for _, _, sel, owner, piv in state._route(block.a, block.b)
        ]
        state.out = sides[0]
        state.inn = sides[-1]
        return state

    def _route(self, a: np.ndarray, b: np.ndarray):
        """Route the pairs ``a -> b`` to their store sides.

        Yields ``(i, side, sel, owner, piv)`` per side: ``sel`` indexes
        the pairs that side stores (``None``: all of them, in order —
        the one undirected side), and ``owner`` / ``piv`` are those
        pairs' ends as the side keys them.  No full-size column is
        copied through a mask.
        """
        if not self.directed:
            yield 0, self.out, None, a, b
            return
        is_out = self.rank[b] < self.rank[a]
        sel = np.flatnonzero(is_out)
        yield 0, self.out, sel, a[sel], b[sel]
        sel = np.flatnonzero(~is_out)
        yield 1, self.inn, sel, b[sel], a[sel]

    def _sides(self) -> tuple:
        """The store sides, ``Lout`` first (one when undirected)."""
        return (self.out, self.inn) if self.directed else (self.out,)

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
            owner = side.owner
            idx = np.flatnonzero(flag[owner])
            owner = owner[idx]
            piv = side.piv[idx]
            order = np.lexsort((rank[piv], owner))
            owner = owner[order]
            piv = piv[order]
            off = np.searchsorted(owner, np.arange(n + 1))
            sel = idx[order]
            key = pair_keys(owner, rank[piv], n)
            return off, piv, side.dist[sel], side.hops[sel], key

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
            owner = split_keys(side.key[idx], n)[0]
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
        key = int(owner) * self.n + int(piv)
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
        """Admit deduplicated candidates at once; return the admitted mask.

        The admission rule of
        :func:`repro.core.pruning.admit_and_prune_arrays`: a candidate
        is admitted when the pair has no entry yet or strictly improves
        the distance; admitted values overwrite in place.
        """
        admitted = np.zeros(a.size, dtype=bool)
        for i, side, sel, owner, piv in self._route(a, b):
            d, h = _pick(sel, dist, hops)
            key = pair_keys(owner, piv, self.n)
            pos, found = side.find(key)
            better = np.zeros(key.size, dtype=bool)
            better[found] = d[found] < side.dist[pos[found]]
            side.update_values(pos[better], d[better], h[better])
            new = np.flatnonzero(~found)
            new = new[np.argsort(key[new])]
            side.insert(key[new], piv[new], d[new], h[new])
            keep = better
            keep[new] = True
            if sel is None:
                admitted = keep
            else:
                admitted[sel] = keep
            if self._touched is not None:
                self._touched[i].update(owner[keep].tolist())
        return admitted

    def stage(self, batch) -> int:
        """Admit a round's candidates into a deferred per-side overlay.

        ``batch`` is the round's :class:`~repro.core.rules.CandidateBatch`
        (the best ``(dist, hops)`` per pair key), which this empties.
        The admission rule of :meth:`admit` picks the candidates, which
        land in staged side arrays instead of the base arrays:
        :meth:`prunable` joins over base *and* staged entries (the
        Section 3.3 snapshot semantics), and :meth:`commit_staged` then
        merges only the survivors — so a round that prunes most of what
        it admits (the common case) never pays the O(index)
        insert-then-delete of the base arrays for the doomed majority.
        Returns the number admitted; the eventual state is
        bit-identical to the immediate :meth:`admit` path.

        Alive here: the candidate columns (20 bytes each with int32
        hops) and a position per candidate, then the overlays (24
        bytes per admitted entry) built a column at a time as the
        candidate columns go.
        """
        key, dist, hops = batch.take()
        if not self.directed:
            self._staged = [self._stage_side(0, self.out, key, dist, hops)]
            return len(self._staged[0])
        a, b = split_keys(key, self.n)
        is_out = self.rank[b] < self.rank[a]
        del a, b
        out_sel = np.flatnonzero(is_out)
        in_sel = np.flatnonzero(~is_out)
        del is_out
        staged = [
            self._stage_side(0, self.out, key[out_sel], dist[out_sel], hops[out_sel])
        ]
        del out_sel
        # Lin is keyed (b, a): re-key and sort its share.
        a, b = split_keys(key[in_sel], self.n)
        in_key = pair_keys(b, a, self.n)
        del a, b
        order = np.argsort(in_key)
        in_dist, in_hops = dist[in_sel][order], hops[in_sel][order]
        del key, dist, hops, in_sel
        staged.append(self._stage_side(1, self.inn, in_key[order], in_dist, in_hops))
        self._staged = staged
        return len(staged[0]) + len(staged[1])

    def _stage_side(self, i, side, key, dist, hops) -> SideArrays:
        """The overlay of one side's candidates (``key`` sorted, in the
        side's own keying).  A column the caller keeps no reference to
        (the directed split's shares) goes as soon as its admitted copy
        is made."""
        pos, found = side.find(key)
        keep = ~found
        keep[found] = dist[found] < side.dist[pos[found]]
        del pos, found
        key = key[keep]
        dist = dist[keep]
        hops = hops[keep].astype(id_dtype(self.n), copy=False)
        del keep
        owner, piv = split_keys(key, self.n)
        if self._touched is not None:
            self._touched[i].update(owner.tolist())
        del owner
        return SideArrays(self.n, key, piv, dist, hops)

    def staged_pairs(self):
        """``(a, b, dist)`` of every staged entry, ``Lout``'s first: the
        order :meth:`commit_staged` reads its verdicts in."""
        parts = [
            (overlay.owner, overlay.piv) if i == 0 else (overlay.piv, overlay.owner)
            for i, overlay in enumerate(self._staged)
        ]
        dists = [overlay.dist for overlay in self._staged]
        if len(parts) == 1:
            return (*parts[0], dists[0])
        a, b = (np.concatenate(col) for col in zip(*parts))
        return a, b, np.concatenate(dists)

    def commit_staged(self, doomed: np.ndarray) -> PrevBlock:
        """Merge the staged round into the base arrays; return the survivors.

        ``doomed`` holds the pruning verdicts in :meth:`staged_pairs`
        order.  Surviving new pairs are inserted, surviving
        improvements overwrite in place, and doomed improvements
        delete the (now stale) base entry — the exact end state the
        admit-then-prune-then-remove path reaches, with base mutations
        proportional to the survivors instead of the admitted.  Each
        overlay is dropped once its survivors are copied out, before
        the base arrays grow.  The survivors (the next round's
        ``prev``) come side by side.
        """
        overlays, self._staged = self._staged, None
        parts = []
        at = 0
        for i, side in enumerate(self._sides()):
            overlay = overlays.pop(0)
            live = ~doomed[at : at + len(overlay)]
            at += len(overlay)
            pos, found = side.find(overlay.key)
            upd = found & live
            side.update_values(pos[upd], overlay.dist[upd], overlay.hops[upd])
            side.delete_at(pos[found & ~live])
            fresh = ~found[live]  # surviving pairs new to the side
            del pos, found, upd
            key, piv, dist, hops = _pick(
                live, overlay.key, overlay.piv, overlay.dist, overlay.hops
            )
            del overlay, live
            side.insert(key[fresh], piv[fresh], dist[fresh], hops[fresh])
            del fresh
            owner = split_keys(key, self.n)[0]
            del key
            parts.append(((owner, piv) if i == 0 else (piv, owner)) + (dist, hops))
            del owner, piv, dist, hops
        if len(parts) == 1:
            return PrevBlock(*parts[0])
        return PrevBlock(*(np.concatenate(col) for col in zip(*parts)))

    def remove(self, a: np.ndarray, b: np.ndarray) -> None:
        """Delete the (present) entries of the pairs ``a -> b``."""
        for i, side, _, owner, piv in self._route(a, b):
            pos, found = side.lookup(owner, piv)
            side.delete_at(pos[found])
            if self._touched is not None:
                self._touched[i].update(owner.tolist())

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

        **Hubs first.**  Pivots ranked in the top ``k`` (``rank <
        k``, ``k`` = :data:`PRUNE_HUB_COLUMNS`) are hubs, and each side
        of the call gets an ``n x k`` uint8 table (:meth:`_hub_tables`)
        whose cell ``[v, j]`` is the shortest entry of ``v``'s label to
        the rank-``j`` vertex over the base and staged sides, min-merged
        the way the dense join merges them; ``NO_ENTRY`` (127) means no
        entry.  A cell holds only a whole distance in ``[0, 63]``
        (:func:`~repro.core.hubs.misfit`), so two cells sum below 127
        only when both are entries, and that sum is the exact float
        sum.  A pair is doomed when ``min_j H_out[a, j] + H_in[b, j] <=
        dist`` (:func:`~repro.core.hubs.hub_min`); only the pairs that
        leaves go on to the join, whose rows drop their hub pivots in
        the same compress as the ``d1 < dist`` filter.  Every witness
        pivot is a hub or not, so the verdicts are those of the join
        alone.  The tables cost a scan of the live sides' entries and
        ``n * k`` bytes, so they are built only when the call expands at
        least :data:`PRUNE_HUB_ROWS_PER_ENTRY` rows per entry scanned (a
        build round does, the repair of a few edges does not); below
        that, or when an entry to a hub misfits a cell (weighted or
        fractional graphs), ``k`` is 0 and the same code joins every
        pivot.

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
        doomed = np.zeros(a.size, dtype=bool)
        if a.size == 0:
            return doomed
        staged_out, staged_inn = (
            (self._staged[0], self._staged[-1]) if self._staged else (None, None)
        )

        def with_floor(sides):
            return [(s, s.dist.min()) for s in sides if s is not None and len(s)]

        outs = with_floor((self.out, staged_out))
        inns = with_floor((self.inn, staged_inn)) if self.directed else outs

        top = dist.max()

        def live_size(sides, owner):
            size = np.zeros(owner.size, dtype=np.int32)
            for side, floor in sides:
                if floor < top:
                    size += np.diff(side.off).astype(np.int32)[owner]
            return size

        rows = live_size(outs, a)
        in_rows = live_size(inns, b)
        expand_out = rows <= in_rows
        np.minimum(rows, in_rows, out=rows)  # rows each pair expands
        del in_rows
        k, h_out, h_in = self._hub_tables(outs, inns, top, int(rows.sum()))
        if k:
            best = hub_min(h_out, h_in, a, b)
            doomed = (best < NO_ENTRY) & (best <= dist)
            del best
        del h_out, h_in
        tail_pivot = self.rank >= k  # the pivots the join still probes
        table = _ProbeTable(self.n)
        for sel, exps, exp_owner, probes, probe_owner in (
            (expand_out, outs, a, inns, b),
            (~expand_out, inns, b, outs, a),
        ):
            idx = np.flatnonzero(sel & ~doomed).astype(np.int32)
            if idx.size == 0:
                continue
            # Sorting the pairs by probe owner makes each vertex
            # block's rows one contiguous run (the dense path's walk);
            # the searchsorted path is order-insensitive.
            idx = idx[np.argsort(probe_owner[idx], kind="stable")]
            cuts = block_bounds(rows[idx], PRUNE_BLOCK_ROWS, PRUNE_BLOCK_PAIRS)
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                blk = idx[lo:hi]
                eo = exp_owner[blk]
                db = dist[blk]
                po = probe_owner[blk]
                ceiling = db.max()
                live = [side for side, floor in probes if floor < ceiling]
                if not live:
                    continue
                best = np.full(blk.size, np.inf)
                for exp, floor in exps:
                    if floor >= ceiling:
                        continue
                    reps, pos = expand_segments(exp.off[eo], exp.off[eo + 1])
                    if pos.size == 0:
                        continue
                    d1 = exp.dist[pos]
                    piv = exp.piv[pos]
                    del pos
                    keep = d1 < db[reps]
                    if k:
                        keep &= tail_pivot[piv]
                    reps, piv, d1 = reps[keep], piv[keep], d1[keep]
                    if piv.size == 0:
                        continue
                    if piv.size >= PRUNE_DENSE_MIN_ROWS and table.rows >= 1:
                        joins = [
                            self._prune_join_dense(live, po, reps, piv, d1, table)
                        ]
                    else:
                        joins = [
                            self._prune_join_sorted(pr, po, reps, piv, d1)
                            for pr in live
                        ]
                    for bounds, pair in joins:
                        if pair.size:
                            best[pair] = np.minimum(best[pair], bounds)
                doomed[blk] = best <= db
        return doomed

    def _hub_tables(self, outs, inns, top, rows: int):
        """``(k, H_out, H_in)``: the pruning test's hub tables.

        ``H_out[v, j]`` is the shortest entry of ``Lout(v)`` to the
        vertex of rank ``j`` over the base and staged sides of ``outs``
        (min-merged, as the dense join merges them), ``NO_ENTRY`` where
        there is none; ``H_in`` likewise over ``inns`` (the same table
        when undirected).  Sides inert for the whole call (no entry
        below ``top``) are left out: no witness runs through them.
        ``k`` is :data:`PRUNE_HUB_COLUMNS` (at most ``n``), or 0 — and
        the tables ``n x 0`` — when the call's ``rows`` are fewer than
        :data:`PRUNE_HUB_ROWS_PER_ENTRY` per entry scanned or an entry
        to a hub does not fit a cell (:func:`~repro.core.hubs.misfit`).
        The entries are scanned in blocks of ``PRUNE_BLOCK_ROWS``.
        """
        n = self.n
        k = min(PRUNE_HUB_COLUMNS, n)
        groups = [[side for side, floor in outs if floor < top]]
        if self.directed:
            groups.append([side for side, floor in inns if floor < top])
        scanned = sum(len(side) for sides in groups for side in sides)
        if rows < PRUNE_HUB_ROWS_PER_ENTRY * scanned:
            k = 0
        tables = []
        for sides in groups if k else ():
            table = self._hub_table(sides, k)
            if table is None:
                k = 0
                break
            tables.append(table)
        if not k:
            tables = [np.zeros((n, 0), dtype=np.uint8)]
        return k, tables[0], tables[-1]

    def _hub_table(self, sides, k: int):
        """The ``n x k`` hub table of ``sides``, or None when an entry
        to a hub does not fit a cell."""
        n = self.n
        cells = np.full(n * k, NO_ENTRY, dtype=np.uint8)
        for side in sides:
            for lo in range(0, len(side), PRUNE_BLOCK_ROWS):
                hi = lo + PRUNE_BLOCK_ROWS
                col = self.rank[side.piv[lo:hi]]
                at = np.flatnonzero(col < k)
                cell = side.dist[lo:hi][at]
                if misfit(cell).any():
                    return None
                addr = side.key[lo:hi][at] // n * k + col[at]
                cells[addr] = np.minimum(cells[addr], cell.astype(np.uint8))
        return cells.reshape(n, k)

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

    def _prune_join_dense(self, probes, po, reps, piv, d1, table):
        """Probe via an epoch-stamped scatter table over vertex blocks.

        ``po`` must be nondecreasing (pairs sorted by probe owner), so
        each block of probe-owner ids owns one contiguous row run, and
        only the vertex blocks between the first and the last probe
        owner are visited.  Every side in ``probes`` (base, staged
        overlay) is scattered into the same table with a min-merge, so
        one gather per row probes them all.  ``table`` is the call's
        :class:`_ProbeTable`, shared by its pair blocks.
        """
        n = self.n
        block_rows = table.rows
        table_d, table_e = table.arrays()
        qkey = pair_keys(po[reps], piv, n)
        first, last = int(po[0]) // block_rows, int(po[-1]) // block_rows
        vedges = np.arange(first, last + 2, dtype=np.int64) * block_rows
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
            table.epoch += 1
            epoch = table.epoch
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
        (rank,) = frozen_views(self.rank.astype(np.uint32))
        return FlatLabelStore(self.n, self.directed, *out, *inn, rank=rank)

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
            np.insert(side.piv, at, verts).astype(np.int32, copy=False),
            np.insert(side.dist, at, 0.0),
        )

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"ArrayLabelState(|V|={self.n}, {kind}, "
            f"entries={self.total_entries()})"
        )
