"""The vectorized batch query kernel: dense hub rows plus compact tails.

The scalar batch path answers each pair with a Python loop over two
label slices — fast per query, but interpreter overhead caps a whole
batch at ~10^5 pairs/sec.  This module evaluates an entire batch with
a handful of numpy array operations, and it leans on the structure the
paper's bounds rest on: on a scale-free graph a few hundred top-ranked
hubs hold most label entries (154 pivots hold 79% of them on a
70k-vertex GLP graph), so the hub part of a query is a dense, regular
computation and only the remainder needs a search.

1. **hub columns** (chosen once per store, at view creation) — a
   sample of a few hundred labels, evenly spaced over the vertices
   that own a row, is gathered and every
   pivot found in more than 1 in :data:`_HUB_SHARE` of them gets a
   column of a dense ``n x k`` uint8 table; that share is where one
   more byte per row costs less than the join entries it removes.
   Nothing else is computed when a store is opened;
2. **rows, filled on first touch** — the kernel keeps a cache of
   join-ready rows on the store.  The first batch to name a vertex
   gathers its label once (v2 pivots as mapped, v3 labels decoded by
   :class:`~repro.core.quantized.LabelColumns`, a vertex with a
   staged update read from the overlay arrays) and splits it — a v3
   scalar read fills the one or two rows it misses the same way, a row
   at a time without the batch gather's setup
   (:meth:`_View._fill_row`): entries
   of a column pivot go into the vertex's table row (``127`` = no
   entry, so the uint8 sum of two cells is below 127 exactly when both
   are entries), every other entry is appended to a compact **tail**
   arena (int32 pivot, float64 distance, per-vertex start and length).
   Table and arenas are allocated untouched, so memory follows the
   rows actually used.  A column holds integer distances in
   ``[0, 63]``; the first fractional or larger entry met for a column
   pivot retires that column, so on a weighted graph labels simply
   stay in the tails;
3. **orient, sort, dedupe** — on undirected stores each pair is
   flipped so the *shorter tail* is the one expanded (``dist(s, t) ==
   dist(t, s)``; ties go by vertex id, so ``(t, s)`` always lands on
   ``(s, t)``).  One sort by the packed ``(source, target)`` key then
   groups the pairs by source and puts repeats side by side: only the
   distinct pairs go on, and every position reads its distinct pair's
   answer at the end;
4. **hub part** — ``min_j H_out[s, j] + H_in[t, j]`` over the
   distinct pairs, a few thousand pairs at a time through reused
   buffers (:func:`repro.core.hubs.hub_min`, which the build's pruning
   test shares): no keys, no sort, no probe;
5. **tail part** — one batch-local join: the tails of the batch's
   *distinct sources* are gathered once and packed as int32 keys
   ``row * n + pivot`` (``row`` numbering the sources), the target
   tails are keyed the same way and matched through a 4 MB
   direct-address table of entry positions, or by ``np.searchsorted``
   when the batch is too small or too spread out to pay for walking
   the table.  The answer is the smaller of the two parts.

**Scalar reads of a v3 store.**  A v3 label must be decoded before any
join, and the cache holds it decoded, so ``FlatLabelStore.query`` on a
v3 store answers from its rows (:meth:`_View.query`): the pendant
mapping below, the hub part ``min(H_out[s] + H_in[t])`` over two table
rows, and the two tails joined by a v2 query's own dict probe
(:func:`~repro.core.flatstore.probe_min_distance`).  A v2 store keeps
its in-place probe: numpy's per-call cost on the hub reduce is more
than a v2 label's whole dict probe.

Stages 3-5 are the *grouped* shape.  A batch below
:data:`_PAIRWISE_BELOW` pairs, where sorting and deduping cost more
than they save, takes the **pairwise** shape instead: no orientation,
sort or dedupe; the hub part is one gather per side over the batch,
and both ends' tails are keyed per pair as ``pair * n + pivot`` (the
source keys come out sorted, because a tail keeps its pivot order),
matched with ``np.searchsorted`` and reduced into their pairs.
Everything else — the range check, the pendant mapping below, the
``s == t`` mask, the row cache and its lock — is shared.

**Pivot space.**  Rows, tails and hub columns hold pivots as the
file stores them: vertex ids, or rank positions on a rank-space v3
store (:mod:`repro.core.quantized`).  A join only asks whether two
labels share a pivot, so distances never need the map back.  Staged
overlay rows hold vertex ids: :meth:`_View._gather` and
:meth:`_View._fill_row` move them to positions and re-sort them
(every tail stays sorted, which the pairwise join's source keys rely
on), and :func:`label_entries`, the one kernel read that hands
pivots out, maps them back to ids.

**Pendants.**  A store built with its pendant vertices peeled
(:mod:`repro.core.flatstore`) keeps an empty row for each and answers
it through its neighbour: :func:`batch_eval_arrays` maps both columns
through the view's ``parent`` / ``hang`` right after the range check,
masks ``parent[s] == parent[t]`` (siblings, a pendant and its own
parent) the way it masks ``s == t``, evaluates the core pairs, adds the
two hangs and restores ``0.0`` where ``s == t`` — one place, so every
caller inherits it, and the table rows and tails of pendants are never
touched.  The view owns a mutable copy of the two columns (a sharded
store's slices concatenated) because updates un-peel: a vertex with a
staged label is core, and :meth:`_View.invalidate` writes ``parent[v]
= v, hang[v] = 0`` for every vertex of the delta.  That is only sound
because ``DynamicHopDoublingIndex.insert_edges`` puts both endpoints of
every new edge in the delta — see :mod:`repro.core.dynamic`.

A :class:`~repro.oracle.sharding.ShardedLabelStore` has one view over
its global vertex ids whose fill routes each missing vertex to the
shard that owns it, so every store takes the same path.  Staged
updates (``apply_updates``) mark the touched rows unfilled and the
next batch refills only those; their old tails stay in the arena as
garbage, and when the arena is full the cache is emptied and refilled
on demand.  One lock per view is held for a whole evaluation, a whole
scalar read and by invalidation — the serve tier evaluates one batch
at a time, in its own process.

:func:`stats` counts what each call did — pairs in, distinct pairs
evaluated, rows filled, tail entries gathered, source rows keyed and
which join ran — and :func:`view_info` describes one store's cache, so
the sharing a workload contains can be read off a running server
(``{"op": "stats"}``) rather than guessed.

Answers are **bit-identical** to the v2 store's in-place probe in
:mod:`repro.core.flatstore`, for a batch and for a v3 scalar read
alike: a table cell is an exact small integer, the tail sums are the
same float64 sums, and the minimum of a set of floats does not depend
on evaluation order (``benchmarks/test_query_throughput.py`` enforces
the equality, a >= 3x batch throughput floor and a >= 0.7x floor for
warm v3 scalar reads against v2 ones;
``tests/oracle/test_scalar_rows.py`` holds v3 scalar reads to v2 and
to Dijkstra).
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_right
from typing import Sequence

import numpy as np

from repro.core.flatstore import FlatLabelStore, _as_np, probe_min_distance
from repro.core.hubs import MAX_CELL, NO_ENTRY, hub_min, misfit
from repro.core.labels import INF
from repro.core.quantized import _expand

#: Labels sampled to choose the hub columns, and the share of them a
#: pivot must appear in (more than 1 in _HUB_SHARE) to get one: a
#: column costs ~1 ns per pair, a joined tail entry ~40 ns.
_SAMPLE_LABELS = 256
_HUB_SHARE = 32
_MAX_HUB_COLUMNS = 1024

#: Batches of fewer pairs than this are joined pair by pair
#: (:func:`_pairwise`); larger ones are grouped.  Warm kernel calls,
#: pairwise / grouped in µs (2-vCPU x86 box, one pinned core), on
#: uniform pairs and on Zipf(1.2) endpoints:
#:
#:   pairs              16        256        512        1,024      2,048
#:   BA-10k v2          55 / 106  178 / 242  327 / 401  634 / 696  1250 / 1303
#:     Zipf             52 / 106  168 / 222  308 / 308  561 / 501  1091 / 841
#:   GLP-70k v3         57 / 108  185 / 235  295 / 392  554 / 665  1092 / 1189
#:     Zipf             56 / 113  162 / 213  290 / 289  506 / 465   935 / 759
#:
#: Repeated pairs are what the grouped shape evaluates once; from
#: 1,024 pairs on that wins it the Zipf batches.
_PAIRWISE_BELOW = 1024

#: Largest packed key a join may hold as int32.
_INT32_MAX = 0x7FFFFFFF

#: Cells in the batch-local join's probe table (4 MB of int32), and
#: what the table costs in units of one binary-searched entry: each
#: block of rows walked about 768 entries' worth, zeroing the table
#: about 20 blocks' worth.  Below that the compact searchsorted wins.
_LOCAL_TABLE_ELEMS = 1 << 20
_TABLE_BLOCK_ENTRIES = 768
_TABLE_SETUP_BLOCKS = 20

_STATS_LOCK = threading.Lock()
_STATS = {
    "pairs": 0,
    "distinct_pairs": 0,
    "rows_filled": 0,
    "source_rows": 0,
    "gathered_entries": 0,
    "joins": {"local_table": 0, "local_sorted": 0, "pairwise": 0},
}

#: Serialises view creation.
_VIEWS_LOCK = threading.Lock()


def _tally(pairs=0, distinct=0, filled=0, rows=0, gathered=0, join=None):
    """Add one evaluation's work to the process-wide counters."""
    with _STATS_LOCK:
        _STATS["pairs"] += pairs
        _STATS["distinct_pairs"] += distinct
        _STATS["rows_filled"] += filled
        _STATS["source_rows"] += rows
        _STATS["gathered_entries"] += gathered
        if join is not None:
            _STATS["joins"][join] += 1


def stats() -> dict:
    """Snapshot of what the kernel has done in this process so far.

    ``pairs`` counts the ``s != t`` pairs handed to the evaluation,
    ``distinct_pairs`` how many of them were evaluated after
    orientation and dedupe, ``rows_filled`` the label rows gathered
    and split into the cache (a row counts again when an update or an
    arena reset makes it be refilled), ``gathered_entries`` the
    target-side *tail* entries the join pulled (a pair the hub table
    answers alone gathers none), ``source_rows`` the distinct sources
    whose tails a join gathered and keyed, and ``joins`` how many
    evaluations each join kind served.  The ``pairwise`` shape counts
    every evaluation it serves, and it neither orients nor dedupes:
    there ``distinct_pairs`` equals ``pairs`` and every pair keys its
    own source row.  Counters only ever grow; difference two
    snapshots to meter a stretch of work.
    """
    with _STATS_LOCK:
        return {**_STATS, "joins": dict(_STATS["joins"])}


def supports(store) -> bool:
    """Whether ``store`` exposes arrays the kernel can consume.

    True for the CSR-backed stores — :class:`FlatLabelStore` in
    either encoding, and a
    :class:`~repro.oracle.sharding.ShardedLabelStore` over them.
    Tuple-list indexes have no arrays to vectorize over.
    """
    if isinstance(store, FlatLabelStore):
        return True
    from repro.oracle.sharding import ShardedLabelStore

    if isinstance(store, ShardedLabelStore):
        return all(isinstance(s, FlatLabelStore) for s in store.shards)
    return False


def _run_starts(changes):
    """Mask of run starts, from ``changes = x[1:] != x[:-1]`` of sorted x."""
    return np.concatenate((np.ones(1, dtype=bool), changes))


class _Rows:
    """The row cache of one label side (see the module docstring).

    ``filled[v]`` says whether ``table[v]`` and the tail
    ``tail_piv/tail_dist[tail_start[v] : tail_start[v] + tail_len[v]]``
    hold vertex ``v``'s label; ``staged[v]`` whether that label lives
    in the store's overlay instead of its base arrays.  ``used`` is
    the arena's fill mark.
    """

    __slots__ = (
        "filled", "staged", "table", "tail_start", "tail_len",
        "tail_piv", "tail_dist", "used",
    )

    def __init__(self, n: int, capacity: int) -> None:
        self.filled = np.zeros(n, dtype=bool)
        self.staged = np.zeros(n, dtype=bool)
        self.table = None  # allocated once the hub columns are chosen
        self.tail_start = np.empty(n, dtype=np.int64)
        self.tail_len = np.empty(n, dtype=np.int64)
        self.used = 0
        self.reserve(capacity)

    def reserve(self, capacity: int) -> None:
        """Replace the arena by an untouched one of ``capacity`` entries."""
        self.tail_piv = np.empty(capacity, dtype=np.int32)
        self.tail_dist = np.empty(capacity, dtype=np.float64)


class _View:
    """The kernel's lazily filled row cache over one store.

    ``parts`` lists, for the store itself or for each shard of a
    sharded one (``los`` holding their first global vertices), the
    flat store and its :class:`~repro.core.quantized.LabelColumns`
    per side.  ``out`` / ``inn`` are the two sides' :class:`_Rows`
    (one object on an undirected store, whose sides alias); ``hubs``
    are the column pivots in column order and ``col_of[p]`` is pivot
    ``p``'s column, or -1.
    """

    def __init__(self, store) -> None:
        self.lock = threading.Lock()
        shards = getattr(store, "shards", [store])
        self.store = store
        self.n = store.n
        self.directed = store.directed
        self.los = np.asarray(getattr(store, "_los", [0]), dtype=np.int64)
        self.lo_list = self.los.tolist()
        self.parts = [(shard, shard._label_columns()) for shard in shards]
        self.arena_resets = 0
        self.out = self._new_rows(0)
        self.inn = self._new_rows(1) if self.directed else self.out
        self._map_pendants(shards)
        self._choose_hubs()

    def _map_pendants(self, shards) -> None:
        """The view's own ``parent`` / ``hang`` columns over global ids
        (None on a store without pendants): copies, because an update
        un-peels the vertices it stages (:meth:`invalidate`)."""
        self.parent = self.hang = None
        if all(shard.hang is None for shard in shards):
            return
        parent, hang = [], []
        for lo, shard in zip(self.los.tolist(), shards):
            if shard.hang is None:
                parent.append(np.arange(lo, lo + shard.n, dtype=np.int64))
                hang.append(np.zeros(shard.n))
            else:
                parent.append(_as_np(shard.parent).astype(np.int64))
                hang.append(_as_np(shard.hang).astype(np.float64))
        parent, hang = np.concatenate(parent), np.concatenate(hang)
        staged = np.flatnonzero(self.out.staged)
        parent[staged] = staged
        hang[staged] = 0.0
        if not (
            (parent >= 0).all() and (parent < self.n).all()
            and (hang >= 0).all() and not hang[parent].any()
        ):
            raise ValueError(
                "corrupt pendant section: a parent out of range or itself "
                "a pendant, or a negative hang"
            )
        self.parent, self.hang = parent, hang

    def _new_rows(self, side: int) -> _Rows:
        """An empty cache for one side, its arena as large as the side."""
        # Stored entries, and room for an implied self entry per row.
        entries = sum(
            sides[side].pivots.size + sides[side].offsets.size
            for _, sides in self.parts
        )
        rows = _Rows(self.n, max(entries, 1))
        for lo, (shard, _) in zip(self.los.tolist(), self.parts):
            overlay = shard._delta_in if side else shard._delta_out
            if overlay:
                local = np.fromiter(overlay, np.int64, len(overlay))
                rows.staged[local + lo] = True
        return rows

    # -- hub columns ---------------------------------------------------------
    def _choose_hubs(self) -> None:
        """Give a column to every pivot common in a sample of labels.

        The sample is evenly spaced over the vertices that hold a
        label: a pendant's row is empty.
        """
        core = (
            np.arange(self.n, dtype=np.int64) if self.hang is None
            else np.flatnonzero(self.hang == 0)
        )
        sample = core[:: max(1, -(-core.size // _SAMPLE_LABELS))]
        sampled = [self._gather(0, sample)[1]]
        if self.directed:
            sampled.append(self._gather(1, sample)[1])
        pivots, counts = np.unique(np.concatenate(sampled), return_counts=True)
        common = counts * _HUB_SHARE > sample.size * len(sampled)
        pivots, counts = pivots[common], counts[common]
        if pivots.size > _MAX_HUB_COLUMNS:
            pivots = np.sort(pivots[np.argsort(-counts)[:_MAX_HUB_COLUMNS]])
        self._set_hubs(pivots)

    def _set_hubs(self, pivots) -> None:
        """Install ``pivots`` as the table's columns; empties the cache."""
        self._reset(self.out)
        self._reset(self.inn)
        self.hubs = pivots
        self.col_of = np.full(self.n, -1, dtype=np.int32)
        self.col_of[pivots] = np.arange(pivots.size, dtype=np.int32)
        self.out.table = np.empty((self.n, pivots.size), dtype=np.uint8)
        if self.directed:
            self.inn.table = np.empty((self.n, pivots.size), dtype=np.uint8)

    @staticmethod
    def _reset(rows: _Rows) -> None:
        """Forget every filled row of one side and empty its arena."""
        rows.filled[:] = False
        rows.used = 0

    # -- filling rows --------------------------------------------------------
    def _gather(self, side: int, V):
        """The labels of the distinct, ascending global vertices ``V``.

        Returns ``(verts, pivots, dists, lens)``: the vertices in the
        order their labels were gathered, every entry's absolute pivot
        (int64, in the file's pivot space) and distance (float64) laid
        end to end, and the label lengths.  Base arrays are gathered
        vectorized per shard; labels with a staged update come from
        the overlay.
        """
        rows = self.inn if side else self.out
        verts, pivots, dists, lens = [], [], [], []
        cuts = np.searchsorted(V, self.los).tolist() + [V.size]
        for k, (shard, sides) in enumerate(self.parts):
            local = V[cuts[k] : cuts[k + 1]]
            if not local.size:
                continue
            lo = int(self.los[k])
            staged = rows.staged[local]
            if staged.any():
                overlay = shard._delta_in if side else shard._delta_out
                piv, dst = array("i"), array("d")
                size = []
                for v in (local[staged] - lo).tolist():
                    p, d = overlay[v]
                    piv.extend(p)
                    dst.extend(d)
                    size.append(len(p))
                piv = np.frombuffer(piv, dtype=np.int32).astype(np.int64)
                dst = np.frombuffer(dst, dtype=np.float64)
                size = np.asarray(size, dtype=np.int64)
                if shard.ranked:  # staged rows hold vertex ids
                    piv, dst = shard.rank_space().positions(piv, dst, size)
                verts.append(local[staged])
                pivots.append(piv)
                dists.append(dst)
                lens.append(size)
                local = local[~staged]
                if not local.size:
                    continue
            piv, dst, size = sides[side].gather(local - lo)
            verts.append(local)
            pivots.append(piv)
            dists.append(dst)
            lens.append(size)
        if len(verts) == 1:
            return verts[0], pivots[0], dists[0], lens[0]
        if not verts:  # nothing asked for (a store without vertices)
            none = np.empty(0, dtype=np.int64)
            return none, none, np.empty(0), none
        return tuple(map(np.concatenate, (verts, pivots, dists, lens)))

    def _fill(self, side: int, missing) -> bool:
        """Fill the rows of the distinct vertices ``missing``.

        Returns False — with the cache emptied, for the caller to
        start over — when a column had to be retired or the arena was
        full.
        """
        rows = self.inn if side else self.out
        verts, piv, dist, lens = self._gather(side, missing)
        col = self.col_of[piv]
        # Integer positions: a boolean mask costs a pass per use.
        hub, tail = np.flatnonzero(col >= 0), np.flatnonzero(col < 0)
        cell = dist[hub]
        bad = misfit(cell)
        if np.count_nonzero(bad):
            self._retire(col[hub[bad]])
            return False
        owner = np.repeat(np.arange(verts.size), lens)
        tail_len = np.bincount(owner[tail], minlength=verts.size)
        need = tail.size
        if rows.used + need > rows.tail_piv.size:
            self._overflow(rows, need)
            return False
        rows.table[verts] = NO_ENTRY
        cells = rows.table.reshape(-1)
        cells[verts[owner[hub]] * self.hubs.size + col[hub]] = cell
        end = rows.used + need
        rows.tail_piv[rows.used : end] = piv[tail]
        rows.tail_dist[rows.used : end] = dist[tail]
        rows.tail_start[verts] = rows.used + np.cumsum(tail_len) - tail_len
        rows.tail_len[verts] = tail_len
        rows.used = end
        rows.filled[verts] = True
        _tally(filled=verts.size)
        return True

    def _fill_row(self, side: int, v: int) -> bool:
        """:meth:`_fill` for the one global vertex ``v``.

        The scalar read's fill: the label is sliced straight out of
        its shard's columns (or the overlay) — no ``los`` search,
        dedupe or slice expansion — and split by the same column and
        arena rules.  The two rows of one pair share an undirected
        store's arena, so a full arena also grows when ``v``'s tail
        alone would take more than half of it: after a reset the
        pair's two rows always fit together.
        """
        rows = self.inn if side else self.out
        k = bisect_right(self.lo_list, v) - 1
        shard, sides = self.parts[k]
        local = v - self.lo_list[k]
        own = -1
        if rows.staged[v]:
            p, d = (shard._delta_in if side else shard._delta_out)[local]
            piv, dist = np.frombuffer(p, dtype=np.int32), np.frombuffer(d)
            if shard.ranked:  # staged rows hold vertex ids
                piv, dist = shard.rank_space().positions(piv, dist)
        else:
            piv, dist, own = sides[side].row(local)
        col = self.col_of.take(piv)
        hub = col >= 0
        cols, cell = col[hub], dist[hub]
        # Quantized distances are whole: their maximum settles them.
        if cell.dtype.kind != "u" or max(cell.tolist(), default=0) > MAX_CELL:
            bad = misfit(cell)
            if np.count_nonzero(bad):
                self._retire(cols[bad])
                return False
        # An implied self entry (0 fits any column) goes in last.
        own_col = -1 if own < 0 else self.col_of.item(own)
        stored = piv.size - cell.size
        need = stored + (own >= 0 and own_col < 0)
        start = rows.used
        if start + need > rows.tail_piv.size:
            self._overflow(rows, 2 * need)
            return False
        row = rows.table[v]
        row.fill(NO_ENTRY)
        row.put(cols, cell)
        if own_col >= 0:
            row[own_col] = 0
        if need:
            tail = ~hub
            rows.used += need
            rows.tail_piv[start : start + stored] = piv[tail]
            rows.tail_dist[start : start + stored] = dist[tail]
            if need > stored:
                rows.tail_piv[start + stored] = own
                rows.tail_dist[start + stored] = 0.0
        rows.tail_start[v] = start
        rows.tail_len[v] = need
        rows.filled[v] = True
        with _STATS_LOCK:  # _tally(filled=1) without its keywords
            _STATS["rows_filled"] += 1
        return True

    def _retire(self, columns) -> None:
        """Retire the hub ``columns``; empties the cache.

        A column pivot's entry must be in the table on both ends of a
        pair or on neither, so a column that cannot hold what a label
        needs of it goes for every row.
        """
        keep = np.ones(self.hubs.size, dtype=bool)
        keep[columns] = False
        self._set_hubs(self.hubs[keep])

    def _overflow(self, rows: _Rows, need: int) -> None:
        """Empty the cache of a full arena, and grow the arena when
        ``need`` entries would not fit even an empty one."""
        self._reset(rows)
        self.arena_resets += 1
        if need > rows.tail_piv.size:
            rows.reserve(2 * need)

    def query(self, s: int, t: int) -> float:
        """``dist(s, t)`` for one pair of global ids in range, ``s != t``.

        The scalar read: pendant ends are mapped through ``parent`` /
        ``hang``, the one or two rows the pair misses are filled one
        by one, the hub part is ``min(H_out[s] + H_in[t])`` and the
        two tails are joined by the dict probe of
        :func:`~repro.core.flatstore.probe_min_distance` (the shorter
        one zipped into the dict), all under the view's lock.
        Bit-identical to the batch, for the same reasons.
        """
        with self.lock:
            hs = ht = 0.0
            if self.hang is not None:
                hs, ht = self.hang[s], self.hang[t]
                if hs or ht:
                    s, t = int(self.parent[s]), int(self.parent[t])
                    if s == t:
                        return float(hs + ht)
            out, inn = self.out, self.inn
            side = int(self.directed)  # t's side: out aliases inn
            # A fill that had to empty the cache starts the pair over.
            while not (
                (out.filled[s] or self._fill_row(0, s))
                and (inn.filled[t] or self._fill_row(side, t))
            ):
                pass
            best = INF
            if self.hubs.size:
                both = out.table[s] + inn.table[t]
                cell = both.item(both.argmin())
                if cell < NO_ENTRY:
                    best = float(cell)
            a, b = out.tail_start[s], inn.tail_start[t]
            la, lb = out.tail_len[s], inn.tail_len[t]
            if la and lb:
                tail = probe_min_distance(
                    out.tail_piv[a : a + la].tolist(),
                    out.tail_dist[a : a + la].tolist(), 0, la,
                    inn.tail_piv[b : b + lb].tolist(),
                    inn.tail_dist[b : b + lb].tolist(), 0, lb,
                )
                if tail < best:
                    best = tail
        if hs or ht:
            return float(hs + best + ht)
        return best

    def ensure_rows(self, S, T) -> None:
        """Fill whatever rows the pairs ``(S[k], T[k])`` still miss."""
        # Both ends of an undirected pair read one side: ask for them
        # together, or a full arena would bounce between the two.
        wanted = (
            ((0, S), (1, T)) if self.directed
            else ((0, np.concatenate((S, T))),)
        )
        # A fill that had to empty the cache starts the round over.
        while not all(self._resident(side, V) for side, V in wanted):
            pass

    def _resident(self, side: int, V) -> bool:
        """Make the rows of ``V`` resident; False if the cache was emptied."""
        rows = self.inn if side else self.out
        missing = V[~rows.filled[V]]
        return not missing.size or self._fill(side, np.unique(missing))

    def invalidate(self, delta) -> None:
        """Forget the rows a just-staged ``LabelDelta`` replaces.

        The delta's vertex ids are the view's own: global ones on a
        sharded store.  A vertex with a staged label is core from now
        on, whatever it hung from.
        """
        sides = [(self.out, delta.out)]
        if self.directed:
            sides.append((self.inn, delta.inn))
        with self.lock:
            for rows, labels in sides:
                if labels:
                    vertices = np.fromiter(labels, np.int64, len(labels))
                    rows.filled[vertices] = False
                    rows.staged[vertices] = True
                    if self.hang is not None:
                        self.parent[vertices] = vertices
                        self.hang[vertices] = 0.0

    def info(self) -> dict:
        """The cache's size figures, read without the lock: a monitor
        never waits for a batch, and may catch one half counted."""
        sides = (self.out, self.inn) if self.directed else (self.out,)
        pendants = (
            0 if self.hang is None else int(np.count_nonzero(self.hang))
        )
        return {
            "pendants": pendants,
            "core_vertices": self.n - pendants,
            "hub_columns": int(self.hubs.size),
            "rows_resident": sum(
                int(np.count_nonzero(rows.filled)) for rows in sides
            ),
            "tail_entries": sum(rows.used for rows in sides),
            "arena_resets": self.arena_resets,
        }


def row_cache(store) -> _View:
    """The row cache of ``store``, created on first use."""
    view = store._view
    if view is None:
        with _VIEWS_LOCK:
            view = store._view
            if view is None:
                view = store._view = _View(store)
    return view


def ensure_sides(store) -> None:
    """Create the row cache of ``store`` now: choose its hub columns.

    Lets a caller pay for the choice before its first batch (a timed
    region, a request).  No label is read beyond the sample.  No-op
    when :func:`supports` is false.
    """
    if supports(store):
        row_cache(store)


def view_info(store) -> dict | None:
    """What ``store``'s row cache holds (None before the first batch).

    ``pendants`` counts the vertices answered through their neighbour
    and ``core_vertices`` the ones that own a row; ``hub_columns`` is
    the dense table's width, ``rows_resident`` the
    rows filled right now (both sides of a directed store),
    ``tail_entries`` the arena entries in use including garbage left
    by updates, and ``arena_resets`` how often a full arena emptied
    the cache.
    """
    view = getattr(store, "_view", None)
    return None if view is None else view.info()


def label_entries(store):
    """Every non-trivial label entry of ``store`` as three columns.

    ``(a, b, dist)``: entry ``k`` says a path ``a[k] -> b[k]`` of that
    length exists — ``(owner, pivot)`` for an out-label entry,
    ``(pivot, owner)`` for an in-label one, pivots as vertex ids in
    either pivot space.  Staged updates are read from the overlay and
    a pendant's entries are its parent's moved out by ``hang`` (one
    more gather); the trivial ``(v, 0)`` entries are left out.  How an
    index is adopted for updates without a Python object per entry.
    ``store`` must satisfy :func:`supports`.
    """
    view = row_cache(store)
    everyone = np.arange(view.n, dtype=np.int64)
    columns = []
    with view.lock:
        for side in range(2 if view.directed else 1):
            verts, piv, dist, lens = view._gather(side, everyone)
            if store.ranked:  # no order to keep: map, don't re-sort
                piv = store.rank_space().vertex[piv]
            owner = np.repeat(verts, lens)
            if view.hang is not None:
                start = np.empty(view.n, dtype=np.int64)
                start[verts] = np.cumsum(lens) - lens
                size = np.empty(view.n, dtype=np.int64)
                size[verts] = lens
                pendant = np.flatnonzero(view.hang)
                under = view.parent[pendant]
                idx, _ = _expand(start[under], size[under])
                owner = np.concatenate((owner, np.repeat(pendant, size[under])))
                piv = np.concatenate((piv, piv[idx]))
                dist = np.concatenate(
                    (dist, np.repeat(view.hang[pendant], size[under]) + dist[idx])
                )
            real = owner != piv
            a, b = (piv, owner) if side else (owner, piv)
            columns.append((a[real], b[real], dist[real]))
    return tuple(map(np.concatenate, zip(*columns)))


def _match_sorted(s_keys, t_keys):
    """Positions of ``t_keys`` found in sorted ``s_keys``: (where, at)."""
    pos = s_keys.searchsorted(t_keys)
    np.minimum(pos, s_keys.size - 1, out=pos)
    hit = (s_keys[pos] == t_keys).nonzero()[0]
    return hit, pos[hit]


def _match_table(s_keys, t_keys, s_cuts, t_cuts, cells):
    """:func:`_match_sorted` through a direct-address probe table.

    Block ``k`` of the key space (``cells`` consecutive keys) owns the
    entries ``s_cuts[k]:s_cuts[k + 1]`` and ``t_cuts[k]:t_cuts[k + 1]``.
    The table maps a key's offset within the block to its position in
    ``s_keys``; a cell left over from an earlier block (or never
    written) points at some other key and fails the equality check, so
    the table is never cleared and needs no epoch array.
    """
    table = np.zeros(cells, dtype=np.int32)
    hits, found = [], []
    for k in range(len(s_cuts) - 1):
        e0, e1 = t_cuts[k], t_cuts[k + 1]
        s0, s1 = s_cuts[k], s_cuts[k + 1]
        if e0 == e1 or s0 == s1:
            continue
        shift = np.int32(k * cells)
        table[s_keys[s0:s1] - shift] = np.arange(s0, s1, dtype=np.int32)
        want = t_keys[e0:e1]
        at = table[want - shift]
        hit = (s_keys[at] == want).nonzero()[0]
        hits.append(hit + e0)
        found.append(at[hit])
    if not hits:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32)
    return np.concatenate(hits), np.concatenate(found)


def _join_tails(out: _Rows, inn: _Rows, base: int, S, T, res):
    """Lower ``res[k]`` to the best tail sum of pair ``(S[k], T[k])``.

    The pairs are sorted by source.  The tails of the distinct sources
    are gathered once and packed as int32 keys ``row * base + pivot``
    (``row`` numbers the distinct sources in order) — a few hundred KB
    that stay in cache however large the index — and the target tails,
    keyed by their pair's row, are matched against them.  Rows are
    taken in chunks whose packed range fits int32.  Returns the join
    kind used, the number of rows and the target entries gathered.
    """
    new_source = _run_starts(S[1:] != S[:-1])
    rows = S[new_source]
    row_of = np.cumsum(new_source) - 1
    slens = out.tail_len[rows]
    lens = inn.tail_len[T]
    sidx, sseg0 = _expand(out.tail_start[rows], slens)
    idx, seg0 = _expand(inn.tail_start[T], lens)
    if not (sidx.size and idx.size):
        return None, rows.size, idx.size
    s_starts = np.append(sseg0, sidx.size)
    t_starts = np.append(seg0, idx.size)
    pair_cuts = np.append(np.flatnonzero(new_source), len(S))
    block = _LOCAL_TABLE_ELEMS // base
    use_table = block > 0 and idx.size >= _TABLE_BLOCK_ENTRIES * (
        -(-rows.size // block) + _TABLE_SETUP_BLOCKS
    )
    step = max(_INT32_MAX // base, 1)
    for r0 in range(0, rows.size, step):
        r1 = min(r0 + step, rows.size)
        p0, p1 = pair_cuts[r0], pair_cuts[r1]
        s0, s1 = s_starts[r0], s_starts[r1]
        e0, e1 = t_starts[p0], t_starts[p1]
        if e0 == e1 or s0 == s1:
            continue
        s_at = sidx[s0:s1]
        t_at = idx[e0:e1]
        s_keys = out.tail_piv[s_at] + np.repeat(
            np.arange(r1 - r0, dtype=np.int32) * np.int32(base),
            slens[r0:r1],
        )
        t_keys = inn.tail_piv[t_at] + np.repeat(
            ((row_of[p0:p1] - r0) * base).astype(np.int32), lens[p0:p1]
        )
        if use_table:
            cut = np.arange(r0, r1 + block, block)
            cut[-1] = r1
            hit, pos = _match_table(
                s_keys, t_keys,
                (s_starts[cut] - s0).tolist(),
                (t_starts[pair_cuts[cut]] - e0).tolist(),
                block * base,
            )
        else:
            hit, pos = _match_sorted(s_keys, t_keys)
        # Matches are few next to the entries gathered: reduce them
        # alone, each into the pair that owns its target entry.
        sums = out.tail_dist[s_at[pos]] + inn.tail_dist[t_at[hit]]
        pair = np.searchsorted(t_starts, hit + e0, side="right") - 1
        np.minimum.at(res, pair, sums)
    return (
        "local_table" if use_table else "local_sorted", rows.size, idx.size
    )


def _pairwise(view: _View, S, T):
    """Distances of the pairs ``(S[k], T[k])`` as they stand.

    The small-batch shape: no orientation, sort or dedupe.  The hub
    part is one gather per side over the whole batch; the tail part
    keys both ends' tails as ``pair * n + pivot`` — the source keys
    come out sorted, because each tail keeps its pivot order — and
    reduces the matches into their pairs.  Returns the distances and
    the target entries gathered.  It calls array methods (``a.take``,
    ``a.repeat``), not their ``np.`` wrappers: at this size the
    wrappers' Python dispatch costs about as much as the work.
    """
    out, inn, base = view.out, view.inn, view.n
    if view.hubs.size:
        best = (out.table.take(S, axis=0) + inn.table.take(T, axis=0)).min(axis=1)
        res = np.where(best < NO_ENTRY, best, np.inf)
    else:
        res = np.full(len(S), np.inf)
    # Both ends' tails in one expansion, the sources' slices first.
    lens = np.concatenate((out.tail_len[S], inn.tail_len[T]))
    idx, seg0 = _expand(
        np.concatenate((out.tail_start[S], inn.tail_start[T])), lens
    )
    slens, tlens = lens[: len(S)], lens[len(S) :]
    sidx, tidx = idx[: seg0[len(S)]], idx[seg0[len(S)] :]
    if sidx.size and tidx.size:
        # int32 keys while they fit: half the bytes to search.
        dtype = np.int64 if len(S) * base > _INT32_MAX else np.int32
        keyed = np.arange(0, len(S) * base, base, dtype=dtype)
        owner = keyed.repeat(tlens)
        hit, pos = _match_sorted(
            keyed.repeat(slens) + out.tail_piv[sidx],
            owner + inn.tail_piv[tidx],
        )
        sums = out.tail_dist[sidx[pos]] + inn.tail_dist[tidx[hit]]
        np.minimum.at(res, owner[hit] // base, sums)
    return res, tidx.size


def _eval(view: _View, S, T):
    """Distances for the global pairs ``(S[k], T[k])``, none with s == t.

    A batch below :data:`_PAIRWISE_BELOW` pairs is joined pair by pair
    (:func:`_pairwise`).  A larger one is grouped: on an undirected
    store pairs are flipped so the shorter tail is the expanded one —
    valid because the two sides alias and ``dist`` is symmetric; the
    scalar dict probe plays the same trick, and both
    orientations form the identical set of ``d1 + d2`` sums.  Ties go
    by vertex id, so a mirrored ``(t, s)`` lands on ``(s, t)`` and the
    dedupe below evaluates the two once.
    """
    n = view.n
    with view.lock:
        view.ensure_rows(S, T)
        if len(S) < _PAIRWISE_BELOW:
            res, gathered = _pairwise(view, S, T)
            _tally(len(S), len(S), 0, len(S), gathered, "pairwise")
            return res
        out, inn = view.out, view.inn
        if not view.directed:
            a, b = out.tail_len[S], out.tail_len[T]
            flip = (b > a) | ((b == a) & (T > S))
            S, T = np.where(flip, T, S), np.where(flip, S, T)
        # One sort by the packed pair groups the batch by source *and*
        # puts equal pairs side by side.
        pair = S * n + T
        order = np.argsort(pair)
        pair = pair[order]
        changes = pair[1:] != pair[:-1]
        kept, slot = order, None
        if not changes.all():
            first = _run_starts(changes)
            kept = order[first]
            slot = np.cumsum(first) - 1  # sorted position -> distinct pair
        S = S[kept]
        T = T[kept]

        res = np.full(len(S), np.inf)
        if view.hubs.size:
            best = hub_min(out.table, inn.table, S, T)
            shared = best < NO_ENTRY
            res[shared] = best[shared]
        kind, rows, gathered = _join_tails(out, inn, n, S, T, res)
    _tally(len(order), len(S), 0, rows, gathered, kind)
    answer = np.empty(len(order))
    answer[order] = res if slot is None else res[slot]
    return answer


def first_outside(S, T, n: int) -> int | None:
    """Index of the first pair of int64 columns with an id outside ``[0, n)``."""
    # Read as unsigned, a negative id is too large as well: two maxima
    # find out whether anything is out of range, the mask says where.
    top = np.maximum.reduce
    if top(S.view(np.uint64), initial=0) < n and top(T.view(np.uint64), initial=0) < n:
        return None
    return int(np.flatnonzero((S < 0) | (S >= n) | (T < 0) | (T >= n))[0])


def batch_eval_arrays(store, S, T):
    """Array-in/array-out evaluation (the batch path's entry).

    The pair columns arrive as int64 numpy arrays — a
    :class:`~repro.oracle.batch.PairColumns` block's — and the
    distances return as one float64 array.  Columns of any other
    integer type are widened first (the packed keys below need 64
    bits); they must be 1-D and of equal length.
    """
    S = np.asarray(S, dtype=np.int64)
    T = np.asarray(T, dtype=np.int64)
    if S.ndim != 1 or S.shape != T.shape:
        raise ValueError(
            f"pair columns must be 1-D and equal length, got shapes "
            f"{S.shape} and {T.shape}"
        )
    n = store.n
    k = first_outside(S, T, n)
    if k is not None:
        raise IndexError(
            f"query ({int(S[k])}, {int(T[k])}) out of range [0, {n})"
        )
    view = row_cache(store)
    if view.hang is None:
        return _eval_distinct_ends(view, S, T)
    # dist(s, t) = hang[s] + dist(parent[s], parent[t]) + hang[t]: two
    # pendants of one parent, or a pendant and its parent, meet at the
    # parent the way s == t meets at 0.0.
    with view.lock:
        hs, ht = view.hang[S], view.hang[T]
        PS, PT = view.parent[S], view.parent[T]
    res = hs + _eval_distinct_ends(view, PS, PT)
    res += ht
    res[S == T] = 0.0
    return res


def _eval_distinct_ends(view: _View, S, T):
    """:func:`_eval` around the pairs with ``s == t``, which read 0.0."""
    ne = S != T
    if len(S) and ne.all():
        # No s == t pair to answer 0.0 (the usual batch): nothing to
        # mask out and scatter back around.
        return _eval(view, S, T)
    res = np.zeros(len(S), dtype=np.float64)
    if ne.any():
        res[ne] = _eval(view, S[ne], T[ne])
    return res


def batch_eval(
    store, pairs: Sequence[tuple[int, int]]
) -> list[float]:
    """Distances for every pair, in order — the kernel entry point.

    ``store`` must satisfy :func:`supports`.  Bit-identical to calling
    ``store.query`` per pair (``inf`` for unreachable, ``0.0`` for
    ``s == t``); raises ``IndexError`` on out-of-range vertices like
    the scalar paths do, and ``ValueError`` on anything
    :meth:`PairColumns.from_pairs <repro.oracle.batch.PairColumns.from_pairs>`
    refuses.
    """
    from repro.oracle.batch import PairColumns

    if not pairs:
        return []
    columns = PairColumns.from_pairs(pairs)
    return batch_eval_arrays(store, columns.sources, columns.targets).tolist()
