"""The vectorized batch query kernel: one numpy pass per batch.

The scalar batch path answers each pair with a Python loop over two
label slices — fast per query, but interpreter overhead caps a whole
batch at ~10^5 pairs/sec.  This module evaluates an entire batch with
a handful of numpy array operations instead:

1. **side views** (built once per store, reused by every batch) — a
   label side's CSR arrays are already globally sorted by
   (owner, pivot), so while ``owners * base`` fits int32 each side
   gets one flat key array ``owner * base + pivot``; a larger side
   keeps int32 absolute pivot ids instead (the v2 array as it is
   mapped) and is keyed per batch in step 4.  The build is a single
   vectorized pass; v3 stores rebuild their delta-encoded pivot ids
   with one cumulative sum here, which is the only time the compact
   arrays are ever expanded (their distance and offset arrays keep
   serving as-is, memory-mapped);
2. **orient, sort, dedupe** — on undirected stores each pair is
   flipped so the *smaller* label is the one expanded (``dist(s, t)
   == dist(t, s)`` — the same smaller-side trick the scalar dict
   probe uses — which also lands ``(t, s)`` on ``(s, t)`` unless the
   two labels are equally long).  One sort by the packed
   ``(source, target)`` key
   then groups the pairs by source and puts repeats side by side:
   only the distinct pairs go on, and every position reads its
   distinct pair's answer at the end;
3. **gather** — every distinct pair's target-side label slice is
   pulled into one contiguous array with a vectorized ranges trick
   and re-keyed as ``row * base + pivot``, ``row`` being the pair's
   source, turning the per-pair merge join into exact key equality
   against the source side;
4. **join** — against a side that has global keys, either **dense**:
   walk the source vertices in blocks, scatter each block's label
   entries into a cache-resident epoch-stamped table and answer every
   target entry with O(1) gathers (the vectorized twin of the scalar
   path's dict probe), or **sorted**: one ``np.searchsorted`` of the
   gathered keys into the side's key array (when the vertex count
   makes a useful table too large, or the batch too small to amortise
   the scatter).  Against a side past the int32 key range,
   **local**: the label slices of the batch's *distinct sources* are
   gathered once and keyed by their row number in the batch — a few
   hundred KB that stay in cache however large the index — and the
   target keys are matched against them through a 4 MB
   direct-address table of entry positions, or by ``np.searchsorted``
   when the batch is too small or too spread out to pay for walking
   the table;
5. **segment min** — ``np.minimum.reduceat`` reduces the matched
   ``d1 + d2`` sums back to one distance per distinct pair.

:func:`stats` counts what each call did — pairs in, distinct pairs
evaluated, label entries gathered, source rows keyed by a local join,
and which join ran — so the sharing a workload contains can be read
off a running server (``{"op": "stats"}``) rather than guessed.

Answers are **bit-identical** to the scalar helpers in
:mod:`repro.core.flatstore`: the same float64 sums are formed, and the
minimum of a set of floats does not depend on evaluation order
(``benchmarks/test_query_throughput.py`` enforces both the equality
and a >= 3x throughput floor).

The kernel consumes v2 :class:`~repro.core.flatstore.FlatLabelStore`
and v3 :class:`~repro.core.quantized.QuantizedLabelStore` arrays alike
(quantized distances upcast to float64 exactly during the hit
gathers), and a :class:`~repro.oracle.sharding.ShardedLabelStore`
batch is bucketed by (source shard, target shard) and evaluated per
bucket with the same machinery — pivot ids are global, so only the
key base changes.

numpy is optional everywhere else in the query stack; this module
degrades to ``available() == False`` without it and
:func:`repro.oracle.batch.evaluate_batch` falls back to the scalar
path.
"""

from __future__ import annotations

import threading
from typing import Sequence

try:  # numpy is an optional dependency of the serving stack
    import numpy as np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    np = None

from repro.core.flatstore import FlatLabelStore

_DTYPES = {
    "b": "int8", "B": "uint8", "h": "int16", "H": "uint16",
    "i": "int32", "I": "uint32", "l": "int64", "L": "uint64",
    "q": "int64", "Q": "uint64", "f": "float32", "d": "float64",
}

#: Elements in the dense join's scatter table (~6 MB of f64+i32) —
#: sized to stay cache-resident; a DRAM-sized table loses to the
#: binary search.  Rows per block is this divided by the key base;
#: below _MIN_DENSE_BLOCK rows per block (or when the batch is too
#: small to amortise scattering the source side) the searchsorted
#: join takes over.
_DENSE_TABLE_ELEMS = 1 << 19
_MIN_DENSE_BLOCK = 8

#: Largest packed key a side may hold as int32.
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
    "source_rows": 0,
    "gathered_entries": 0,
    "joins": {"dense": 0, "sorted": 0, "local_table": 0, "local_sorted": 0},
}


def _tally(pairs, distinct, rows, gathered, join) -> None:
    """Add one evaluation's work to the process-wide counters."""
    with _STATS_LOCK:
        _STATS["pairs"] += pairs
        _STATS["distinct_pairs"] += distinct
        _STATS["source_rows"] += rows
        _STATS["gathered_entries"] += gathered
        if join is not None:
            _STATS["joins"][join] += 1


def stats() -> dict:
    """Snapshot of what the kernel has done in this process so far.

    ``pairs`` counts the ``s != t`` pairs handed to the join stages
    (per shard bucket on a sharded store), ``distinct_pairs`` how many
    of them were evaluated after orientation and dedupe,
    ``gathered_entries`` the target-side label entries pulled for
    them, ``source_rows`` the distinct sources whose labels a local
    join gathered and keyed (joins against global keys gather none),
    and ``joins`` how many evaluations each join kind served.
    Counters only ever grow; difference two snapshots to meter a
    stretch of work.
    """
    with _STATS_LOCK:
        return {**_STATS, "joins": dict(_STATS["joins"])}


def available() -> bool:
    """Whether the kernel can run at all (numpy importable)."""
    return np is not None


def supports(store) -> bool:
    """Whether ``store`` exposes arrays the kernel can consume.

    True for the CSR-backed stores — :class:`FlatLabelStore`, its
    quantized v3 subclass, and a
    :class:`~repro.oracle.sharding.ShardedLabelStore` over them —
    when numpy is importable.  Tuple-list indexes have no arrays to
    vectorize over.
    """
    if np is None:
        return False
    if isinstance(store, FlatLabelStore):
        return True
    from repro.oracle.sharding import ShardedLabelStore

    if isinstance(store, ShardedLabelStore):
        return all(isinstance(s, FlatLabelStore) for s in store.shards)
    return False


class _Side:
    """Numpy view of one label side, ready for the merge join.

    While the packed range ``n_local * base`` fits int32 the side
    carries ``keys[j] = owner(j) * base + pivot(j)`` for the j-th
    entry of its arrays — globally sorted, so the whole side is one
    join index.  Past that range it carries ``pivots`` (int32 absolute
    ids, a zero-copy view of a v2 store's array) instead and the join
    packs keys per batch (:func:`_join_local`); exactly one of the two
    is set.  ``dists`` stays a zero-copy view of the store's (possibly
    quantized, possibly memory-mapped) distance array.
    """

    __slots__ = ("offsets", "dists", "keys", "pivots", "base")

    def __init__(self, offsets, dists, keys, pivots, base: int) -> None:
        self.offsets = offsets
        self.dists = dists
        self.keys = keys
        self.pivots = pivots
        self.base = base


def _as_np(buf):
    """Zero-copy numpy view of an ``array.array`` or typed memoryview."""
    code = getattr(buf, "typecode", None) or buf.format
    return np.frombuffer(buf, dtype=np.dtype(_DTYPES[code]))


def _build_side(offsets_buf, pivots_buf, dists_buf, delta: bool, base: int):
    """Wrap one side's CSR buffers into a :class:`_Side` view.

    ``delta=True`` decodes v3 per-label pivot deltas to absolute ids
    vectorized (one cumsum + one repeat), so quantized stores feed the
    same join paths without a scalar decode pass.
    """
    offsets = _as_np(offsets_buf).astype(np.int64, copy=False)
    lens = np.diff(offsets)
    piv = _as_np(pivots_buf)
    if delta:
        # v3 stores per-label pivot deltas; absolute[j] is the running
        # sum within j's label: global cumsum minus each label's base.
        run = np.cumsum(piv.astype(np.int64, copy=False))
        seg0 = offsets[:-1]
        label_base = np.where(seg0 > 0, run[seg0 - 1], 0)
        piv = run - np.repeat(label_base, lens)
    piv = piv.astype(np.int32, copy=False)
    dists = _as_np(dists_buf)
    n_local = lens.size
    if n_local * base > _INT32_MAX:
        return _Side(offsets, dists, None, piv, base)
    keys = np.repeat(np.arange(n_local, dtype=np.int32) * base, lens)
    keys += piv
    return _Side(offsets, dists, keys, None, base)


def _sides(store: FlatLabelStore, base: int) -> tuple[_Side, _Side]:
    """The (out, in) views of a flat store, cached on the store.

    ``base`` must exceed every pivot id — the store's own vertex count
    for a standalone store, the *global* vertex count when the store
    serves as one shard (pivot ids are global inside shards).
    """
    cached = store._np
    if cached is not None and cached[0] == base:
        return cached[1], cached[2]
    from repro.core.quantized import QuantizedLabelStore

    src = store
    if store.has_pending_updates:
        # Fold staged updates into fresh arrays once; apply_updates
        # drops this cache, so the fold cost is paid per update batch,
        # not per query batch.  The merged arrays stay alive through
        # the cache tuple's _Side views.
        src = store.merged()
    delta = isinstance(src, QuantizedLabelStore)
    out = _build_side(
        src.out_offsets, src.out_pivots, src.out_dists, delta, base
    )
    if src.directed:
        inn = _build_side(
            src.in_offsets, src.in_pivots, src.in_dists, delta, base
        )
    else:
        inn = out
    store._np = (base, out, inn)
    return out, inn


def ensure_sides(store) -> None:
    """Build (and cache) the join views for ``store`` now.

    Serving frontends call this before forking worker processes: the
    views land on the store (``store._np``) in pages the children then
    inherit copy-on-write, so every worker joins against one physical
    copy of the label arrays instead of rebuilding its own (see
    :mod:`repro.serve.shm`).  A sharded store warms every shard with
    the global key base.  No-op when :func:`supports` is false.
    """
    if not supports(store):
        return
    from repro.oracle.sharding import ShardedLabelStore

    if isinstance(store, ShardedLabelStore):
        for shard in store.shards:
            _sides(shard, store.n)
    else:
        _sides(store, store.n)


def _expand(side: _Side, V):
    """Gather the label slices of vertices ``V`` from ``side``.

    Returns ``(idx, lens, seg0)``: each gathered entry's position in
    the side's arrays, per-vertex slice lengths, and each slice's
    start in the gathered order.
    """
    starts = side.offsets[V]
    lens = side.offsets[V + 1] - starts
    total = int(lens.sum())
    seg0 = np.cumsum(lens) - lens
    # int32 indices halve the memory traffic whenever the side's
    # arrays are small enough to address with them.
    idt = np.int32 if int(side.offsets[-1]) <= _INT32_MAX else np.int64
    idx = np.arange(total, dtype=idt) + np.repeat(
        (starts - seg0).astype(idt, copy=False), lens
    )
    return idx, lens, seg0


def _run_starts(changes):
    """Mask of run starts, from ``changes = x[1:] != x[:-1]`` of sorted x."""
    return np.concatenate((np.ones(1, dtype=bool), changes))


def _eval(out_side: _Side, in_side: _Side, S, T, orient: bool):
    """Distances for pairs ``(S[k], T[k])`` (local ids, no s==t pairs).

    ``orient=True`` (undirected single stores) flips pairs so the
    smaller label is the expanded one — valid because the two sides
    alias and ``dist`` is symmetric; the scalar dict probe plays the
    same trick, and both orientations form the identical set of
    ``d1 + d2`` sums.  It also lands a mirrored ``(t, s)`` on
    ``(s, t)`` (unless their labels are equally long), so the dedupe
    below evaluates the two once.
    """
    base = out_side.base
    if orient:
        off = out_side.offsets
        flip = (off[T + 1] - off[T]) > (off[S + 1] - off[S])
        S, T = np.where(flip, T, S), np.where(flip, S, T)
    # One sort by the packed pair groups the batch by source *and*
    # puts equal pairs side by side.
    pair = S * base + T
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

    idx, lens, seg0 = _expand(in_side, T)
    res = np.full(len(T), np.inf)
    kind = None
    rows = 0
    if idx.size and int(out_side.offsets[-1]):
        if out_side.keys is None:
            sums, kind, rows = _join_local(
                out_side, in_side, S, T, idx, lens, seg0
            )
        else:
            t_keys = _shifted_keys(in_side, idx, lens, S, T)
            block = _DENSE_TABLE_ELEMS // max(base, 1)
            # The dense join scatters every source-side entry once;
            # worth it only when the gathered target side is of
            # comparable size.
            if (
                block >= _MIN_DENSE_BLOCK
                and t_keys.size * 2 >= out_side.keys.size
            ):
                kind = "dense"
                sums = _join_dense(
                    out_side, in_side, S, t_keys, idx, seg0, block
                )
            else:
                kind = "sorted"
                sums = _join_sorted(out_side, in_side, t_keys, idx)
        nonempty = lens > 0
        res[nonempty] = np.minimum.reduceat(sums, seg0[nonempty])
    _tally(len(order), len(T), rows, idx.size, kind)
    out = np.empty(len(order))
    out[order] = res if slot is None else res[slot]
    return out


def _shifted_keys(in_side: _Side, idx, lens, R, T):
    """The gathered target entries as int32 keys ``R[k] * base + pivot``.

    ``R`` is each pair's row in the key space being joined against
    (its source vertex for a global join, a batch-local row number for
    :func:`_join_local`); the caller guarantees ``R * base`` fits int32.
    """
    base = in_side.base
    if in_side.keys is None:
        shift = R * base
        entries = in_side.pivots[idx]
    else:
        shift = (R - T) * base
        entries = in_side.keys[idx]
    return entries + np.repeat(shift.astype(np.int32), lens)


def _join_dense(out_side: _Side, in_side: _Side, S, t_keys, idx, seg0, block):
    """O(1)-probe join: scatter source entries, gather target entries.

    Walks the source vertex range ``block`` vertices at a time: each
    block's label entries (a contiguous run of the side's arrays) are
    scattered into a flat ``block * base`` table holding the entry
    distances, with a parallel epoch array marking which block wrote a
    cell — stale cells read as "no common pivot" without ever clearing
    the table.  Every gathered target entry then costs two gathers
    instead of a binary search.  Blocks none of the batch's sources
    fall in are skipped entirely.
    """
    base = out_side.base
    off = out_side.offsets
    n_local = off.size - 1
    total = t_keys.size
    src_dists = out_side.dists
    tgt_dists = in_side.dists
    table_d = np.empty(block * base, dtype=np.float64)
    table_e = np.zeros(block * base, dtype=np.int32)
    sums = np.empty(total, dtype=np.float64)
    vedges = np.arange(0, n_local + block, block, dtype=np.int64)
    # Element range of each vertex block in the gathered target order:
    # pairs are sorted by source, so each block's pairs — and with
    # them their gathered entries — form one contiguous run.
    pair_cuts = np.searchsorted(S, vedges)
    elem_starts = np.append(seg0, total)
    for k in range(vedges.size - 1):
        e0 = int(elem_starts[pair_cuts[k]])
        e1 = int(elem_starts[pair_cuts[k + 1]])
        if e0 == e1:
            continue
        b = int(vedges[k])
        shift = np.int32(b * base)
        so, se = int(off[b]), int(off[min(b + block, n_local)])
        epoch = k + 1
        addr = out_side.keys[so:se] - shift
        table_d[addr] = src_dists[so:se]
        table_e[addr] = epoch
        taddr = t_keys[e0:e1] - shift
        hit = np.flatnonzero(table_e[taddr] == epoch)
        sub = sums[e0:e1]
        sub.fill(np.inf)
        # Distances come straight from the stores' arrays for matched
        # entries only (quantized values upcast to float64 exactly).
        sub[hit] = np.add(
            table_d[taddr[hit]],
            tgt_dists[idx[e0:e1][hit]].astype(np.float64, copy=False),
        )
    return sums


def _match_sorted(s_keys, t_keys):
    """Positions of ``t_keys`` found in sorted ``s_keys``: (where, at)."""
    pos = np.searchsorted(s_keys, t_keys)
    np.minimum(pos, s_keys.size - 1, out=pos)
    hit = np.flatnonzero(s_keys[pos] == t_keys)
    return hit, pos[hit]


def _join_sorted(out_side: _Side, in_side: _Side, t_keys, idx):
    """Merge join via one global searchsorted into the side's keys."""
    hit, pos = _match_sorted(out_side.keys, t_keys)
    sums = np.full(t_keys.size, np.inf)
    # Distances are fetched for matched entries only, straight from
    # the stores' arrays (quantized values upcast to float64 exactly).
    sums[hit] = np.add(
        out_side.dists[pos].astype(np.float64, copy=False),
        in_side.dists[idx[hit]].astype(np.float64, copy=False),
    )
    return sums


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
        if e0 == e1:
            continue
        s0, s1 = s_cuts[k], s_cuts[k + 1]
        shift = np.int32(k * cells)
        table[s_keys[s0:s1] - shift] = np.arange(s0, s1, dtype=np.int32)
        want = t_keys[e0:e1]
        at = table[want - shift]
        hit = (s_keys[at] == want).nonzero()[0]
        hits.append(hit + e0)
        found.append(at[hit])
    return np.concatenate(hits), np.concatenate(found)


def _join_local(out_side: _Side, in_side: _Side, S, T, idx, lens, seg0):
    """Join against the batch's own sources when the side has no keys.

    The label slices of the batch's distinct sources are gathered once
    and packed as int32 keys ``row * base + pivot`` (``row`` numbers
    the distinct sources in order), which is all the join needs and a
    few hundred KB where the whole side's keys would be tens of MB.
    Rows are taken in chunks whose packed range fits int32.  Returns
    the per-entry sums, the join kind used and the number of rows.
    """
    base = out_side.base
    new_source = _run_starts(S[1:] != S[:-1])
    rows = S[new_source]
    row_of = np.cumsum(new_source) - 1
    sidx, slens, sseg0 = _expand(out_side, rows)
    s_starts = np.append(sseg0, sidx.size)
    t_starts = np.append(seg0, idx.size)
    pair_cuts = np.append(np.flatnonzero(new_source), len(S))
    sums = np.full(idx.size, np.inf)
    block = _LOCAL_TABLE_ELEMS // base
    use_table = block > 0 and idx.size >= _TABLE_BLOCK_ENTRIES * (
        -(-rows.size // block) + _TABLE_SETUP_BLOCKS
    )
    step = _INT32_MAX // base
    for r0 in range(0, rows.size, step):
        r1 = min(r0 + step, rows.size)
        p0, p1 = pair_cuts[r0], pair_cuts[r1]
        s0, s1 = s_starts[r0], s_starts[r1]
        e0, e1 = t_starts[p0], t_starts[p1]
        if e0 == e1 or s0 == s1:
            continue
        s_at = sidx[s0:s1]
        t_at = idx[e0:e1]
        s_keys = out_side.pivots[s_at] + np.repeat(
            np.arange(r1 - r0, dtype=np.int32) * np.int32(base),
            slens[r0:r1],
        )
        t_keys = _shifted_keys(
            in_side, t_at, lens[p0:p1], row_of[p0:p1] - r0, T[p0:p1]
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
        # Distances are fetched for matched entries only, straight from
        # the stores' arrays (quantized values upcast to float64 exactly).
        sums[e0:e1][hit] = np.add(
            out_side.dists[s_at[pos]].astype(np.float64, copy=False),
            in_side.dists[t_at[hit]].astype(np.float64, copy=False),
        )
    return sums, "local_table" if use_table else "local_sorted", rows.size


def _eval_sharded(store, S, T):
    """Bucket global pairs by (source shard, target shard) and evaluate."""
    los = np.asarray(store._los, dtype=np.int64)
    sa = np.searchsorted(los, S, side="right") - 1
    sb = np.searchsorted(los, T, side="right") - 1
    res = np.empty(len(S), dtype=np.float64)
    num = store.num_shards
    for key in np.unique(sa * num + sb):
        a, b = int(key) // num, int(key) % num
        mask = (sa == a) & (sb == b)
        out_side, _ = _sides(store.shards[a], store.n)
        _, in_side = _sides(store.shards[b], store.n)
        res[mask] = _eval(
            out_side, in_side, S[mask] - los[a], T[mask] - los[b],
            orient=False,
        )
    return res


def _eval_store(store, S, T):
    """Distances for global pairs with ``s != t`` on any supported store."""
    from repro.oracle.sharding import ShardedLabelStore

    if isinstance(store, ShardedLabelStore):
        return _eval_sharded(store, S, T)
    out_side, in_side = _sides(store, store.n)
    return _eval(out_side, in_side, S, T, orient=not store.directed)


def batch_eval_arrays(store, S, T):
    """Array-in/array-out evaluation (the parallel workers' entry).

    The pair columns arrive as int64 numpy arrays and the distances
    return as one float64 array — the
    :class:`~repro.oracle.parallel.ParallelOracle` ships chunks across
    the process boundary in this form because numpy buffers pickle in
    one memcpy, where a list of tuples costs a per-element walk.
    Columns of any other integer type are widened first (the packed
    keys below need 64 bits); they must be 1-D and of equal length.
    """
    S = np.asarray(S, dtype=np.int64)
    T = np.asarray(T, dtype=np.int64)
    if S.ndim != 1 or S.shape != T.shape:
        raise ValueError(
            f"pair columns must be 1-D and equal length, got shapes "
            f"{S.shape} and {T.shape}"
        )
    n = store.n
    bad = (S < 0) | (S >= n) | (T < 0) | (T >= n)
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise IndexError(
            f"query ({int(S[k])}, {int(T[k])}) out of range [0, {n})"
        )
    ne = S != T
    if len(S) and ne.all():
        # No s == t pair to answer 0.0 (the usual batch): nothing to
        # mask out and scatter back around.
        return _eval_store(store, S, T)
    res = np.zeros(len(S), dtype=np.float64)
    if ne.any():
        res[ne] = _eval_store(store, S[ne], T[ne])
    return res


def batch_eval(
    store, pairs: Sequence[tuple[int, int]]
) -> list[float]:
    """Distances for every pair, in order — the kernel entry point.

    ``store`` must satisfy :func:`supports`.  Bit-identical to calling
    ``store.query`` per pair (``inf`` for unreachable, ``0.0`` for
    ``s == t``); raises ``IndexError`` on out-of-range vertices like
    the scalar paths do.
    """
    if not pairs:
        return []
    sq = np.asarray(pairs, dtype=np.int64)
    return batch_eval_arrays(store, sq[:, 0], sq[:, 1]).tolist()
