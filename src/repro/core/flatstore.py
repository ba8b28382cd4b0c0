"""Contiguous struct-of-arrays label storage (CSR) and binary format v2.

:class:`~repro.core.labels.LabelIndex` keeps one Python list of
``(pivot, dist)`` tuples per vertex — simple, but every entry is a
heap-allocated tuple holding two boxed numbers, and loading an index
re-allocates all of them.  Pruned Landmark Labeling and its scalable
successors store labels the way this module does instead: one flat
offsets array plus contiguous pivot/distance arrays per side, the CSR
layout used for adjacency lists.  :class:`FlatLabelStore` is that
backend, implementing the same :class:`~repro.core.labels.LabelStore`
protocol the rest of the query stack is written against.

Queries exploit the layout: the smaller label is zipped into a dict at
C speed and the larger one is probed through it, which is 2-3x faster
than the tuple-list merge join in pure Python while returning the
bit-identical minimum (``benchmarks/test_store_throughput.py`` gates
the equality and exports the rates).
Grouped evaluation (:meth:`FlatLabelStore.query_group`) builds the
source-side dict once per source, which is what the oracle's batch
path amortises.

**Binary format v2** serialises the arrays as raw little-endian blobs
after an 27-byte header, so a load is a handful of bulk ``frombytes``
copies — or zero-copy ``memoryview.cast`` slices over an ``mmap`` —
instead of per-entry ``struct`` unpacking::

    RPLI | u8 version=2 | u8 flags | u8 has_rank | u32 n
    u64 out_count | u64 in_count          (in_count 0 when undirected)
    [rank:        n * u32]                 if has_rank
    out_offsets:  (n+1) * i64
    out_pivots:   out_count * i32
    out_dists:    out_count * f64
    [in_offsets / in_pivots / in_dists]    if directed
    [parent: n * i32 | hang: n * f64]      if flags bit 1 (pendants)

**Pendant vertices** (degree 1, neighbour of degree >= 2; undirected
stores only) are not labelled: the row of pendant ``v`` is empty and
``parent[v]`` / ``hang[v]`` name its neighbour and the edge between
them (``v`` and ``0`` for every other, *core* vertex), so ``dist(s, t)
= hang[s] + dist(parent[s], parent[t]) + hang[t]``.  Label reads
(``out_label``, ``out_slice``, ``to_index``) hand out a pendant's
*derived* label — the parent's, shifted by ``hang``, with ``(v, 0.0)``
merged in — so every consumer of labels is unaware of the peel; the
arrays, the file and the size figures hold what is stored.  A vertex
with a staged update is core from then on.

Version 1 files remain loadable through :func:`load_store`, which
sniffs the version byte and upgrades transparently.
"""

from __future__ import annotations

import mmap as _mmap
import struct
import sys
from array import array
from bisect import bisect_left
from typing import Sequence

from repro.core.labels import BYTES_PER_ENTRY, INF, LabelIndex, LabelStats
from repro.utils.atomicio import atomic_binary_writer

_MAGIC = b"RPLI"
_VERSION = 2
_HEADER = struct.Struct("<BBBIQQ")  # version, flags, has_rank, n, counts


def probe_slice_min(get, pivots, dists, o, e) -> float:
    """Min ``get(w) + d2`` over one CSR label slice, probing a dict.

    ``get`` is the bound ``dict.get`` of the other side's ``pivot ->
    dist`` mapping.  This is *the* evaluation inner loop — every CSR
    query path (single store or sharded) funnels through it, so the
    bit-identical-answers guarantee has a single implementation.
    """
    best = INF
    for w, d2 in zip(pivots[o:e], dists[o:e]):
        d1 = get(w)
        if d1 is not None:
            d = d1 + d2
            if d < best:
                best = d
    return best


def probe_min_distance(
    a_pivots, a_dists, ao, ae, b_pivots, b_dists, bo, be
) -> float:
    """Min ``d1 + d2`` over common pivots of two CSR label slices.

    The smaller slice is zipped into a dict at C speed and the larger
    one is probed through it; the minimum over common pivots is the
    same sum a sorted merge join would return.
    """
    if ae - ao <= be - bo:
        probe = dict(zip(a_pivots[ao:ae], a_dists[ao:ae]))
        return probe_slice_min(probe.get, b_pivots, b_dists, bo, be)
    probe = dict(zip(b_pivots[bo:be], b_dists[bo:be]))
    return probe_slice_min(probe.get, a_pivots, a_dists, ao, ae)


def merge_min_via(
    a_pivots, a_dists, i, ie, b_pivots, b_dists, j, je
) -> tuple[float, int]:
    """Sorted merge of two CSR label slices: ``(min dist, best pivot)``.

    Returns pivot -1 when the slices share no pivot (unreachable).
    """
    best = INF
    best_pivot = -1
    while i < ie and j < je:
        pa = a_pivots[i]
        pb = b_pivots[j]
        if pa == pb:
            d = a_dists[i] + b_dists[j]
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


def derived_slice(v, hang, pivots, dists, o, e):
    """Pendant ``v``'s label slice from its parent's ``pivots/dists[o:e]``.

    Every entry moves out by the pendant edge ``hang`` and ``(v, 0.0)``
    goes in at its sorted place; same ``(pivots, dists, lo, hi)`` shape
    as :meth:`FlatLabelStore.out_slice`.
    """
    piv = list(pivots[o:e])
    dst = [hang + d for d in dists[o:e]]
    at = bisect_left(piv, v)
    piv.insert(at, v)
    dst.insert(at, 0.0)
    return piv, dst, 0, len(piv)


# The on-disk blobs are little-endian; big-endian hosts byteswap on
# save/load (and fall back to copying instead of zero-copy mmap views).
_BIG_ENDIAN = sys.byteorder == "big"


class FlatLabelStore:
    """CSR-layout 2-hop label store (the flat-array backend).

    ``out_offsets[v] : out_offsets[v + 1]`` delimits vertex ``v``'s
    out-label inside the parallel ``out_pivots`` / ``out_dists``
    arrays, sorted by pivot id; likewise for the in-side.  For
    undirected stores the in-side members *alias* the out-side arrays
    (Section 7's single store), so the aliasing survives conversion
    and serialisation round trips.

    The arrays may be ``array.array`` instances (owned memory) or
    typed ``memoryview`` objects — slices over an ``mmap`` (zero-copy
    load) or read-only views of the array build engine's numpy arrays
    (zero-copy freeze); all support the indexing, slicing, and
    iteration the query paths use.

    ``parent`` / ``hang`` are ``None`` unless the index was built with
    pendant vertices peeled (see the module docstring).  ``lo`` is the
    global id of local vertex 0: non-zero only for a shard inside a
    :class:`~repro.oracle.sharding.ShardedLabelStore`, whose parent
    ids are global — the sharded store, not the shard, resolves them.
    """

    __slots__ = (
        "n",
        "directed",
        "rank",
        "out_offsets",
        "out_pivots",
        "out_dists",
        "in_offsets",
        "in_pivots",
        "in_dists",
        "parent",
        "hang",
        "lo",
        "_mmap",
        "_view",
        "_delta_out",
        "_delta_in",
    )

    def __init__(
        self,
        n: int,
        directed: bool,
        out_offsets,
        out_pivots,
        out_dists,
        in_offsets,
        in_pivots,
        in_dists,
        rank: list[int] | None = None,
    ) -> None:
        self.n = n
        self.directed = directed
        self.out_offsets = out_offsets
        self.out_pivots = out_pivots
        self.out_dists = out_dists
        self.in_offsets = in_offsets
        self.in_pivots = in_pivots
        self.in_dists = in_dists
        self.rank = rank
        self.parent = self.hang = None
        self.lo = 0
        self._mmap = None
        # The batch kernel's row cache (repro.oracle.kernel), created
        # by the first batch; dropped on close().
        self._view = None
        # Staged per-vertex label updates (apply_updates): vertex ->
        # (pivots, dists) side arrays overlaying the base CSR arrays.
        # For undirected stores the in-side overlay aliases the
        # out-side one, exactly like the base arrays.
        self._delta_out: dict[int, tuple] = {}
        self._delta_in: dict[int, tuple] = (
            {} if directed else self._delta_out
        )

    @property
    def is_mmapped(self) -> bool:
        """Whether the arrays are zero-copy views over a file mapping."""
        return self._mmap is not None

    def close(self) -> None:
        """Release the file mapping of an mmap-loaded store.

        After closing, the store must not be queried.  Required on
        platforms (Windows) where a mapped file cannot be deleted;
        a no-op for stores that own their arrays.
        """
        if self._mmap is None:
            return
        # Drop the exported buffer views (including the kernel's row
        # cache, which holds numpy views of them) before closing the
        # mapping (mmap.close() raises BufferError while views are
        # alive).
        self._view = None
        self.out_offsets = self.out_pivots = self.out_dists = None
        self.in_offsets = self.in_pivots = self.in_dists = None
        self.parent = self.hang = None
        self._mmap.close()
        self._mmap = None

    # -- conversion ----------------------------------------------------------
    @classmethod
    def from_index(cls, index: LabelIndex) -> "FlatLabelStore":
        """Pack a :class:`LabelIndex` into CSR arrays.

        An index already held as arrays (``LabelIndex.over_store``, the
        array build engine's output) is not packed at all: the result
        is a fresh store — its own update overlay, its own kernel row
        cache — over the same immutable arrays.
        """
        held = index._store
        if held is not None:
            store = cls(
                held.n, held.directed,
                held.out_offsets, held.out_pivots, held.out_dists,
                held.in_offsets, held.in_pivots, held.in_dists,
                list(held.rank) if held.rank is not None else None,
            )
            store.parent, store.hang = held.parent, held.hang
            return store

        hang = index.hang

        def pack(labels):
            # A tuple-list index holds a pendant's derived label; the
            # arrays hold an empty row for it.
            offsets = array("q", [0])
            pivots = array("i")
            dists = array("d")
            for v, lab in enumerate(labels):
                if hang is None or not hang[v]:
                    for p, d in lab:
                        pivots.append(p)
                        dists.append(d)
                offsets.append(len(pivots))
            return offsets, pivots, dists

        oo, op, od = pack(index.out_labels)
        if index.directed:
            io, ip, id_ = pack(index.in_labels)
        else:
            io, ip, id_ = oo, op, od
        rank = list(index.rank) if index.rank is not None else None
        store = cls(index.n, index.directed, oo, op, od, io, ip, id_, rank)
        if hang is not None:
            store.parent = array("i", index.parent)
            store.hang = array("d", hang)
        return store

    def to_index(self) -> LabelIndex:
        """Expand back into a tuple-list :class:`LabelIndex`."""
        out_labels = [self.out_label(v) for v in range(self.n)]
        if self.directed:
            in_labels = [self.in_label(v) for v in range(self.n)]
        else:
            in_labels = out_labels
        rank = list(self.rank) if self.rank is not None else None
        index = LabelIndex(self.n, self.directed, out_labels, in_labels, rank)
        parent, hang = self._pendant_columns()
        if hang is not None:
            index.parent, index.hang = list(parent), list(hang)
        return index

    # -- pendant vertices ----------------------------------------------------
    def _resolve(self, v: int):
        """``(p, h)``: the core vertex answering for ``v`` and the edge
        between them — ``(v, 0)`` unless ``v`` is a pendant."""
        h = self.hang[v] if self.hang is not None else 0
        if not h or (self._delta_out and v in self._delta_out):
            return v, 0
        p = self.parent[v]
        if not (h > 0 and 0 <= p < self.n and not self.hang[p]):
            raise ValueError(
                f"corrupt pendant section: vertex {v} hangs {h!r} from {p}"
            )
        return p, h

    def _pendant_columns(self):
        """``(parent, hang)`` with the overlay folded in, as fresh arrays.

        A vertex with a staged label is core; ``(None, None)`` when no
        pendant is left.
        """
        if self.hang is None:
            return None, None
        parent, hang = array("i", self.parent), array("d", self.hang)
        for v in self._delta_out:
            parent[v] = v + self.lo
            hang[v] = 0.0
        if not any(hang):
            return None, None
        return parent, hang

    @property
    def pendants(self) -> int:
        """Vertices answered through their neighbour (empty stored row)."""
        if self.hang is None:
            return 0
        staged = self._delta_out
        return sum(1 for v, h in enumerate(self.hang) if h and v not in staged)

    # -- incremental updates -------------------------------------------------
    @property
    def has_pending_updates(self) -> bool:
        """Whether staged label updates currently overlay the arrays."""
        return bool(self._delta_out) or bool(self._delta_in)

    def apply_updates(self, delta) -> int:
        """Stage a :class:`~repro.core.labels.LabelDelta` as an overlay.

        Each carried vertex's replacement label is kept in side arrays
        next to the base CSR arrays; every query path consults the
        overlay before the base slice, so updated answers are served
        immediately with **zero rewrite** of the (possibly
        memory-mapped) base arrays.  The batch kernel's row cache
        forgets the carried vertices' rows only; the next batch that
        names one refills it from the overlay.  Call :meth:`save` (or
        ``ShardedLabelStore.reconcile``) to fold the overlay to disk.
        Returns the number of label slices staged.
        """
        if delta.n != self.n or delta.directed != self.directed:
            raise ValueError(
                f"delta shape (|V|={delta.n}, directed={delta.directed}) "
                f"does not match store (|V|={self.n}, "
                f"directed={self.directed})"
            )
        staged = 0
        sides = [(self._delta_out, delta.out)]
        if self.directed:
            sides.append((self._delta_in, delta.inn))
        for target, source in sides:
            for v, label in source.items():
                if not 0 <= v < self.n:
                    raise IndexError(
                        f"delta vertex {v} out of range [0, {self.n})"
                    )
                target[v] = (
                    array("i", (p for p, _ in label)),
                    array("d", (d for _, d in label)),
                )
                staged += 1
        if self._view is not None:
            self._view.invalidate(delta)
        return staged

    def merged(self) -> "FlatLabelStore":
        """Fold the staged overlay into fresh CSR arrays (v2 layout).

        Returns ``self`` when nothing is staged.  The quantized
        subclass overrides this to re-encode the merged arrays (widths
        are re-chosen, since updates can move the maxima).
        """
        if not self.has_pending_updates:
            return self
        parent, hang = self._pendant_columns()

        def side(slice_of):
            offsets = array("q", [0])
            pivots = array("i")
            dists = array("d")
            for v in range(self.n):
                if hang is None or not hang[v]:
                    p, d, o, e = slice_of(v)
                    pivots.extend(p[o:e])
                    dists.extend(d[o:e])
                offsets.append(len(pivots))
            return offsets, pivots, dists

        oo, op, od = side(self.out_slice)
        if self.directed:
            io, ip, id_ = side(self.in_slice)
        else:
            io, ip, id_ = oo, op, od
        rank = list(self.rank) if self.rank is not None else None
        store = FlatLabelStore(
            self.n, self.directed, oo, op, od, io, ip, id_, rank
        )
        store.parent, store.hang, store.lo = parent, hang, self.lo
        return store

    # -- LabelStore accessors ------------------------------------------------
    def out_label(self, v: int) -> list[tuple[int, float]]:
        """``Lout(v)`` as a fresh (pivot, dist) list, sorted by pivot."""
        p, d, o, e = self.out_slice(v)
        return list(zip(p[o:e], d[o:e]))

    def in_label(self, v: int) -> list[tuple[int, float]]:
        """``Lin(v)`` as a fresh (pivot, dist) list, sorted by pivot."""
        p, d, o, e = self.in_slice(v)
        return list(zip(p[o:e], d[o:e]))

    def label_of(self, v: int, out: bool = True) -> list[tuple[int, float]]:
        """The (pivot, dist) list of ``v``'s out- or in-label."""
        return self.out_label(v) if out else self.in_label(v)

    # -- slice views (shared with the sharded store's query paths) -----------
    def out_slice(self, v: int):
        """``(pivots, dists, lo, hi)`` bounds of ``Lout(v)`` in the arrays.

        The uniform slice accessor the cross-store query paths (the
        sharded store joining labels from two different shards) use:
        plain CSR backends return the raw arrays with bounds, the
        quantized v3 backend returns decoded per-slice lists, and
        vertices with a staged update return their overlay arrays and
        pendants their derived label — any shape feeds the shared
        scalar helpers directly.
        """
        if self._delta_out:
            staged = self._delta_out.get(v)
            if staged is not None:
                return staged[0], staged[1], 0, len(staged[0])
        if self.hang is not None and self.hang[v]:
            p, h = self._resolve(v)
            return derived_slice(v, h, *self.out_slice(p))
        return (
            self.out_pivots,
            self.out_dists,
            self.out_offsets[v],
            self.out_offsets[v + 1],
        )

    def in_slice(self, v: int):
        """``(pivots, dists, lo, hi)`` bounds of ``Lin(v)`` in the arrays."""
        if self._delta_in:
            staged = self._delta_in.get(v)
            if staged is not None:
                return staged[0], staged[1], 0, len(staged[0])
        if self.hang is not None and self.hang[v]:
            p, h = self._resolve(v)
            return derived_slice(v, h, *self.in_slice(p))
        return (
            self.in_pivots,
            self.in_dists,
            self.in_offsets[v],
            self.in_offsets[v + 1],
        )

    # -- querying ------------------------------------------------------------
    def _check(self, s: int, t: int) -> None:
        if not 0 <= s < self.n or not 0 <= t < self.n:
            raise IndexError(f"query ({s}, {t}) out of range [0, {self.n})")

    def query(self, s: int, t: int) -> float:
        """Exact ``dist(s, t)``; ``inf`` when unreachable.

        The smaller of the two labels is turned into a ``pivot ->
        dist`` dict at C speed and the larger side is probed through
        it; the minimum over common pivots is the same sum the merge
        join would return.  Pendant ends are resolved to their parents
        first.
        """
        self._check(s, t)
        if s == t:
            return 0.0
        hang = self.hang
        if hang is None or not (hang[s] or hang[t]):
            return self._join(probe_min_distance, s, t)
        s, hs = self._resolve(s)
        t, ht = self._resolve(t)
        if s == t:
            return float(hs + ht)
        return hs + self._join(probe_min_distance, s, t) + ht

    def query_via(self, s: int, t: int) -> tuple[float, int]:
        """Like :meth:`query` but also return the best pivot (-1 if none)."""
        self._check(s, t)
        if s == t:
            return 0.0, s
        hang = self.hang
        if hang is None or not (hang[s] or hang[t]):
            return self._join(merge_min_via, s, t)
        s, hs = self._resolve(s)
        t, ht = self._resolve(t)
        if s == t:
            return float(hs + ht), s
        d, pivot = self._join(merge_min_via, s, t)
        return hs + d + ht, pivot

    def _join(self, join, s: int, t: int):
        """``join`` over the stored slices of core vertices ``s != t``."""
        if self._delta_out or self._delta_in:
            return join(*self.out_slice(s), *self.in_slice(t))
        return join(
            self.out_pivots,
            self.out_dists,
            self.out_offsets[s],
            self.out_offsets[s + 1],
            self.in_pivots,
            self.in_dists,
            self.in_offsets[t],
            self.in_offsets[t + 1],
        )

    def query_group(self, s: int, targets: Sequence[int]) -> list[float]:
        """Distances from ``s`` to each target, amortising the source side.

        The ``Lout(s)`` dict is built once and probed with every
        target's in-label — the building block of
        :meth:`repro.oracle.DistanceOracle.query_batch`.  Written over
        the slice accessors, so one loop serves plain, overlaid,
        quantized and peeled stores.
        """
        if not 0 <= s < self.n:
            raise IndexError(f"source {s} out of range [0, {self.n})")
        ps, hs = self._resolve(s)
        sp, sd, so, se = self.out_slice(ps)
        get = dict(zip(sp[so:se], sd[so:se])).get
        out: list[float] = []
        append = out.append
        for t in targets:
            if not 0 <= t < self.n:
                raise IndexError(f"target {t} out of range [0, {self.n})")
            if t == s:
                append(0.0)
                continue
            pt, ht = self._resolve(t)
            if pt == ps:
                append(float(hs + ht))
                continue
            tp, td, to, te = self.in_slice(pt)
            append(hs + probe_slice_min(get, tp, td, to, te) + ht)
        return out

    def _label_len(self, v: int, out: bool) -> int:
        """Current label length of ``v`` (overlay-aware)."""
        overlay = self._delta_out if out else self._delta_in
        if overlay:
            staged = overlay.get(v)
            if staged is not None:
                return len(staged[0])
        offsets = self.out_offsets if out else self.in_offsets
        return offsets[v + 1] - offsets[v]

    # -- statistics ----------------------------------------------------------
    def total_entries(self, include_trivial: bool = False) -> int:
        """Stored label entries (self entries excluded unless asked).

        A pendant's empty row counts nothing: not its derived entries,
        not a self entry.
        """
        total = len(self.out_pivots)
        if self.directed:
            total += len(self.in_pivots)
        sides = [(self._delta_out, self.out_offsets)]
        if self.directed:
            sides.append((self._delta_in, self.in_offsets))
        for overlay, offsets in sides:
            for v, (pivots, _) in overlay.items():
                total += len(pivots) - (offsets[v + 1] - offsets[v])
        if include_trivial:
            return total
        return total - self.n * (2 if self.directed else 1) + self.pendants

    def size_in_bytes(self) -> int:
        """Index size under the paper's 5-bytes-per-entry convention."""
        return self.total_entries(include_trivial=True) * BYTES_PER_ENTRY

    def storage_bytes(self) -> int:
        """Actual bytes held by the arrays (offsets included)."""
        sides = [(self.out_offsets, self.out_pivots, self.out_dists)]
        if self.directed:
            sides.append((self.in_offsets, self.in_pivots, self.in_dists))
        if self.hang is not None:
            sides.append((self.parent, self.hang))
        total = 0
        for side in sides:
            for arr in side:
                total += len(arr) * arr.itemsize
        overlays = [self._delta_out]
        if self.directed:
            overlays.append(self._delta_in)
        for overlay in overlays:
            for pivots, dists in overlay.values():
                total += len(pivots) * pivots.itemsize
                total += len(dists) * dists.itemsize
        return total

    def stats(self) -> LabelStats:
        """Aggregate size statistics (same semantics as LabelIndex)."""
        per_vertex = []
        for v in range(self.n):
            size = self._label_len(v, out=True) - 1
            if self.directed:
                size += self._label_len(v, out=False) - 1
            # A pendant's row is empty: no self entry to discount.
            per_vertex.append(max(size, 0))
        total = sum(per_vertex)
        return LabelStats(
            num_vertices=self.n,
            total_entries=total,
            max_label_size=max(per_vertex, default=0),
            avg_label_size=total / self.n if self.n else 0.0,
            index_bytes=self.size_in_bytes(),
            pendants=self.pendants,
        )

    # -- serialization -------------------------------------------------------
    def save(self, path) -> None:
        """Write binary format v2 atomically (temp file + rename).

        Staged updates are folded in first, so the file always holds
        the merged labels."""
        if self.has_pending_updates:
            self.merged().save(path)
            return
        flags = file_flags(self)
        has_rank = 1 if self.rank is not None else 0
        out_count = len(self.out_pivots)
        in_count = len(self.in_pivots) if self.directed else 0
        with atomic_binary_writer(path) as fh:
            fh.write(_MAGIC)
            fh.write(
                _HEADER.pack(_VERSION, flags, has_rank, self.n, out_count,
                             in_count)
            )
            if self.rank is not None:
                fh.write(_as_le_bytes(array("I", self.rank), "I"))
            sides = [("q", self.out_offsets), ("i", self.out_pivots),
                     ("d", self.out_dists)]
            if self.directed:
                sides += [("q", self.in_offsets), ("i", self.in_pivots),
                          ("d", self.in_dists)]
            if self.hang is not None:
                sides += [("i", self.parent), ("d", self.hang)]
            for typecode, blob in sides:
                fh.write(_as_le_bytes(blob, typecode))

    @classmethod
    def load(cls, path, use_mmap: bool = False) -> "FlatLabelStore":
        """Read a v2 file: one bulk read (or an ``mmap``) plus casts.

        With ``use_mmap=True`` the arrays are zero-copy typed
        memoryviews over a shared read-only mapping, so a multi-GB
        index "loads" in microseconds and pages in on demand.  Raises
        ``ValueError`` on wrong magic, version, or truncation.
        """
        fh = open(path, "rb")
        with fh:
            head = fh.read(4 + _HEADER.size)
            if head[:4] != _MAGIC:
                raise ValueError(f"{path}: not a label index file")
            if len(head) < 4 + _HEADER.size:
                raise ValueError(f"{path}: truncated or corrupt index file")
            version, flags, has_rank, n, out_count, in_count = _HEADER.unpack(
                head[4:]
            )
            if version != _VERSION:
                raise ValueError(
                    f"{path}: not a v2 flat index (version {version}); "
                    "use load_store() to read any version"
                )
            if use_mmap and not _BIG_ENDIAN:
                body = memoryview(
                    _mmap.mmap(fh.fileno(), 0, access=_mmap.ACCESS_READ)
                )[4 + _HEADER.size :]
            else:
                # On big-endian hosts the blobs must be byteswapped, so
                # zero-copy views are impossible; fall back to copying.
                body = memoryview(fh.read())

        cursor = _Cursor(path, body)
        try:
            directed, peeled = read_flags(path, flags)
            rank = None
            if has_rank:
                rank = list(cursor.take("I", n))
            oo = cursor.take("q", n + 1)
            op = cursor.take("i", out_count)
            od = cursor.take("d", out_count)
            if directed:
                io = cursor.take("q", n + 1)
                ip = cursor.take("i", in_count)
                id_ = cursor.take("d", in_count)
            else:
                io, ip, id_ = oo, op, od
            parent = hang = None
            if peeled:
                parent, hang = cursor.take("i", n), cursor.take("d", n)
            cursor.finish()
        except ValueError:
            # Don't leak the mapping of a truncated file: release every
            # exported view, then close the mmap before re-raising.
            cursor.abandon()
            raise
        store = cls(n, directed, oo, op, od, io, ip, id_, rank)
        store.parent, store.hang = parent, hang
        if cursor.zero_copy:
            store._mmap = body.obj
        return store

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"FlatLabelStore(|V|={self.n}, {kind}, "
            f"entries={self.total_entries()})"
        )


class _Cursor:
    """Sequential typed reads over a loaded v2 body, with bounds checks."""

    def __init__(self, path, body: memoryview) -> None:
        self.path = path
        self.body = body
        self.pos = 0
        self.zero_copy = isinstance(body.obj, _mmap.mmap)
        self.views: list[memoryview] = []

    def take(self, typecode: str, count: int):
        size = count * array(typecode).itemsize
        end = self.pos + size
        if end > len(self.body):
            raise ValueError(f"{self.path}: truncated or corrupt index file")
        chunk = self.body[self.pos : end]
        self.pos = end
        if self.zero_copy:
            view = chunk.cast(typecode)
            self.views.append(view)
            return view
        arr = array(typecode)
        arr.frombytes(chunk)
        if _BIG_ENDIAN:
            arr.byteswap()
        return arr

    def finish(self) -> None:
        """Require that the sections read so far are the whole file."""
        if self.pos != len(self.body):
            raise ValueError(
                f"{self.path}: {len(self.body) - self.pos} bytes after the "
                "last section (corrupt index file, or a section its "
                "header flags do not announce)"
            )

    def abandon(self) -> None:
        """Release every exported view and close the mapping under them."""
        if not self.zero_copy:
            return
        for view in self.views:
            view.release()
        self.views.clear()
        mapping = self.body.obj
        self.body.release()
        mapping.close()


def file_flags(store) -> int:
    """The v2/v3 header flags byte: bit 0 directed, bit 1 a pendant
    section follows the label blobs."""
    return (1 if store.directed else 0) | (2 if store.hang is not None else 0)


def read_flags(path, flags: int) -> tuple[bool, bool]:
    """``(directed, has pendant section)`` from a header flags byte; a
    bit this reader does not know is an error, never ignored."""
    directed, peeled = bool(flags & 1), bool(flags & 2)
    if flags & ~3:
        raise ValueError(
            f"{path}: unknown header flag bits {flags:#04x}; written by a "
            "newer version of this library?"
        )
    if directed and peeled:
        raise ValueError(
            f"{path}: corrupt header (pendant section on a directed index)"
        )
    return directed, peeled


def frozen_views(*arrays) -> tuple:
    """Read-only typed memoryviews over freshly built numpy arrays.

    How array-built stores hold their columns: the same zero-copy
    ``memoryview`` shape an ``mmap`` load serves, immutable so any
    number of stores can share them.
    """
    for arr in arrays:
        arr.setflags(write=False)
    return tuple(map(memoryview, arrays))


def drop_pendant_rows(store: "FlatLabelStore", parent, hang) -> "FlatLabelStore":
    """``store`` (array-built, over a core graph) with the pendants' rows
    emptied and ``parent`` / ``hang`` attached.

    A pendant is isolated in the core graph, so its row is exactly its
    self entry: one position per pendant is cut out of the columns.
    """
    import numpy as np

    offsets, pivots, dists = (
        np.asarray(col)
        for col in (store.out_offsets, store.out_pivots, store.out_dists)
    )
    hang = np.asarray(hang, dtype=np.float64)
    pendant = hang != 0
    cut = offsets[:-1][pendant]
    before = np.concatenate(([0], np.cumsum(pendant)))
    side = frozen_views(
        offsets - before, np.delete(pivots, cut), np.delete(dists, cut)
    )
    peeled = FlatLabelStore(store.n, False, *side, *side, store.rank)
    peeled.parent, peeled.hang = frozen_views(
        np.asarray(parent, dtype=np.int32), hang
    )
    return peeled


def _as_le_bytes(blob, typecode: str) -> bytes:
    """Serialise an array or typed-memoryview blob as little-endian bytes."""
    if not _BIG_ENDIAN:
        return blob.tobytes()
    swapped = array(typecode)
    swapped.frombytes(blob.tobytes())
    swapped.byteswap()
    return swapped.tobytes()


def load_store(path, prefer_flat: bool = True, use_mmap: bool = False):
    """Open an index file of **any** format version as a label store.

    Sniffs the version byte: v2 loads straight into a
    :class:`FlatLabelStore`; v3 into a
    :class:`~repro.core.quantized.QuantizedLabelStore` (the compact
    arrays are served as-is — no decode pass); v1 loads through
    :class:`~repro.core.labels.LabelIndex` and is packed into CSR
    arrays when ``prefer_flat`` (the default), so old files get the
    fast query path for free.  With ``prefer_flat=False`` a v1 file
    yields the original tuple-list :class:`LabelIndex`.
    """
    with open(path, "rb") as fh:
        head = fh.read(5)
    if len(head) < 5 or head[:4] != _MAGIC:
        raise ValueError(f"{path}: not a label index file")
    version = head[4]
    if version == _VERSION:
        return FlatLabelStore.load(path, use_mmap=use_mmap)
    if version == 3:
        from repro.core.quantized import QuantizedLabelStore

        return QuantizedLabelStore.load(path, use_mmap=use_mmap)
    index = LabelIndex.load(path)
    if prefer_flat:
        return FlatLabelStore.from_index(index)
    return index
