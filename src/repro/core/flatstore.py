"""Contiguous struct-of-arrays label storage (CSR): one store, two encodings.

A list of ``(pivot, dist)`` tuples per vertex is simple, but every
entry is a heap-allocated tuple holding two boxed numbers, and loading
an index re-allocates all of them.  Pruned Landmark Labeling and its
scalable successors store labels the way this module does instead: one
flat offsets array plus contiguous pivot/distance arrays per side, the
CSR layout used for adjacency lists.  :class:`FlatLabelStore` is that
store — the one label representation ``repro`` builds, writes and
serves — implementing the :class:`~repro.core.labels.LabelStore`
protocol the rest of the query stack is written against.

A store carries an **encoding**, which is also its file format:

* ``"v2"`` — absolute int32 pivots and float64 distances;
* ``"v3"`` — per-label pivot deltas and distances at widths chosen
  from the data, wide deltas patched in (the codec is
  :mod:`repro.core.quantized`).  A store with a ``rank`` column holds
  its v3 pivots as rank positions (``ranked``), each label sorted by
  position and its self entry, the last, implied (``implied``).

One reader (:meth:`FlatLabelStore.load`, behind :func:`load_store`)
and one writer (:meth:`FlatLabelStore.save`) serve both, and
:meth:`FlatLabelStore.encoded` re-encodes a whole store — staged
updates folded in — with array operations over whole columns.

Pivot ids leave a store as vertex ids whatever its pivot space:
``out_slice`` / ``in_slice`` (and through them ``out_label``, k-NN,
paths and ``verify``) map a rank-space label back through the
inverse permutation and re-sort it by id, and so does the kernel's
``label_entries``.  Distances never need the map: the kernel's rows
stay in the file's space.  Staged updates hold vertex ids, and the
one converter (:class:`~repro.core.quantized.RankSpace`) moves them
into rank space when they are filled or folded in.

Queries exploit the layout.  A v2 query joins the arrays in place:
the smaller label is zipped into a dict at C speed and the larger one
is probed through it, which is 2-3x faster than a tuple-list merge
join in pure Python while returning the bit-identical minimum
(``benchmarks/test_store_throughput.py`` exports the rates).  A v3
label must be decoded before any join, so a v3 query reads the batch
kernel's row cache, where labels are held decoded
(:meth:`FlatLabelStore.query`).

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

v3 adds four width bytes to the header, narrows the columns and
knows flag bits 2-4 (:mod:`repro.core.quantized`).  The reader checks
every offsets column and patch section once at open, so no query
ever indexes past a column.

**Pendant vertices** (degree 1, neighbour of degree >= 2; undirected
stores only) are not labelled: the row of pendant ``v`` is empty and
``parent[v]`` / ``hang[v]`` name its neighbour and the edge between
them (``v`` and ``0`` for every other, *core* vertex), so ``dist(s, t)
= hang[s] + dist(parent[s], parent[t]) + hang[t]``.  Label reads
(``out_label``, ``out_slice``) hand out a pendant's
*derived* label — the parent's, shifted by ``hang``, with ``(v, 0.0)``
merged in — so every consumer of labels is unaware of the peel; the
arrays, the file and the size figures hold what is stored.  A vertex
with a staged update is core from then on.

Version 1 files (per-entry structs, written by no current code)
remain loadable through :func:`load_store`, which sniffs the version
byte and reads them straight into v2 columns::

    RPLI | u8 version=1 | u8 flags | u8 has_rank | u32 n
    [rank: n * u32]                                  if has_rank
    per vertex: u32 count, count * (u32 pivot, f64 dist)   (out-side)
    [the same for the in-side]                       if directed

v1 knows flag bit 0 (directed) only: it has no pendant section.
"""

from __future__ import annotations

import mmap as _mmap
import struct
import sys
import threading
from array import array
from bisect import bisect_left

import numpy as np

from repro.core.labels import BYTES_PER_ENTRY, INF, LabelRows, LabelStats
from repro.core.quantized import (
    DIST_CODES,
    OFFSET_CODES,
    PIVOT_CODES,
    LabelColumns,
    RankSpace,
    _encode,
    _expand,
)
from repro.utils.atomicio import atomic_binary_writer

_MAGIC = b"RPLI"
_HEADER = struct.Struct("<BBBIQQ")  # version, flags, has_rank, n, counts
_WIDTHS = struct.Struct("<BBBB")  # v3 only: off, pivot, dist, high width

#: The version byte of each encoding, and v2's column typecodes
#: (offsets, pivots, dists).
_VERSIONS = {"v2": 2, "v3": 3}
_V2_CODES = ("q", "i", "d")

_DTYPES = {
    "b": "int8", "B": "uint8", "h": "int16", "H": "uint16",
    "i": "int32", "I": "uint32", "l": "int64", "L": "uint64",
    "q": "int64", "Q": "uint64", "f": "float32", "d": "float64",
}


def _as_np(buf):
    """Zero-copy numpy view of an ``array.array`` or typed memoryview."""
    code = getattr(buf, "typecode", None) or buf.format
    return np.frombuffer(buf, dtype=np.dtype(_DTYPES[code]))


def probe_min_distance(
    a_pivots, a_dists, ao, ae, b_pivots, b_dists, bo, be
) -> float:
    """Min ``d1 + d2`` over common pivots of two CSR label slices.

    The smaller slice is zipped into a dict at C speed and the larger
    one is probed through it; the minimum over common pivots is the
    same sum a sorted merge join would return.  This is *the*
    evaluation inner loop of every scalar CSR query (single store or
    sharded), so the bit-identical-answers guarantee has a single
    implementation.
    """
    if ae - ao > be - bo:
        a_pivots, a_dists, ao, ae, b_pivots, b_dists, bo, be = (
            b_pivots, b_dists, bo, be, a_pivots, a_dists, ao, ae
        )
    get = dict(zip(a_pivots[ao:ae], a_dists[ao:ae])).get
    best = INF
    for w, d2 in zip(b_pivots[bo:be], b_dists[bo:be]):
        d1 = get(w)
        if d1 is not None:
            d = d1 + d2
            if d < best:
                best = d
    return best


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


def _buffer(typecode: str, column) -> array:
    """An ``array`` copy of the numpy ``column`` in ``typecode``."""
    col = np.ascontiguousarray(column, dtype=_DTYPES[typecode])
    buf = array(typecode)
    buf.frombytes(memoryview(col).cast("B"))
    return buf


class StagedRows:
    """One side's staged labels, served over the base columns.

    ``rows`` is a :class:`~repro.core.labels.LabelRows` whose columns
    are numpy views of the ``array`` buffers ``offsets`` / ``pivots`` /
    ``dists``: the scalar probe slices the buffers (its fastest input)
    and the kernel and the re-encoder read the views.  ``row[v]``
    (its numpy view ``row_of``) is vertex ``v``'s row, or -1.  The
    columns never change once made: staging more rows makes a new
    object (:meth:`merged`).
    """

    __slots__ = ("rows", "offsets", "pivots", "dists", "row", "row_of")

    def __init__(self, n: int, rows: LabelRows) -> None:
        self.offsets = _buffer("q", rows.offsets)
        self.pivots = _buffer("i", rows.pivots)
        self.dists = _buffer("d", rows.dists)
        self.rows = LabelRows(
            rows.verts, *map(_as_np, (self.offsets, self.pivots, self.dists))
        )
        row = np.full(n, -1, dtype=np.int32)
        row[rows.verts] = np.arange(rows.verts.size, dtype=np.int32)
        self.row = _buffer("i", row)
        self.row_of = _as_np(self.row)

    def merged(self, n: int, newer: LabelRows) -> "StagedRows":
        """These rows with ``newer``'s staged over them: a vertex in
        both reads ``newer``'s label."""
        old = self.rows
        keep = np.ones(old.verts.size, dtype=bool)
        replaced = self.row_of[newer.verts]
        keep[replaced[replaced >= 0]] = False
        verts = np.concatenate((old.verts[keep], newer.verts))
        order = verts.argsort(kind="stable")
        starts = np.concatenate(
            (old.offsets[:-1][keep], newer.offsets[:-1] + old.pivots.size)
        )[order]
        lens = np.concatenate((old.lens()[keep], newer.lens()))[order]
        idx, _ = _expand(starts, lens)
        return StagedRows(n, LabelRows(
            verts[order],
            np.concatenate(([0], np.cumsum(lens))),
            np.concatenate((old.pivots, newer.pivots))[idx],
            np.concatenate((old.dists, newer.dists))[idx],
        ))


# The on-disk blobs are little-endian; big-endian hosts byteswap on
# save/load (and fall back to copying instead of zero-copy mmap views).
_BIG_ENDIAN = sys.byteorder == "big"


class FlatLabelStore:
    """CSR-layout 2-hop label store (the flat-array backend).

    ``out_offsets[v] : out_offsets[v + 1]`` delimits vertex ``v``'s
    out-label inside the parallel ``out_pivots`` / ``out_dists``
    arrays, sorted by pivot (by rank position when ``ranked``);
    likewise for the in-side.  For
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
        "_rank",
        "_rank_list",
        "out_offsets",
        "out_pivots",
        "out_dists",
        "in_offsets",
        "in_pivots",
        "in_dists",
        "parent",
        "hang",
        "lo",
        "encoding",
        "ranked",
        "implied",
        "patches",
        "_ranks",
        "_sides",
        "_mmap",
        "_view",
        "_overlays",
        "_staging",
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
        rank=None,
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
        # "v2" or "v3" (module docstring); set by whoever packs the
        # columns, as parent / hang are.
        self.encoding = "v2"
        # Whether the pivots are positions in ``rank`` (v3 only; flag
        # bit 2 of the file), and the map between the two spaces,
        # built by the first read that needs it.
        self.ranked = False
        # Flag bits 3-4: implied self entries, per side (at, high) patches.
        self.implied = False
        self.patches = None
        self._ranks = None
        self._sides = None
        self._mmap = None
        # The batch kernel's row cache (repro.oracle.kernel), created
        # by the first batch; dropped on close().
        self._view = None
        # Staged label updates (apply_updates): ``(out, in)``
        # StagedRows overlaying the base columns, None while nothing
        # is staged.  For undirected stores the in-side overlay aliases
        # the out-side one, exactly like the base arrays.
        self._overlays: tuple[StagedRows, StagedRows] | None = None
        # Staging reads the overlay and replaces it: one writer at a time.
        self._staging = threading.Lock()

    @property
    def rank(self) -> list[int] | None:
        """The ranking (``rank[v]``, 0 = the top hub) as a list, made
        from the stored column (:meth:`rank_column`) on first read."""
        if self._rank_list is None and self._rank is not None:
            self._rank_list = self.rank_column().tolist()
        return self._rank_list

    @rank.setter
    def rank(self, rank) -> None:  # a list, a typed column or None
        self._rank, self._rank_list = rank, None

    def rank_column(self):
        """The ranking as numpy, or None; makes no list."""
        col = self._rank
        if isinstance(col, list):
            return np.asarray(col)
        return col if col is None else _as_np(col)

    @property
    def pivot_width(self) -> int:
        """Bytes per stored pivot (4 in v2; v3's chosen width)."""
        return self.out_pivots.itemsize

    @property
    def patch_count(self) -> int:
        """Pivot patches the store holds over both sides."""
        return sum(len(at) for at, _ in self.patches or ())

    @property
    def high_width(self) -> int:
        """Bytes per patch high part (0 without patches)."""
        return self.patches[0][1].itemsize if self.patches else 0

    @property
    def dist_width(self) -> int:
        """Bytes per stored distance (8 = raw f64; 1 or 2 = quantized)."""
        return self.out_dists.itemsize

    def rank_space(self) -> RankSpace:
        """The map between vertex ids and ``rank`` positions, built on
        first use; ``ValueError`` when ``rank`` is not a permutation."""
        if self._ranks is None:
            if self._rank is None:
                raise ValueError("the store carries no rank column")
            self._ranks = RankSpace(self.rank_column())
        return self._ranks

    def _label_columns(self) -> list[LabelColumns]:
        """Per side (one when undirected) the columns and their decoder,
        made on first use; implied self entries need :meth:`rank_space`."""
        if self._sides is None:
            selves = self.rank_space().position if self.implied else None
            if selves is not None and self.hang is not None:
                selves = np.where(_as_np(self.hang) != 0, -1, selves)
            sides = [(self.out_offsets, self.out_pivots, self.out_dists)]
            if self.directed:
                sides.append((self.in_offsets, self.in_pivots, self.in_dists))
            self._sides = [
                LabelColumns(
                    *map(_as_np, side), self.encoding == "v3",
                    self.patches and tuple(map(_as_np, self.patches[k])), selves,
                )
                for k, side in enumerate(sides)
            ]
        return self._sides

    @property
    def is_mmapped(self) -> bool:
        """Whether the arrays are zero-copy views over a file mapping."""
        return self._mmap is not None

    def close(self) -> None:
        """Drop the staged updates and release the file mapping of an
        mmap-loaded store.

        After closing, the store must not be queried.  Required on
        platforms (Windows) where a mapped file cannot be deleted;
        stores that own their arrays keep them.
        """
        self._overlays = None
        if self._mmap is None:
            return
        # Drop the exported buffer views (including the kernel's row
        # cache, which holds numpy views of them) before closing the
        # mapping (mmap.close() raises BufferError while views are
        # alive).
        self._view = self._sides = None
        self.out_offsets = self.out_pivots = self.out_dists = None
        self.in_offsets = self.in_pivots = self.in_dists = None
        self.parent = self.hang = self.patches = None
        if isinstance(self._rank, memoryview):  # keep the ranking
            self._rank = array("I", self._rank.tobytes())
        self._mmap.close()
        self._mmap = None

    # -- conversion ----------------------------------------------------------
    @classmethod
    def from_index(cls, index: "FlatLabelStore") -> "FlatLabelStore":
        """A fresh store over ``index``'s labels.

        No entry is packed: the result has its own update overlay and
        its own kernel row cache over the same immutable arrays, in the
        same encoding and pivot space; staged updates, if any, are
        folded in first (:meth:`encoded`).
        """
        held = index.encoded(index.encoding, index.ranked)
        store = cls(
            held.n, held.directed,
            held.out_offsets, held.out_pivots, held.out_dists,
            held.in_offsets, held.in_pivots, held.in_dists, held._rank,
        )
        store.parent, store.hang = held.parent, held.hang
        store.encoding, store.lo = held.encoding, held.lo
        store.ranked, store.implied = held.ranked, held.implied
        store.patches = held.patches
        return store

    # -- pendant vertices ----------------------------------------------------
    def _resolve(self, v: int):
        """``(p, h)``: the core vertex answering for ``v`` and the edge
        between them — ``(v, 0)`` unless ``v`` is a pendant."""
        h = self.hang[v] if self.hang is not None else 0
        if not h or self.is_staged(v):
            return v, 0
        p = self.parent[v]
        if not (h > 0 and 0 <= p < self.n and not self.hang[p]):
            raise ValueError(
                f"corrupt pendant section: vertex {v} hangs {h!r} from {p}"
            )
        return p, h

    def _pendant_columns(self):
        """``(parent, hang)`` with the overlay folded in, as fresh numpy
        arrays: a vertex with a staged label is core.  ``(None, None)``
        when no pendant is left."""
        if self.hang is None:
            return None, None
        parent, hang = _as_np(self.parent).copy(), _as_np(self.hang).copy()
        staged = self.staged_vertices()
        parent[staged] = staged + self.lo
        hang[staged] = 0
        if not hang.any():
            return None, None
        return parent, hang

    @property
    def pendants(self) -> int:
        """Vertices answered through their neighbour (empty stored row)."""
        if self.hang is None:
            return 0
        peeled = _as_np(self.hang) != 0
        peeled[self.staged_vertices()] = False
        return int(np.count_nonzero(peeled))

    # -- incremental updates -------------------------------------------------
    @property
    def has_pending_updates(self) -> bool:
        """Whether staged label updates currently overlay the arrays."""
        return self._overlays is not None

    def is_staged(self, v: int) -> bool:
        """Whether ``v``'s label is staged: then it is core, whatever
        the pendant section says."""
        overlays = self._overlays
        return overlays is not None and overlays[0].row[v] >= 0

    def staged_vertices(self) -> np.ndarray:
        """The vertices with a staged label (sorted int64; the out side
        of a directed store)."""
        if self._overlays is None:
            return np.empty(0, dtype=np.int64)
        return self._overlays[0].rows.verts

    def apply_updates(self, delta) -> int:
        """Stage a :class:`~repro.core.labels.LabelDelta` as an overlay.

        The delta's rows are merged into one :class:`StagedRows` per
        side, a CSR next to the base columns that every read consults
        before the base slice, so updated answers are served
        immediately with **zero rewrite** of the (possibly
        memory-mapped) base arrays.  The batch kernel's row cache
        refills the carried vertices' rows that are resident now from
        the staged columns; the others stay unfilled until a read
        names them.  Call :meth:`save` (or
        ``ShardedLabelStore.reconcile``) to fold the overlay to disk.
        Returns the number of label slices staged.
        """
        if delta.n != self.n or delta.directed != self.directed:
            raise ValueError(
                f"delta shape (|V|={delta.n}, directed={delta.directed}) "
                f"does not match store (|V|={self.n}, "
                f"directed={self.directed})"
            )
        sides = [delta.out, delta.inn] if self.directed else [delta.out]
        for rows in sides:
            outside = (rows.verts < 0) | (rows.verts >= self.n)
            if outside.any():
                v = int(rows.verts[outside.argmax()])
                raise IndexError(f"delta vertex {v} out of range [0, {self.n})")
        if not delta:
            return 0
        with self._staging:
            held = self._overlays
            staged = [
                StagedRows(self.n, rows) if held is None
                else held[k].merged(self.n, rows) if len(rows) else held[k]
                for k, rows in enumerate(sides)
            ]
            self._overlays = (staged[0], staged[-1])
            if self._view is not None:
                self._view.refresh(delta)
        return len(delta)

    def encoded(
        self, encoding: str, ranked: bool | None = None
    ) -> "FlatLabelStore":
        """This store's labels in ``encoding`` (``"v2"`` or ``"v3"``),
        staged updates folded in.

        ``ranked`` is the target's pivot space: rank positions (True)
        or vertex ids (False).  By default a v3 target with a ``rank``
        column is in rank space and every other target in vertex ids;
        a sharded store asks for ids, because a shard's ``rank`` is a
        slice.  ``self`` when the store already is ``encoding`` in
        that space and layout with nothing staged.  Otherwise a new
        store, made from whole columns: decoded
        (:meth:`logical_columns`), mapped to the other space with each
        label re-sorted, the overlay rows laid in where their base rows
        were, then packed afresh (:func:`packed`).
        """
        if encoding not in _VERSIONS:
            raise ValueError(
                f"unknown label encoding {encoding!r}; expected 'v2' or 'v3'"
            )
        if ranked is None:
            ranked = encoding == "v3" and self._rank is not None
        elif ranked and (encoding != "v3" or self._rank is None):
            raise ValueError("rank-space pivots need v3 and a rank column")
        if (
            encoding == self.encoding and ranked == self.ranked
            and ranked == self.implied and not self.has_pending_updates
        ):
            return self
        return packed(
            self.n, self.directed, encoding, *self.unpacked(ranked),
            self.rank_column(), self.lo, ranked,
        )

    def unpacked(self, ranked: bool):
        """``(sides, parent, hang)`` as :func:`packed` takes them: every
        side's :meth:`logical_columns` in the space ``ranked`` names
        and the pendant columns, staged updates folded in."""
        sides = [self._columns(ranked, 0)]
        if self.directed:
            sides.append(self._columns(ranked, 1))
        return (sides, *self._pendant_columns())

    def logical_columns(self, side: int):
        """One side as numpy ``(offsets, pivots, dists)``: absolute
        pivots in the store's space, self entries in, nothing staged."""
        cols = self._label_columns()[side]
        if not cols.delta:
            return cols.offsets.astype(np.int64), cols.pivots, cols.dists
        piv, dst, lens = cols.gather(np.arange(self.n, dtype=np.int64))
        return np.concatenate(([0], np.cumsum(lens))), piv, dst

    def _columns(self, ranked, side):
        """:meth:`logical_columns` in the space ``ranked`` names, the
        overlay spliced in."""
        off, piv, dst = self.logical_columns(side)
        if ranked != self.ranked:
            space = self.rank_space()
            piv, dst = (space.positions if ranked else space.ids)(
                piv, dst, np.diff(off)
            )
        if self._overlays is None:
            return off, piv, dst
        rows = self._overlays[side].rows
        row_piv, row_dst = rows.pivots, rows.dists
        if ranked:  # staged rows hold vertex ids
            row_piv, row_dst = self.rank_space().positions(
                row_piv, row_dst, rows.lens()
            )
        # Every row read where it lives: a staged row from the staged
        # columns laid after the base ones, any other from the base.
        lens, starts = np.diff(off), off[:-1].astype(np.int64)
        lens[rows.verts] = rows.lens()
        starts[rows.verts] = rows.offsets[:-1] + piv.size
        idx, _ = _expand(starts, lens)
        return (
            np.concatenate(([0], np.cumsum(lens))),
            np.concatenate((piv, row_piv))[idx],
            np.concatenate((dst, row_dst))[idx],
        )

    # -- LabelStore accessors ------------------------------------------------
    def out_label(self, v: int) -> list[tuple[int, float]]:
        """``Lout(v)`` as a fresh (pivot, dist) list, sorted by pivot."""
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range [0, {self.n})")
        p, d, o, e = self.out_slice(v)
        return list(zip(p[o:e], d[o:e]))

    def in_label(self, v: int) -> list[tuple[int, float]]:
        """``Lin(v)`` as a fresh (pivot, dist) list, sorted by pivot."""
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range [0, {self.n})")
        p, d, o, e = self.in_slice(v)
        return list(zip(p[o:e], d[o:e]))

    # -- slice views (shared with the sharded store's query paths) -----------
    def out_slice(self, v: int):
        """``(pivots, dists, lo, hi)`` bounds of ``Lout(v)`` in the arrays.

        The uniform slice accessor the cross-store query paths (the
        sharded store joining labels from two different shards) use:
        a v2 store returns the raw arrays with bounds, a v3 store
        decoded per-slice lists (a rank-space label mapped back to
        vertex ids and re-sorted by id), and vertices with a staged
        update return their overlay arrays and pendants their derived
        label — any shape feeds the shared scalar helpers directly.
        """
        overlays = self._overlays
        if overlays is not None:
            staged = overlays[0]
            row = staged.row[v]
            if row >= 0:
                off = staged.offsets
                return staged.pivots, staged.dists, off[row], off[row + 1]
        if self.hang is not None and self.hang[v]:
            p, h = self._resolve(v)
            return derived_slice(v, h, *self.out_slice(p))
        if self.encoding == "v3":
            return self._decoded(0, v)
        o, e = self.out_offsets[v], self.out_offsets[v + 1]
        return self.out_pivots, self.out_dists, o, e

    def in_slice(self, v: int):
        """``(pivots, dists, lo, hi)`` bounds of ``Lin(v)`` in the arrays."""
        overlays = self._overlays
        if overlays is not None:
            staged = overlays[1]
            row = staged.row[v]
            if row >= 0:
                off = staged.offsets
                return staged.pivots, staged.dists, off[row], off[row + 1]
        if self.hang is not None and self.hang[v]:
            p, h = self._resolve(v)
            return derived_slice(v, h, *self.in_slice(p))
        if self.encoding == "v3":
            return self._decoded(int(self.directed), v)
        o, e = self.in_offsets[v], self.in_offsets[v + 1]
        return self.in_pivots, self.in_dists, o, e

    def _decoded(self, side: int, v: int):
        """``v``'s v3 label on ``side`` decoded, in vertex ids: a
        rank-space label mapped back and re-sorted by id."""
        piv, dst, own = self._label_columns()[side].row(v)
        if own >= 0:  # the implied self entry, last
            piv, dst = np.append(piv, own), np.append(dst, 0)
        if self.ranked:
            piv, dst = self.rank_space().ids(piv, dst)
        return piv.tolist(), dst.astype(np.float64).tolist(), 0, piv.size

    # -- querying ------------------------------------------------------------
    def _check(self, s: int, t: int) -> None:
        if not 0 <= s < self.n or not 0 <= t < self.n:
            raise IndexError(f"query ({s}, {t}) out of range [0, {self.n})")

    def query(self, s: int, t: int) -> float:
        """Exact ``dist(s, t)``; ``inf`` when unreachable.

        A v2 store joins its arrays in place: the smaller of the two
        labels is turned into a ``pivot -> dist`` dict at C speed and
        the larger side is probed through it, the minimum over common
        pivots being the same sum a merge join would return.  A v3
        label must be decoded before any join, and the batch kernel's
        row cache (:mod:`repro.oracle.kernel`) holds it decoded: a v3
        store answers from its hub rows and tails, filling the one or
        two rows the pair misses.  Pendant ends are resolved to their
        parents first.
        """
        self._check(s, t)
        if s == t:
            return 0.0
        if self.encoding == "v3":
            view = self._view
            if view is None:  # the kernel imports this module
                from repro.oracle.kernel import row_cache

                view = row_cache(self)
            return view.query(s, t)
        hang = self.hang
        if hang is None or not (hang[s] or hang[t]):
            return self._join(s, t)
        s, hs = self._resolve(s)
        t, ht = self._resolve(t)
        if s == t:
            return float(hs + ht)
        return hs + self._join(s, t) + ht

    def _join(self, s: int, t: int) -> float:
        """:func:`probe_min_distance` over the v2 slices of core
        vertices ``s != t``: the arrays in place, or the two slices as
        :meth:`out_slice` / :meth:`in_slice` hand them out while
        updates are staged."""
        if self._overlays is not None:
            return probe_min_distance(*self.out_slice(s), *self.in_slice(t))
        return probe_min_distance(
            self.out_pivots,
            self.out_dists,
            self.out_offsets[s],
            self.out_offsets[s + 1],
            self.in_pivots,
            self.in_dists,
            self.in_offsets[t],
            self.in_offsets[t + 1],
        )

    def _label_len(self, v: int, out: bool) -> int:
        """Current label length of ``v`` (overlay-aware)."""
        if self._overlays is not None:
            staged = self._overlays[0 if out else 1]
            row = staged.row[v]
            if row >= 0:
                return staged.offsets[row + 1] - staged.offsets[row]
        return self._base_len(v, out)

    def _base_len(self, v: int, out: bool) -> int:
        """Length of ``v``'s label in the columns, self entry counted."""
        offsets = self.out_offsets if out else self.in_offsets
        size = offsets[v + 1] - offsets[v]
        if self.implied and not (self.hang is not None and self.hang[v]):
            size += 1
        return size

    # -- statistics ----------------------------------------------------------
    def total_entries(self, include_trivial: bool = False) -> int:
        """Label entries (self entries excluded unless asked; an
        implied one counts as stored).

        A pendant's empty row counts nothing: not its derived entries,
        not a self entry.
        """
        sides = 2 if self.directed else 1
        total = len(self.out_pivots) + (len(self.in_pivots) if self.directed else 0)
        if self.implied:  # every core row's self entry
            peeled = 0 if self.hang is None else np.count_nonzero(_as_np(self.hang))
            total += sides * (self.n - int(peeled))
        for k, staged in enumerate((self._overlays or ())[:sides]):
            verts = staged.rows.verts
            offsets = _as_np((self.out_offsets, self.in_offsets)[k])
            total += len(staged.pivots) - int(
                (offsets[verts + 1] - offsets[verts]).sum()
            )
            if self.implied:  # the staged rows' implied self entries
                peeled = 0 if self.hang is None else np.count_nonzero(
                    _as_np(self.hang)[verts]
                )
                total -= verts.size - int(peeled)
        if include_trivial:
            return total
        return total - self.n * sides + self.pendants

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
        sides += self.patches or []
        total = 0
        for side in sides:
            for arr in side:
                total += len(arr) * arr.itemsize
        for staged in (self._overlays or ())[: 2 if self.directed else 1]:
            total += len(staged.pivots) * staged.pivots.itemsize
            total += len(staged.dists) * staged.dists.itemsize
        return total

    def stats(self) -> LabelStats:
        """Aggregate size statistics (the paper's |label| counts
        non-trivial entries; a pendant's empty row counts nothing)."""
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
        """Write the store as a file of its encoding, atomically (temp
        file + rename).

        Staged updates are folded in first (:meth:`encoded`), so the
        file always holds the merged labels."""
        if self.has_pending_updates:
            self.encoded(self.encoding, self.ranked).save(path)
            return
        sides = [(self.out_offsets, self.out_pivots, self.out_dists)]
        if self.directed:
            sides.append((self.in_offsets, self.in_pivots, self.in_dists))
        blobs = []
        for k, side in enumerate(sides):
            blobs += side
            if self.patches:  # count (at the offsets width), at, high
                at, high = self.patches[k]
                count = np.array([len(at)], _as_np(side[0]).dtype)
                blobs += [memoryview(count), at, high]
        if self.hang is not None:
            blobs += [self.parent, self.hang]
        with atomic_binary_writer(path) as fh:
            fh.write(_header(self))
            if self._rank is not None:
                rank = self.rank_column().astype(np.uint32)
                fh.write(_as_le_bytes(memoryview(rank)))
            for blob in blobs:
                fh.write(_as_le_bytes(blob))

    @classmethod
    def load(cls, path, use_mmap: bool = False, lo: int = 0) -> "FlatLabelStore":
        """Read a v2 or v3 file: one bulk read (or an ``mmap``) plus casts.

        There is no decode pass: the columns are served in the file's
        encoding.  With ``use_mmap=True`` they are zero-copy typed
        memoryviews over a shared read-only mapping, so a multi-GB
        index "loads" in microseconds and pages in on demand.  Raises
        ``ValueError`` on a wrong magic or version, invalid header
        widths, truncation, bytes after the last section, an offsets
        column or patch section out of its side's bounds, or a core
        vertex whose parent is not itself (``lo + v``: ``lo`` is a
        shard's first global id).
        """
        with open(path, "rb") as fh:
            encoding, flags, has_rank, n, counts, codes = _read_header(path, fh)
            if use_mmap and not _BIG_ENDIAN:
                mapping = _mmap.mmap(fh.fileno(), 0, access=_mmap.ACCESS_READ)
                body = memoryview(mapping)[fh.tell() :]
            else:
                # On big-endian hosts the blobs must be byteswapped, so
                # zero-copy views are impossible; fall back to copying.
                body = memoryview(fh.read())

        off_code, pivot_code, dist_code, high_code = codes
        cursor = _Cursor(path, body)
        try:
            rank = cursor.take("I", n) if has_rank else None
            sides, patches = [], []
            for count in counts:
                offsets = cursor.take(off_code, n + 1)
                _check_offsets(path, offsets, count)
                sides.append((
                    offsets,
                    cursor.take(pivot_code, count),
                    cursor.take(dist_code, count),
                ))
                if flags & 16:
                    patches.append(_take_patches(
                        path, cursor, off_code, high_code, count
                    ))
            parent = hang = None
            if flags & 2:
                parent, hang = cursor.take("i", n), cursor.take(dist_code, n)
                # hang 0 means "answers for itself", to every reader.
                core = np.flatnonzero(_as_np(hang) == 0)
                if (_as_np(parent)[core] != core + lo).any():
                    raise ValueError(
                        f"{path}: corrupt pendant section (a core vertex "
                        "names a parent other than itself)"
                    )
            cursor.finish()
        except ValueError:
            # Don't leak the mapping of a corrupt file: release every
            # exported view, then close the mmap before re-raising.
            cursor.abandon()
            raise
        store = cls(n, bool(flags & 1), *sides[0], *sides[-1], rank)
        store.encoding, store.ranked = encoding, bool(flags & 4)
        store.implied, store.lo = bool(flags & 8), lo
        store.patches = patches or None
        store.parent, store.hang = parent, hang
        if cursor.zero_copy:
            store._mmap = body.obj
        return store

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"FlatLabelStore(|V|={self.n}, {kind}, {self.encoding}, "
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
                _trailing_bytes(self.path, len(self.body) - self.pos)
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


def _header(store) -> bytes:
    """The header of ``store``'s file — the one writer of v2 and v3
    headers.  Flags: bit 0 directed, bit 1 a pendant section follows
    the label blobs; v3 only: bit 2 the pivots are rank positions,
    bit 3 core rows leave out their self entry, bit 4 each side has a
    patch section.  v3 appends the column widths, the last one the
    patches' high part (0 without)."""
    flags = (
        (1 if store.directed else 0) | (2 if store.hang is not None else 0)
        | (4 if store.ranked else 0) | (8 if store.implied else 0)
        | (16 if store.patches else 0)
    )
    head = _MAGIC + _HEADER.pack(
        _VERSIONS[store.encoding], flags, 0 if store._rank is None else 1,
        store.n, len(store.out_pivots),
        len(store.in_pivots) if store.directed else 0,
    )
    if store.encoding == "v3":
        head += _WIDTHS.pack(
            store.out_offsets.itemsize, store.pivot_width, store.dist_width,
            store.high_width,
        )
    return head


def _read_header(path, fh):
    """Parse the header of a v2 or v3 file — the one reader of both.

    Returns ``(encoding, flags, has_rank, n, counts, codes)``:
    ``counts`` the entry count of each side in the file, and ``codes``
    the typecodes of its (offsets, pivots, dists) columns and of the
    patches' high parts (None without patches).  A flag bit this
    reader does not know is an error, never ignored: v2 knows bits
    0-1, v3 bits 0-4.
    """
    head = fh.read(4 + _HEADER.size)
    if head[:4] != _MAGIC:
        raise ValueError(f"{path}: not a label index file")
    if len(head) < 4 + _HEADER.size:
        raise ValueError(f"{path}: truncated or corrupt index file")
    version, flags, has_rank, n, out_count, in_count = _HEADER.unpack(head[4:])
    if version == 2:
        encoding, codes = "v2", (*_V2_CODES, None)
    elif version == 3:
        widths = fh.read(_WIDTHS.size)
        if len(widths) < _WIDTHS.size:
            raise ValueError(f"{path}: truncated or corrupt index file")
        encoding, codes = "v3", []
        # The high-part width is 0 exactly when no patch section follows.
        high = {0: None} if not flags & 16 else PIVOT_CODES
        for name, table, width in zip(
            ("offset", "pivot", "distance", "high-part"),
            (OFFSET_CODES, PIVOT_CODES, DIST_CODES, high),
            _WIDTHS.unpack(widths),
        ):
            if width not in table:
                raise ValueError(
                    f"{path}: corrupt header ({name} width {width})"
                )
            codes.append(table[width])
    else:
        raise ValueError(
            f"{path}: not a v2/v3 index (version {version}); "
            "use load_store() to read any version"
        )
    _check_flags(path, flags, known=31 if version == 3 else 3)
    if flags & 1 and flags & 2:
        raise ValueError(
            f"{path}: corrupt header (pendant section on a directed index)"
        )
    if flags & 4 and not has_rank:
        raise ValueError(
            f"{path}: corrupt header (rank-space pivots without a rank column)"
        )
    if flags & 8 and not flags & 4:
        raise ValueError(
            f"{path}: corrupt header (implied self entries without "
            "rank-space pivots)"
        )
    counts = (out_count, in_count) if flags & 1 else (out_count,)
    return encoding, flags, has_rank, n, counts, codes


def _check_flags(path, flags: int, known: int) -> None:
    """Refuse a header whose flags set a bit outside ``known``."""
    if flags & ~known:
        raise ValueError(
            f"{path}: unknown header flag bits {flags:#04x}; written by a "
            "newer version of this library?"
        )


def _trailing_bytes(path, extra: int) -> str:
    return (
        f"{path}: {extra} bytes after the last section (corrupt index "
        "file, or a section its header flags do not announce)"
    )


def _take_patches(path, cursor, off_code, high_code, entries: int):
    """One side's patch section: a count at the offsets width, then as
    many positions (rising strictly, below ``entries``) and high parts.
    Returns ``(at, high)``."""
    (count,) = cursor.take(off_code, 1)
    if count > entries or not _rises_below(
        _as_np(at := cursor.take(off_code, count)), entries
    ):
        raise ValueError(
            f"{path}: corrupt patch section ({count} patches for {entries} "
            "entries; positions must rise strictly and stay below the "
            "entry count)"
        )
    return at, cursor.take(high_code, count)


def _rises_below(col, end: int) -> bool:
    return not col.size or bool(col[-1] < end and (col[1:] > col[:-1]).all())


def _check_offsets(path, offsets, count: int) -> None:
    """Refuse an offsets column that does not delimit ``count`` entries:
    it must start at 0, never decrease, and end at ``count``."""
    col = _as_np(offsets)
    ok = col[0] == 0 and col[-1] == count and not (col[1:] < col[:-1]).any()
    del col  # a live view would keep a refused file's mapping open
    if not ok:
        raise ValueError(
            f"{path}: corrupt offsets column (must run from 0 to the "
            f"entry count {count} without decreasing)"
        )


def frozen_views(*arrays) -> tuple:
    """Read-only typed memoryviews over freshly built numpy arrays.

    How array-built stores hold their columns: the same zero-copy
    ``memoryview`` shape an ``mmap`` load serves, immutable so any
    number of stores can share them.
    """
    for arr in arrays:
        arr.setflags(write=False)
    return tuple(map(memoryview, arrays))


def packed(
    n, directed, encoding, sides, parent=None, hang=None, rank=None, lo=0,
    ranked=False,
) -> FlatLabelStore:
    """A store of ``encoding`` over numpy label columns.

    ``sides`` holds ``(offsets, pivots, dists)`` per label side — one
    when undirected — as :meth:`FlatLabelStore.logical_columns` hands
    them out, as rank positions when ``ranked``; ``parent`` / ``hang``
    are the pendant columns or None.  v2 casts the columns to its
    fixed types; v3 stores what :func:`~repro.core.quantized._encode`
    makes of them, a rank-space store's self entries implied.
    """
    patches = None
    if encoding == "v3":
        selves = np.array(rank, dtype=np.int64) if ranked else None
        if ranked and hang is not None:
            selves[hang != 0] = -1
        sides, hang, patches = _encode(sides, hang, selves)
    else:
        sides = [
            (off.astype(np.int64), piv.astype(np.int32), dst.astype(np.float64))
            for off, piv, dst in sides
        ]
        hang = None if hang is None else hang.astype(np.float64)
    columns = [frozen_views(*side) for side in sides]
    if rank is not None:
        (rank,) = frozen_views(np.array(rank, dtype=np.uint32))
    store = FlatLabelStore(n, directed, *columns[0], *columns[-1], rank)
    store.encoding = encoding
    store.lo, store.ranked, store.implied = lo, ranked, ranked
    if patches is not None:
        store.patches = [frozen_views(*side) for side in patches]
    if hang is not None:
        store.parent, store.hang = frozen_views(parent.astype(np.int32), hang)
    return store


def drop_pendant_rows(store: "FlatLabelStore", parent, hang) -> "FlatLabelStore":
    """``store`` (array-built, over a core graph) with the pendants' rows
    emptied and ``parent`` / ``hang`` attached.

    A pendant is isolated in the core graph, so its row is exactly its
    self entry: one position per pendant is cut out of the columns.
    """
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
    peeled = FlatLabelStore(store.n, False, *side, *side, store._rank)
    peeled.parent, peeled.hang = frozen_views(
        np.asarray(parent, dtype=np.int32), hang
    )
    return peeled


def _as_le_bytes(blob) -> bytes:
    """Serialise an array or typed-memoryview blob as little-endian bytes."""
    if not _BIG_ENDIAN:
        return blob.tobytes()
    return _as_np(blob).byteswap().tobytes()


def load_store(path, prefer_flat: bool = True, use_mmap: bool = False, lo=0):
    """Open an index file of **any** format version as a
    :class:`FlatLabelStore`.

    Sniffs the version byte: v2 and v3 load in that encoding (the
    columns are served as stored — no decode pass; ``lo`` as in
    :meth:`FlatLabelStore.load`); v1 is read into v2 columns (see the
    module docstring), refused on the same grounds as v2/v3 (unknown
    flag bits, truncation, bytes after the last section).  ``prefer_flat``
    must be True: every file opens as a CSR store.
    """
    if not prefer_flat:
        raise ValueError(
            "prefer_flat=False is gone: every index opens as a FlatLabelStore"
        )
    with open(path, "rb") as fh:
        head = fh.read(5)
    if len(head) < 5 or head[:4] != _MAGIC:
        raise ValueError(f"{path}: not a label index file")
    if head[4] in _VERSIONS.values():
        return FlatLabelStore.load(path, use_mmap=use_mmap, lo=lo)
    with open(path, "rb") as fh:
        data = fh.read()
    return _load_v1(path, data)


def _load_v1(path, data: bytes) -> FlatLabelStore:
    """A v1 file's labels as a v2-encoded store.

    The per-vertex counts are walked once to cut out each label's
    entries; the joined entries are read with one structured
    ``np.frombuffer`` per side.
    """
    if len(data) < 11:
        raise ValueError(f"{path}: truncated or corrupt index file")
    version, flags, has_rank, n = struct.unpack_from("<BBBI", data, 4)
    if version != 1:
        raise ValueError(f"{path}: unsupported version {version}")
    _check_flags(path, flags, known=1)
    directed = bool(flags & 1)
    pos = 11
    entry = np.dtype([("pivot", "<u4"), ("dist", "<f8")])  # 12 bytes, packed
    try:
        rank = None
        if has_rank:
            rank = list(struct.unpack_from(f"<{n}I", data, pos))
            pos += 4 * n
        sides = []
        for _ in range(2 if directed else 1):
            counts = np.zeros(n + 1, dtype=np.int64)
            chunks = []
            for v in range(n):
                (count,) = struct.unpack_from("<I", data, pos)
                pos += 4
                chunks.append(data[pos : pos + count * entry.itemsize])
                counts[v + 1] = count
                pos += count * entry.itemsize
            if pos > len(data):
                raise ValueError(f"{path}: truncated or corrupt index file")
            entries = np.frombuffer(b"".join(chunks), dtype=entry)
            sides.append((np.cumsum(counts), entries["pivot"], entries["dist"]))
    except struct.error as exc:
        raise ValueError(f"{path}: truncated or corrupt index file") from exc
    if pos != len(data):
        raise ValueError(_trailing_bytes(path, len(data) - pos))
    return packed(n, directed, "v2", sides, rank=rank)
