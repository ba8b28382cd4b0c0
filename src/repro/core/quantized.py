"""Binary format v3: quantized distances + delta-encoded hub ids.

Format v2 (:mod:`repro.core.flatstore`) stores every label entry as a
32-bit pivot id plus a 64-bit float distance — 12 bytes per entry
before offsets.  The paper's serving story (Section 6) leans on a ~5
bytes/entry encoding to keep the index cache-resident; format v3 gets
below that by exploiting two facts about 2-hop labels:

* **pivot ids are sorted** inside each label, so storing successive
  differences (the first pivot, then deltas) makes the values small —
  one or two bytes each on scale-free graphs, where most labels point
  at the few globally top-ranked hubs;
* **distances are tiny** on small-diameter networks: unweighted (and
  integer-weighted) indexes fit every distance in one or two bytes.

Widths are chosen **per index** from the observed data and recorded in
the header, so decoding needs no guessing and pathological inputs
degrade gracefully (fractional or huge distances fall back to raw
``f64``; the answers stay bit-identical in every mode)::

    RPLI | u8 version=3 | u8 flags | u8 has_rank | u32 n
    u64 out_count | u64 in_count            (in_count 0 when undirected)
    u8 off_width(4|8) | u8 pivot_width(1|2|4) | u8 dist_width(1|2|8) | u8 0
    [rank:        n * u32]                  if has_rank
    out_offsets:  (n+1) * off_width
    out_pivots:   out_count * pivot_width   (per-label deltas)
    out_dists:    out_count * dist_width    (uint quantized, or raw f64)
    [in_offsets / in_pivots / in_dists]     if directed
    [parent: n * i32 | hang: n * dist_width]  if flags bit 1 (pendants)

The pendant section is :mod:`repro.core.flatstore`'s, with ``hang``
held at the distance width (the largest hang and its integrality take
part in choosing it).

:class:`QuantizedLabelStore` serves the compact arrays directly: an
mmap load is a handful of zero-copy casts (no decode pass), the
vectorized batch kernel (:mod:`repro.oracle.kernel`) consumes the
quantized arrays as-is, and the scalar reference paths decode only the
one or two label slices a query touches.  *Packing*
(:meth:`QuantizedLabelStore.from_flat`) chooses the widths and
computes the deltas with a few numpy array operations per side.
"""

from __future__ import annotations

import mmap as _mmap
import struct
from array import array

import numpy as np

from repro.core.flatstore import (
    _BIG_ENDIAN,
    _Cursor,
    _as_le_bytes,
    FlatLabelStore,
    derived_slice,
    file_flags,
    frozen_views,
    read_flags,
)
from repro.utils.atomicio import atomic_binary_writer

_MAGIC = b"RPLI"
_VERSION = 3
# version, flags, has_rank, n, out_count, in_count,
# off_width, pivot_width, dist_width, reserved
_HEADER = struct.Struct("<BBBIQQBBBB")

#: Typecode for each legal field width (validated on load).
_OFFSET_CODES = {4: "I", 8: "Q"}
_PIVOT_CODES = {1: "B", 2: "H", 4: "I"}
_DIST_CODES = {1: "B", 2: "H", 8: "d"}


def _decode_slice(pivots, dists, o: int, e: int) -> tuple[list, list]:
    """Decode one label slice: delta pivots -> absolute, dists -> float.

    Returns parallel lists in the exact shape the shared scalar
    helpers (:func:`~repro.core.flatstore.probe_min_distance` and
    friends) expect, so the quantized store reuses the single
    bit-identical evaluation implementation.
    """
    piv: list[int] = []
    dst: list[float] = []
    acc = 0
    for delta, d in zip(pivots[o:e], dists[o:e]):
        acc += delta
        piv.append(acc)
        dst.append(float(d))
    return piv, dst


def _choose_widths(max_delta, max_dist, integral: bool) -> tuple[int, int]:
    """``(pivot_width, dist_width)`` for the observed extremes.

    ``integral`` says every distance is a non-negative whole number.
    """
    pivot_width = 1 if max_delta <= 0xFF else 2 if max_delta <= 0xFFFF else 4
    if integral and max_dist <= 0xFF:
        dist_width = 1
    elif integral and max_dist <= 0xFFFF:
        dist_width = 2
    else:
        dist_width = 8
    return pivot_width, dist_width


def _offsets_code(sides) -> str:
    # One offsets width for both sides — the header records a single
    # off_width, so the larger side decides.
    return "I" if max(len(s[1]) for s in sides) <= 0xFFFFFFFF else "Q"


def _encode(sides, hang=None):
    """Choose the widths and pack v2-layout ``sides`` as v3 arrays.

    Returns ``(pivot_width, dist_width, [(offsets, pivots, dists), ...],
    hang)`` with ``hang`` (the pendant edges, or None) at the distance
    width.  The v2 blobs (``array.array`` or typed memoryviews) are
    read zero-copy; per side it is one ``diff`` for the deltas, one
    ``max`` and one integrality test for the widths, and three
    ``astype``.
    """
    columns = []
    max_delta = 0
    max_dist = 0.0
    integral = True
    for offsets, pivots, dists in sides:
        off, piv, dst = np.asarray(offsets), np.asarray(pivots), np.asarray(dists)
        delta = np.diff(piv, prepend=piv.dtype.type(0))
        # A label's first pivot is stored whole, not against the
        # previous label's last.
        first = off[:-1][off[:-1] < off[1:]]
        delta[first] = piv[first]
        if piv.size:
            max_delta = max(max_delta, int(delta.max()))
        columns.append((off, delta, dst))
    hang = np.zeros(0) if hang is None else np.asarray(hang)
    for dst in [side[2] for side in columns] + [hang]:
        if dst.size:
            max_dist = max(max_dist, float(dst.max()))
            whole = (dst >= 0) & (dst == np.trunc(dst))
            integral = integral and bool(whole.all())
    pivot_width, dist_width = _choose_widths(max_delta, max_dist, integral)
    dtypes = (
        np.dtype(_offsets_code(sides)),
        np.dtype(_PIVOT_CODES[pivot_width]),
        np.dtype(_DIST_CODES[dist_width]),
    )
    packed = [
        frozen_views(*(col.astype(dt) for col, dt in zip(side, dtypes)))
        for side in columns
    ]
    (hang,) = frozen_views(hang.astype(dtypes[2])) if hang.size else (None,)
    return pivot_width, dist_width, packed, hang


class QuantizedLabelStore(FlatLabelStore):
    """CSR label store over v3 compact arrays (delta pivots, narrow dists).

    Same :class:`~repro.core.labels.LabelStore` protocol, same answers,
    roughly a quarter of the bytes: ``out_pivots`` holds per-label
    deltas and ``out_dists`` holds width-``dist_width`` values
    (unsigned integers for quantized indexes, raw ``f64`` in the
    fallback mode).  Query paths decode the touched slices on the fly
    through :func:`_decode_slice` and then run the shared scalar
    helpers, so distances are bit-identical to the v2 store's;
    the batch kernel skips the decode entirely and consumes the
    compact arrays in vectorized form.
    """

    __slots__ = ("pivot_width", "dist_width")

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
        pivot_width: int = 4,
        dist_width: int = 8,
    ) -> None:
        super().__init__(
            n, directed, out_offsets, out_pivots, out_dists,
            in_offsets, in_pivots, in_dists, rank,
        )
        if pivot_width not in _PIVOT_CODES:
            raise ValueError(f"invalid pivot width {pivot_width}")
        if dist_width not in _DIST_CODES:
            raise ValueError(f"invalid distance width {dist_width}")
        self.pivot_width = pivot_width
        self.dist_width = dist_width

    @property
    def is_quantized(self) -> bool:
        """Whether distances are stored as unsigned integers."""
        return self.dist_width != 8

    # -- conversion ----------------------------------------------------------
    @classmethod
    def from_flat(cls, store: FlatLabelStore) -> "QuantizedLabelStore":
        """Compact a v2-layout store into delta/quantized arrays.

        Widths are chosen from the observed data: the distance width
        from the index "diameter" (the largest finite label distance),
        falling back to raw ``f64`` when any distance is fractional or
        beyond 16 bits; the pivot width from the largest delta.
        Staged updates on the source are folded in first.
        """
        if isinstance(store, QuantizedLabelStore):
            if store.has_pending_updates:
                return store.merged()
            return store
        if store.has_pending_updates:
            store = store.merged()
        sides = [(store.out_offsets, store.out_pivots, store.out_dists)]
        if store.directed:
            sides.append((store.in_offsets, store.in_pivots, store.in_dists))
        pivot_width, dist_width, packed, hang = _encode(sides, store.hang)
        oo, op, od = packed[0]
        io, ip, id_ = packed[-1]
        rank = list(store.rank) if store.rank is not None else None
        quantized = cls(
            store.n, store.directed, oo, op, od, io, ip, id_, rank,
            pivot_width=pivot_width, dist_width=dist_width,
        )
        quantized.parent, quantized.hang, quantized.lo = (
            store.parent, hang, store.lo
        )
        return quantized

    def merged(self) -> "QuantizedLabelStore":
        """Fold the staged overlay in, re-choosing the encoding widths.

        Updates can move the maxima the widths were chosen from (a
        longer distance, a larger pivot delta), so the merged arrays
        are re-encoded through :meth:`from_flat` rather than patched.
        """
        if not self.has_pending_updates:
            return self
        return QuantizedLabelStore.from_flat(super().merged())

    def to_flat(self) -> FlatLabelStore:
        """Expand back into a v2-layout :class:`FlatLabelStore`.

        Staged updates are folded in (the expansion decodes the base
        arrays directly, which an overlay would otherwise bypass)."""
        if self.has_pending_updates:
            return self.merged().to_flat()

        def unpack(offsets, pivots, dists):
            f_off = array("q", offsets)
            f_piv = array("i")
            f_dist = array("d")
            for v in range(self.n):
                piv, dst = _decode_slice(
                    pivots, dists, offsets[v], offsets[v + 1]
                )
                f_piv.extend(piv)
                f_dist.extend(dst)
            return f_off, f_piv, f_dist

        oo, op, od = unpack(self.out_offsets, self.out_pivots, self.out_dists)
        if self.directed:
            io, ip, id_ = unpack(
                self.in_offsets, self.in_pivots, self.in_dists
            )
        else:
            io, ip, id_ = oo, op, od
        rank = list(self.rank) if self.rank is not None else None
        flat = FlatLabelStore(
            self.n, self.directed, oo, op, od, io, ip, id_, rank
        )
        if self.hang is not None:
            flat.parent, flat.hang = self.parent, array("d", self.hang)
        flat.lo = self.lo
        return flat

    @classmethod
    def from_index(cls, index) -> "QuantizedLabelStore":
        """Pack a tuple-list :class:`~repro.core.labels.LabelIndex`."""
        return cls.from_flat(FlatLabelStore.from_index(index))

    # -- slice views (shared with the sharded store's query paths) -----------
    def out_slice(self, v: int):
        """``(pivots, dists, lo, hi)`` of ``Lout(v)``, decoded.

        Vertices with a staged update serve their overlay arrays
        directly — no decode needed (they are stored absolute)."""
        if self._delta_out:
            staged = self._delta_out.get(v)
            if staged is not None:
                return staged[0], staged[1], 0, len(staged[0])
        if self.hang is not None and self.hang[v]:
            p, h = self._resolve(v)
            return derived_slice(v, h, *self.out_slice(p))
        piv, dst = _decode_slice(
            self.out_pivots, self.out_dists,
            self.out_offsets[v], self.out_offsets[v + 1],
        )
        return piv, dst, 0, len(piv)

    def in_slice(self, v: int):
        """``(pivots, dists, lo, hi)`` of ``Lin(v)``, decoded."""
        if self._delta_in:
            staged = self._delta_in.get(v)
            if staged is not None:
                return staged[0], staged[1], 0, len(staged[0])
        if self.hang is not None and self.hang[v]:
            p, h = self._resolve(v)
            return derived_slice(v, h, *self.in_slice(p))
        piv, dst = _decode_slice(
            self.in_pivots, self.in_dists,
            self.in_offsets[v], self.in_offsets[v + 1],
        )
        return piv, dst, 0, len(piv)

    # -- querying ------------------------------------------------------------
    def _join(self, join, s: int, t: int):
        """``join`` over the two touched slices, decoded: the flat
        store's helpers, hence its bit-identical answers."""
        return join(*self.out_slice(s), *self.in_slice(t))

    # -- serialization -------------------------------------------------------
    def save(self, path) -> None:
        """Write binary format v3 atomically (temp file + rename).

        Staged updates are folded in (and the widths re-chosen) first,
        so the file always holds the merged labels."""
        if self.has_pending_updates:
            self.merged().save(path)
            return
        flags = file_flags(self)
        has_rank = 1 if self.rank is not None else 0
        out_count = len(self.out_pivots)
        in_count = len(self.in_pivots) if self.directed else 0
        off_width = self.out_offsets.itemsize
        pivot_code = _PIVOT_CODES[self.pivot_width]
        dist_code = _DIST_CODES[self.dist_width]
        off_code = _OFFSET_CODES[off_width]
        with atomic_binary_writer(path) as fh:
            fh.write(_MAGIC)
            fh.write(
                _HEADER.pack(
                    _VERSION, flags, has_rank, self.n, out_count, in_count,
                    off_width, self.pivot_width, self.dist_width, 0,
                )
            )
            if self.rank is not None:
                fh.write(_as_le_bytes(array("I", self.rank), "I"))
            sides = [
                (off_code, self.out_offsets),
                (pivot_code, self.out_pivots),
                (dist_code, self.out_dists),
            ]
            if self.directed:
                sides += [
                    (off_code, self.in_offsets),
                    (pivot_code, self.in_pivots),
                    (dist_code, self.in_dists),
                ]
            if self.hang is not None:
                sides += [("i", self.parent), (dist_code, self.hang)]
            for typecode, blob in sides:
                fh.write(_as_le_bytes(blob, typecode))

    @classmethod
    def load(cls, path, use_mmap: bool = False) -> "QuantizedLabelStore":
        """Read a v3 file: one bulk read (or an ``mmap``) plus casts.

        There is **no decode pass**: the compact arrays are served
        as-is (zero-copy typed memoryviews with ``use_mmap=True``) and
        decoded per touched slice at query time.  Raises ``ValueError``
        on wrong magic/version, invalid header widths, or truncation.
        """
        fh = open(path, "rb")
        with fh:
            head = fh.read(4 + _HEADER.size)
            if head[:4] != _MAGIC:
                raise ValueError(f"{path}: not a label index file")
            if len(head) < 4 + _HEADER.size:
                raise ValueError(f"{path}: truncated or corrupt index file")
            (
                version, flags, has_rank, n, out_count, in_count,
                off_width, pivot_width, dist_width, _reserved,
            ) = _HEADER.unpack(head[4:])
            if version != _VERSION:
                raise ValueError(
                    f"{path}: not a v3 quantized index (version {version}); "
                    "use load_store() to read any version"
                )
            if off_width not in _OFFSET_CODES:
                raise ValueError(
                    f"{path}: corrupt header (offset width {off_width})"
                )
            if pivot_width not in _PIVOT_CODES:
                raise ValueError(
                    f"{path}: corrupt header (pivot width {pivot_width})"
                )
            if dist_width not in _DIST_CODES:
                raise ValueError(
                    f"{path}: corrupt header (distance width {dist_width})"
                )
            if use_mmap and not _BIG_ENDIAN:
                body = memoryview(
                    _mmap.mmap(fh.fileno(), 0, access=_mmap.ACCESS_READ)
                )[4 + _HEADER.size :]
            else:
                body = memoryview(fh.read())

        off_code = _OFFSET_CODES[off_width]
        pivot_code = _PIVOT_CODES[pivot_width]
        dist_code = _DIST_CODES[dist_width]
        cursor = _Cursor(path, body)
        try:
            directed, peeled = read_flags(path, flags)
            rank = None
            if has_rank:
                rank = list(cursor.take("I", n))
            oo = cursor.take(off_code, n + 1)
            op = cursor.take(pivot_code, out_count)
            od = cursor.take(dist_code, out_count)
            if directed:
                io = cursor.take(off_code, n + 1)
                ip = cursor.take(pivot_code, in_count)
                id_ = cursor.take(dist_code, in_count)
            else:
                io, ip, id_ = oo, op, od
            parent = hang = None
            if peeled:
                parent, hang = cursor.take("i", n), cursor.take(dist_code, n)
            cursor.finish()
        except ValueError:
            cursor.abandon()
            raise
        store = cls(
            n, directed, oo, op, od, io, ip, id_, rank,
            pivot_width=pivot_width, dist_width=dist_width,
        )
        store.parent, store.hang = parent, hang
        if cursor.zero_copy:
            store._mmap = body.obj
        return store

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"QuantizedLabelStore(|V|={self.n}, {kind}, "
            f"entries={self.total_entries()}, "
            f"pivot_width={self.pivot_width}, dist_width={self.dist_width})"
        )
