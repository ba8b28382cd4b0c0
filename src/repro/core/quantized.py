"""The v3 codec: delta-encoded pivots and quantized distances.

Encoding v2 (:mod:`repro.core.flatstore`) stores every label entry as a
32-bit pivot id plus a 64-bit float distance — 12 bytes per entry
before offsets.  The paper's serving story (Section 6) leans on a ~5
bytes/entry encoding to keep the index cache-resident; encoding v3
gets below that by exploiting two facts about 2-hop labels:

* **pivots are sorted** inside each label, so storing successive
  differences (the first pivot whole, then deltas) makes the values
  small — one or two bytes each on scale-free graphs, where most
  labels point at the few globally top-ranked hubs;
* **distances are tiny** on small-diameter networks: unweighted (and
  integer-weighted) indexes fit every distance in one or two bytes.

A store that carries its ``rank`` column writes its pivots as **rank
positions** (``rank[p]``, 0 = the top hub; header flag bit 2), the way
PLL relabels vertices by rank: the hubs most labels point at become
the smallest numbers, so the deltas shrink (GLP-70k: largest delta
24,492 as positions against more than 65,535 as ids).  Each label is
then sorted by position, and its self entry comes last, because every
pivot outranks its owner.  :class:`RankSpace` is the one converter
between the two spaces.

Two more rules take the pivots to one byte (GLP-70k 0.78x, GLP-200k
0.52x of the bytes): a rank-space core row leaves out its self entry,
``(rank[v], 0)`` (flag bit 3), and the rare wider deltas are patched
in from a list per side (flag bit 4; Zukowski et al., ICDE 2006).

Widths are chosen **per index** from the observed data and recorded in
the header, so decoding needs no guessing and pathological inputs
degrade gracefully (fractional or huge distances fall back to raw
``f64``; the answers stay bit-identical in every mode)::

    RPLI | u8 version=3 | u8 flags | u8 has_rank | u32 n
    u64 out_count | u64 in_count            (in_count 0 when undirected)
    u8 off_width(4|8) | u8 pivot_width(1|2|4) | u8 dist_width(1|2|8)
    u8 high_width(1|2|4 with flag bit 4, else 0)
    [rank:        n * u32]                  if has_rank
    out_offsets:  (n+1) * off_width         (stored entries)
    out_pivots:   out_count * pivot_width   (per-label deltas, low bytes)
    out_dists:    out_count * dist_width    (uint quantized, or raw f64)
    [count | at: count * off_width | high: count * high_width]  if bit 4
    [in_offsets / in_pivots / in_dists / in patches]   if directed
    [parent: n * i32 | hang: n * dist_width]  if flags bit 1 (pendants)

Flag bit 2 needs ``has_rank`` and bit 3 needs bit 2; a v3 reader
refuses bits 5-7.  The pendant section is v2's, with ``hang`` held at
the distance width (the largest hang and its integrality take part in
choosing it); ``parent`` holds vertex ids in either pivot space.

This module is the codec only: :class:`~repro.core.flatstore.FlatLabelStore`
holds either encoding, encodes through :func:`_encode` and reads its
columns back through :class:`LabelColumns`, the one decoder.  A query
decodes a label once, when the batch kernel's row cache
(:mod:`repro.oracle.kernel`) first fills its row; distances never
need the rank map.  The label reads (``out_label`` / ``out_slice``)
map a rank-space label back through :class:`RankSpace`.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

#: Typecode for each legal field width (validated on load).
OFFSET_CODES = {4: "I", 8: "Q"}
PIVOT_CODES = {1: "B", 2: "H", 4: "I"}
DIST_CODES = {1: "B", 2: "H", 8: "d"}


def _expand(starts, lens):
    """Positions of the slices ``starts[k] : starts[k] + lens[k]``.

    Returns ``(idx, seg0)``: every slice's positions laid end to end,
    and each slice's start in that order.
    """
    total = int(lens.sum())
    seg0 = lens.cumsum() - lens
    idx = np.arange(total, dtype=np.int64) + (starts - seg0).repeat(lens)
    return idx, seg0


def pivot_deltas(offsets, pivots):
    """v3 pivot column (int64) of the absolute ``pivots`` of CSR labels.

    Every entry becomes its step from the entry before it, except a
    label's first pivot, which is stored whole.
    """
    piv = np.asarray(pivots, dtype=np.int64)
    delta = np.diff(piv, prepend=np.int64(0))
    off = np.asarray(offsets)
    first = off[:-1][off[:-1] < off[1:]]
    delta[first] = piv[first]
    return delta


def absolute_pivots(deltas, lens):
    """Absolute pivot ids (int64) of consecutive v3 labels.

    ``deltas`` holds the labels' whole deltas (patches applied) laid
    end to end and ``lens`` (int64) their lengths.  The absolute id is
    the running sum within a label: one cumulative sum over every
    entry, minus each label's base.
    """
    run = np.cumsum(deltas, dtype=np.int64)
    if not run.size:
        return run
    full = lens > 0
    first = (np.cumsum(lens) - lens)[full]
    return run - np.repeat(run[first] - deltas[first], lens[full])


class LabelColumns:
    """One label side as its file stores it, and the one rule that
    reads it back: numpy views of the stored columns, whether the
    pivots are v3 deltas, the ``(at, high)`` patches (flag bit 4), and
    ``selves[v]``, the pivot of ``v``'s implied self entry or -1 (None
    when the side stores its self entries; flag bit 3).
    :meth:`gather` reads many labels, :meth:`row` one; both hand out
    absolute pivots in the file's space, each self entry last.
    """

    __slots__ = (
        "offsets", "pivots", "dists", "delta", "at", "high", "selves",
        "_table",
    )

    def __init__(
        self, offsets, pivots, dists, delta=False, patches=None, selves=None
    ) -> None:
        self.offsets, self.pivots, self.dists = offsets, pivots, dists
        self.delta, self.selves = delta, selves
        none = np.empty(0, dtype=np.int64)
        at, self.high = (none, none) if patches is None else patches
        self.at = at.astype(np.int64)  # u64 offsets would index as floats
        self._table = None

    def gather(self, local):
        """The labels of the local vertices ``local`` (int64).

        Returns ``(pivots, dists, lens)``: every entry's absolute pivot
        (int64) and distance (float64) laid end to end, and the label
        lengths.
        """
        starts = self.offsets[local].astype(np.int64)
        lens = self.offsets[local + 1].astype(np.int64) - starts
        idx, seg0 = _expand(starts, lens)
        piv = self.pivots[idx].astype(np.int64)
        dist = self.dists[idx].astype(np.float64, copy=False)
        if self.delta:
            if self.at.size:
                lo = self.at.searchsorted(starts)
                count = self.at.searchsorted(starts + lens) - lo
                k, _ = _expand(lo, count)
                piv[self.at[k] + (seg0 - starts).repeat(count)] += (
                    self.high[k].astype(np.int64) << 8 * self.pivots.itemsize
                )
            piv = absolute_pivots(piv, lens)
        if self.selves is not None:
            own = self.selves[local]
            core = own >= 0
            ends = (seg0 + lens)[core]
            piv = np.insert(piv, ends, own[core])
            dist = np.insert(dist, ends, 0.0)
            lens = lens + core
        return piv, dist, lens

    def row(self, v: int):
        """:meth:`gather` for the one local vertex ``v``: ``(pivots,
        dists, own)``, ``own`` the implied self entry's pivot or -1, for
        the caller to put last.  One row of a table made on first use
        holds the label's start and ``own``; one bisection of the sorted
        patch positions finds the label's patches, so making the table
        searches nothing."""
        if not self.delta:
            o, e = self.offsets[v : v + 2].tolist()
            return self.pivots[o:e], self.dists[o:e], -1
        if self._table is None:
            off = self.offsets.astype(np.int64)
            own = np.full(off.size, -1)
            if self.selves is not None:
                own[:-1] = self.selves
            wide = self.high.astype(np.int64) << 8 * self.pivots.itemsize
            self._table = (
                np.stack((off, own), 1),
                # Typed memoryviews index to Python ints faster than numpy.
                *(memoryview(a).cast("B").cast(a.dtype.char) for a in (self.at, wide)),
            )
        table, at, wide = self._table
        (o, own), (e, _) = table[v : v + 2].tolist()
        piv, dist = self.pivots[o:e], self.dists[o:e]
        k = bisect_left(at, o)
        if k < len(at) and at[k] < e:
            piv = piv.astype(np.int64)
            while k < len(at) and at[k] < e:
                piv[at[k] - o] += wide[k]
                k += 1
        return np.add.accumulate(piv, dtype=np.int64), dist, own


def _relabel(table, pivots, dists, lens=None):
    """Labels laid end to end (``lens`` long each; one label when None)
    with every pivot mapped through ``table`` and each label re-sorted
    by its new pivots.  Returns int64 pivots and the dists reordered."""
    new = table[pivots]
    if lens is None or lens.size < 2:
        order = new.argsort()
    else:
        # One sort by (label, new pivot): labels stay where they were.
        owner = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
        order = (owner * table.size + new).argsort()
    return new[order], dists[order]


class RankSpace:
    """Vertex ids and rank positions of one store's ``rank`` column.

    ``position[v]`` is ``rank[v]`` and ``vertex[r]`` the vertex at rank
    ``r``.  The one place pivots cross between the two spaces: a
    rank-space v3 store converts its columns to positions when it is
    encoded, its staged rows (which hold vertex ids) when the kernel
    fills them, and every pivot it hands out back to a vertex id; its
    implied self entries are ``position``.  Built on first use and
    refused with ``ValueError`` unless ``rank`` is a permutation of
    ``range(n)``.
    """

    __slots__ = ("position", "vertex")

    def __init__(self, rank) -> None:
        position = np.asarray(rank, dtype=np.int64)
        n = position.size
        vertex = np.full(n, -1, dtype=np.int64)
        inside = bool(((position >= 0) & (position < n)).all())
        if inside:
            vertex[position] = np.arange(n, dtype=np.int64)
        if not inside or (vertex < 0).any():
            raise ValueError(
                "corrupt rank column: not a permutation of the vertices"
            )
        self.position, self.vertex = position, vertex

    def positions(self, pivots, dists, lens=None):
        """Labels of vertex-id pivots as rank positions, each re-sorted."""
        return _relabel(self.position, pivots, dists, lens)

    def ids(self, pivots, dists, lens=None):
        """Labels of rank-position pivots as vertex ids, each re-sorted."""
        return _relabel(self.vertex, pivots, dists, lens)


def _width(value) -> int:
    """Bytes of the narrowest unsigned column (1, 2 or 4) holding ``value``."""
    return 1 if value <= 0xFF else 2 if value <= 0xFFFF else 4


def _without_selves(offsets, pivots, dists, selves):
    """One side with every core label's last entry, ``(selves[v], 0)``,
    cut off; ``ValueError`` for a core label that does not end so."""
    core = np.flatnonzero(selves >= 0)
    last = offsets[core + 1] - 1
    if not ((last >= offsets[core]).all() and (pivots[last] == selves[core]).all()
            and not dists[last].any()):
        raise ValueError(
            "a rank-space label does not end with its self entry; "
            "refusing to write a v3 file that would decode differently"
        )
    cut = np.zeros(offsets.size, dtype=np.int64)
    cut[core + 1] = 1
    return offsets - np.cumsum(cut), np.delete(pivots, last), np.delete(dists, last)


def _encode(sides, hang=None, selves=None):
    """The stored v3 columns of label ``sides``: ``(offsets, pivots,
    dists)`` numpy columns per side, pivots absolute and each label
    whole.  ``hang`` is the pendant edges or None, ``selves`` each
    vertex's self entry pivot (-1 for a pendant) when they are to be
    implied, else None.  Returns ``(sides, hang, patches)``: pivots as
    per-label deltas and every column at the narrowest width, the
    pivots at one byte with ``patches`` (per side ``(at, high)``) when
    that is smaller, else None.
    """
    if selves is not None:
        sides = [_without_selves(*side, selves) for side in sides]
    sides = [(off, pivot_deltas(off, piv), dst) for off, piv, dst in sides]
    max_delta = max((int(piv.max()) for _, piv, _ in sides if piv.size), default=0)
    max_dist = 0.0
    integral = True
    dists = [dst for _, _, dst in sides] + ([] if hang is None else [hang])
    for dst in dists:
        if dst.size:
            max_dist = max(max_dist, float(dst.max()))
            if dst.dtype.kind != "u":
                whole = (dst >= 0) & (dst == np.trunc(dst))
                integral = integral and bool(whole.all())
    # Distances are quantized when every one is a whole number <= 65535.
    pivot_width = _width(max_delta)
    dist_width = _width(max_dist) if integral and max_dist <= 0xFFFF else 8
    # One offsets width for both sides — the header records a single
    # off_width, so the larger side decides.
    entries = max(piv.size for _, piv, _ in sides)
    off_width = 4 if entries <= 0xFFFFFFFF else 8
    patches = None
    if pivot_width > 1:  # a patch: position and high part; a side: count
        wide = [np.flatnonzero(piv > 0xFF) for _, piv, _ in sides]
        high_width = _width(max_delta >> 8)
        stored = sum(piv.size for _, piv, _ in sides)
        patched = stored + sum(at.size for at in wide) * (
            off_width + high_width
        ) + len(sides) * off_width
        if patched < stored * pivot_width:
            high = np.dtype(PIVOT_CODES[high_width])
            patches = [
                (at.astype(OFFSET_CODES[off_width]), (piv[at] >> 8).astype(high))
                for at, (_, piv, _) in zip(wide, sides)
            ]
            sides = [(off, piv & 0xFF, dst) for off, piv, dst in sides]
            pivot_width = 1
    dtypes = (
        np.dtype(OFFSET_CODES[off_width]),
        np.dtype(PIVOT_CODES[pivot_width]),
        np.dtype(DIST_CODES[dist_width]),
    )
    narrow = [
        tuple(col.astype(dt) for col, dt in zip(side, dtypes)) for side in sides
    ]
    if hang is not None:
        hang = hang.astype(dtypes[2])
    return narrow, hang, patches


class QuantizedLabelStore:
    """The v3 packer under its historical name.

    ``QuantizedLabelStore.from_index(labels)`` is
    ``FlatLabelStore.from_index(labels).encoded("v3")``: a v3-encoded
    :class:`~repro.core.flatstore.FlatLabelStore`, whose ``save``
    writes a v3 file.
    """

    @staticmethod
    def from_index(index):
        from repro.core.flatstore import FlatLabelStore

        return FlatLabelStore.from_index(index).encoded("v3")
