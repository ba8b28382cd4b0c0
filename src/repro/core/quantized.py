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
24,492 as positions against more than 65,535 as ids, so 2-byte pivots
instead of 4).  Each label is then sorted by position, and its self
entry comes last, because every pivot outranks its owner.
:class:`RankSpace` is the one converter between the two spaces.

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

Flag bit 2 needs ``has_rank``; a v3 reader refuses bits 3-7.  The
pendant section is v2's, with ``hang`` held at the distance width (the
largest hang and its integrality take part in choosing it); ``parent``
holds vertex ids in either pivot space.

This module is the codec only: :class:`~repro.core.flatstore.FlatLabelStore`
holds either encoding, reads and writes both, and re-encodes a whole
store through :func:`pivot_deltas`, :func:`absolute_pivots`,
:class:`RankSpace` and :func:`_encode`.  A query decodes a label once,
when the batch kernel's row cache (:mod:`repro.oracle.kernel`) first
fills its row — a batch with :func:`absolute_pivots`, a single pair's
``query`` with one running sum over the label — and reads the decoded
row from then on; distances never need the rank map.  The label reads
(``out_label`` / ``out_slice``: k-NN, paths, ``verify``, a sharded
store's scalar join) decode their slice — with :func:`decode_slice`,
or on a rank-space store with one running sum mapped back through
:class:`RankSpace` — and hand out vertex ids sorted by id.
"""

from __future__ import annotations

import numpy as np

#: Typecode for each legal field width (validated on load).
OFFSET_CODES = {4: "I", 8: "Q"}
PIVOT_CODES = {1: "B", 2: "H", 4: "I"}
DIST_CODES = {1: "B", 2: "H", 8: "d"}


def decode_slice(pivots, dists, o: int, e: int) -> tuple[list, list]:
    """Decode one label slice: delta pivots -> absolute, dists -> float.

    Returns parallel lists in the exact shape the shared scalar
    helpers (:func:`~repro.core.flatstore.probe_min_distance` and
    friends) expect, so a v3 store reuses the single bit-identical
    evaluation implementation.  The pivots are in the file's space:
    rank positions on a rank-space store.
    """
    piv: list[int] = []
    dst: list[float] = []
    acc = 0
    for delta, d in zip(pivots[o:e], dists[o:e]):
        acc += delta
        piv.append(acc)
        dst.append(float(d))
    return piv, dst


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

    ``deltas`` holds the labels' entries laid end to end and ``lens``
    (int64) their lengths.  The absolute id is the running sum within
    a label: one cumulative sum over every entry, minus each label's
    base.  The one decoder of whole columns: the batch kernel's row
    fill and :meth:`~repro.core.flatstore.FlatLabelStore.encoded`.
    """
    run = np.cumsum(deltas, dtype=np.int64)
    if not run.size:
        return run
    full = lens > 0
    first = (np.cumsum(lens) - lens)[full]
    return run - np.repeat(run[first] - deltas[first], lens[full])


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
    fills them, and every pivot it hands out back to a vertex id.
    Built on first use and refused with ``ValueError`` unless ``rank``
    is a permutation of ``range(n)``.
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


def _encode(sides, hang=None):
    """Choose the widths for v3 ``sides`` and narrow the columns to them.

    ``sides`` are ``(offsets, pivot deltas, dists)`` numpy columns per
    label side (:func:`pivot_deltas`) and ``hang`` the pendant edges,
    or None.  Returns ``(sides, hang)`` at the chosen widths: one
    ``max`` and one integrality test per column, then three
    ``astype``.
    """
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
    pivot_width, dist_width = _choose_widths(max_delta, max_dist, integral)
    # One offsets width for both sides — the header records a single
    # off_width, so the larger side decides.
    entries = max(piv.size for _, piv, _ in sides)
    dtypes = (
        np.dtype(OFFSET_CODES[4 if entries <= 0xFFFFFFFF else 8]),
        np.dtype(PIVOT_CODES[pivot_width]),
        np.dtype(DIST_CODES[dist_width]),
    )
    narrow = [
        tuple(col.astype(dt) for col, dt in zip(side, dtypes)) for side in sides
    ]
    if hang is not None:
        hang = hang.astype(dtypes[2])
    return narrow, hang


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
