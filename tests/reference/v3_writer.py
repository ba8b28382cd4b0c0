"""Writer of the first v3 layout, kept so the reader of it stays tested.

v3 files written before header flag bits 3 and 4 existed store every
entry — a rank-space label's self entry, its last, included — and
every pivot delta at one width, the largest delta's (1, 2 or 4
bytes); header byte 30 is 0 and no patch section follows a side.  The
package still opens them, and ``repro convert old.v3 -o new.v3``
rewrites them in the current layout.  This writer produces that
layout from any store's labels, from first principles::

    RPLI | u8 version=3 | u8 flags (bits 0-2) | u8 has_rank | u32 n
    u64 out_count | u64 in_count
    u8 off_width=4 | u8 pivot_width | u8 dist_width | u8 0
    [rank: n * u32] | per side: offsets, pivot deltas, dists
    [parent: n * i32 | hang: n * dist_width]

Importable as ``tests.reference.v3_writer`` (the repository root is on
the pytest ``pythonpath``).
"""

from __future__ import annotations

import struct

import numpy as np

from repro.utils.atomicio import atomic_binary_writer


def _width(value: int) -> int:
    return 1 if value <= 0xFF else 2 if value <= 0xFFFF else 4


def write_v3_stored(store, path, ranked: bool = True) -> None:
    """Write ``store``'s labels to ``path`` in the first v3 layout.

    With ``ranked`` (and a rank column) the pivots are rank positions,
    each label re-sorted by position; otherwise vertex ids.
    """
    flat = store.encoded("v2")  # absolute ids, every entry, nothing staged
    n, directed = flat.n, flat.directed
    rank = None if flat.rank is None else np.asarray(flat.rank, dtype=np.int64)
    ranked = ranked and rank is not None
    sides = [(flat.out_offsets, flat.out_pivots, flat.out_dists)]
    if directed:
        sides.append((flat.in_offsets, flat.in_pivots, flat.in_dists))
    columns = []
    for offsets, pivots, dists in sides:
        off = np.asarray(offsets, dtype=np.int64)
        piv = np.asarray(pivots, dtype=np.int64)
        dst = np.asarray(dists, dtype=np.float64)
        if ranked:
            owner = np.repeat(np.arange(n), np.diff(off))
            order = np.lexsort((rank[piv], owner))
            piv, dst = rank[piv][order], dst[order]
        delta = np.diff(piv, prepend=0)
        first = off[:-1][off[:-1] < off[1:]]
        delta[first] = piv[first]
        columns.append((off, delta, dst))
    hang = None if flat.hang is None else np.asarray(flat.hang)
    every = np.concatenate([dst for _, _, dst in columns] + (
        [] if hang is None else [hang]
    ))
    whole = bool(((every >= 0) & (every == np.trunc(every))).all())
    top = float(every.max()) if every.size else 0.0
    dist_width = 1 if whole and top <= 0xFF else 2 if whole and top <= 0xFFFF else 8
    dist_type = {1: "<u1", 2: "<u2", 8: "<f8"}[dist_width]
    largest = max((int(d.max()) for _, d, _ in columns if d.size), default=0)
    pivot_width = _width(largest)
    pivot_type = {1: "<u1", 2: "<u2", 4: "<u4"}[pivot_width]
    flags = (1 if directed else 0) | (2 if hang is not None else 0)
    flags |= 4 if ranked else 0
    counts = [d.size for _, d, _ in columns] + [0]
    with atomic_binary_writer(path) as fh:
        fh.write(b"RPLI")
        fh.write(struct.pack(
            "<BBBIQQ", 3, flags, 0 if rank is None else 1, n,
            counts[0], counts[1] if directed else 0,
        ))
        fh.write(struct.pack("<BBBB", 4, pivot_width, dist_width, 0))
        if rank is not None:
            fh.write(rank.astype("<u4").tobytes())
        for off, delta, dst in columns:
            fh.write(off.astype("<u4").tobytes())
            fh.write(delta.astype(pivot_type).tobytes())
            fh.write(dst.astype(dist_type).tobytes())
        if hang is not None:
            fh.write(np.asarray(flat.parent).astype("<i4").tobytes())
            fh.write(hang.astype(dist_type).tobytes())
