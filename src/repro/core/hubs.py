"""The dense hub table shared by the build's pruning test and the query kernel.

On a scale-free graph a few top-ranked hubs hold most label entries,
so the hub part of a two-hop join is a dense, regular computation: a
vertex's entries to the hub pivots sit in a row of an ``n x k`` uint8
table, one column per hub, and a pair's hub part is
``min_j H_out[s, j] + H_in[t, j]`` (:func:`hub_min`) — no keys, no
sort, no probe.  The query kernel (:mod:`repro.oracle.kernel`) keeps
such a table per store; the build's pruning test
(:meth:`repro.core.arraystate.ArrayLabelState.prunable`) builds one
per round.

Cells are uint8: :data:`NO_ENTRY` where the row has no entry for the
column, else a distance of at most :data:`MAX_CELL` — so the sum of
two cells stays below :data:`NO_ENTRY` exactly when both are entries,
and never wraps.  A distance the rule does not admit
(:func:`misfit`) cannot go into a table.
"""

from __future__ import annotations

import numpy as np

NO_ENTRY = 127
MAX_CELL = 63

#: Pairs per pass of :func:`hub_min`: two ``pairs x k`` uint8 buffers
#: of this many rows stay inside the L2 cache.
HUB_PASS_PAIRS = 2048


def misfit(cell):
    """Mask of the distances a table cell cannot hold: fractional,
    negative or above :data:`MAX_CELL`."""
    if cell.dtype.kind == "u":  # v3's quantized distances are whole
        return cell > MAX_CELL
    return ~((cell >= 0) & (cell <= MAX_CELL) & (cell == np.floor(cell)))


def hub_min(out_table, in_table, S, T):
    """``min_j out_table[S[k], j] + in_table[T[k], j]`` as uint8.

    Below :data:`NO_ENTRY` exactly where the pair shares a column
    pivot.  The tables need at least one column.
    """
    best = np.empty(len(S), dtype=np.uint8)
    shape = (min(len(S), HUB_PASS_PAIRS), out_table.shape[1])
    a = np.empty(shape, dtype=np.uint8)
    b = np.empty(shape, dtype=np.uint8)
    for lo in range(0, len(S), HUB_PASS_PAIRS):
        hi = min(lo + HUB_PASS_PAIRS, len(S))
        m = hi - lo
        np.take(out_table, S[lo:hi], axis=0, out=a[:m], mode="clip")
        np.take(in_table, T[lo:hi], axis=0, out=b[:m], mode="clip")
        np.add(a[:m], b[:m], out=a[:m])
        np.min(a[:m], axis=1, out=best[lo:hi])
    return best
