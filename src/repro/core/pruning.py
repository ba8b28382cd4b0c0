"""Candidate admission and label pruning (Sections 3.1 and 3.3).

Each indexing iteration stages the candidates produced by the rule
engine and then prunes them:

* **admission** — a generated entry for pair ``a -> b`` "becomes a new
  label entry ... if there is no existing label entry for ``a -> b``,
  or ``d`` is a smaller distance" (Section 3.1).  Admitted candidates
  are inserted into the store immediately so that candidates of the
  same iteration can prune each other, which the proof of Lemma 6
  relies on;
* **pruning** — an admitted entry ``(a -> b, d)`` is removed when label
  entries ``(a -> w, d1)`` and ``(w -> b, d2)`` with ``d1 + d2 <= d``
  exist (Section 3.3).  The check is exactly a 2-hop distance query
  that ignores the entry's own trivial route through itself.

Theorem 3 guarantees that *canonical* entries — those whose pivot is
the highest-ranked vertex on some shortest path — can never be pruned,
which keeps querying exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.labels import INF


@dataclass(frozen=True)
class PruneOutcome:
    """Counters for one iteration's admission + pruning pass.

    ``raw_generated``     rule applications (duplicates included);
    ``distinct_generated`` distinct pairs offered by the rules;
    ``admitted``          candidates that improved on existing entries;
    ``pruned``            admitted candidates removed by the 2-hop test;
    ``survived``          admitted - pruned (the next iteration's prev).
    """

    raw_generated: int
    distinct_generated: int
    admitted: int
    pruned: int

    @property
    def survived(self) -> int:
        return self.admitted - self.pruned


def admit_and_prune_arrays(state, batch, prune: bool = True):
    """Stage one round's candidates, prune, return the survivors.

    ``state`` is a :class:`repro.core.arraystate.ArrayLabelState` and
    ``batch`` a :class:`repro.core.rules.CandidateBatch`; returns the
    surviving entries (the next round's ``prevLabel``) as a
    :class:`~repro.core.arraystate.PrevBlock` plus the round's
    :class:`PruneOutcome` counters.  With ``prune=False`` only
    admission (duplicate suppression) is applied — the configuration
    the ablation benchmarks use to expose how essential pruning is.

    Pruning is two-pass (snapshot): bounds are evaluated with *all*
    staged candidates present, then the removals land together.
    Pruning an entry through a route that is itself pruned stays sound
    — every entry's distance is the length of a real path — and the
    snapshot makes the outcome independent of evaluation order.
    """
    from repro.core.arraystate import PrevBlock

    raw = batch.raw
    a, b, dist, hops = batch.dedupe()
    distinct = int(a.size)
    if not prune:
        admitted_mask = state.admit(a, b, dist, hops)
        a, b, dist, hops = (
            a[admitted_mask],
            b[admitted_mask],
            dist[admitted_mask],
            hops[admitted_mask],
        )
        return PrevBlock(a, b, dist, hops), PruneOutcome(
            raw_generated=raw,
            distinct_generated=distinct,
            admitted=int(a.size),
            pruned=0,
        )

    # Admission is *deferred*: candidates stage in small per-side
    # overlays that prunable joins alongside the base arrays, and only
    # the survivors are merged in (state.commit_staged), so the doomed
    # majority of a round never touches the O(index) base arrays.
    admitted_mask = state.stage(a, b, dist, hops)
    a, b, dist, hops = (
        a[admitted_mask],
        b[admitted_mask],
        dist[admitted_mask],
        hops[admitted_mask],
    )
    admitted = int(a.size)
    doomed = state.prunable(a, b, dist)
    state.commit_staged(a, b, dist, hops, doomed)
    keep = ~doomed
    survivors = PrevBlock(a[keep], b[keep], dist[keep], hops[keep])
    return survivors, PruneOutcome(
        raw_generated=raw,
        distinct_generated=distinct,
        admitted=admitted,
        pruned=int(doomed.sum()),
    )


def exhaustive_prune(state) -> int:
    """Re-run the pruning test over *all* non-trivial entries until fixpoint.

    Section 5.2 notes that Hop-Doubling "by exhaustive pruning" reaches
    the same label size as Hop-Stepping; this post-pass is that sweep
    over an :class:`~repro.core.arraystate.ArrayLabelState`.  Entries
    are visited in :func:`_canonical_entry_order`, and a removal is
    seen by every later test of the same sweep, so the order is part
    of the contract.

    Removing an entry can only *weaken* the bounds of the others, so
    an entry whose bound over the whole state at the start of a sweep
    already exceeds its distance survives the sweep whatever is
    removed before its turn.  One vectorized :meth:`prunable
    <repro.core.arraystate.ArrayLabelState.prunable>` over every entry
    therefore screens the sweep, and only the flagged entries are
    tested one by one, in order (:func:`_sweep`) — the same removals a
    per-entry pass over all of them makes.  For the same reason the
    first sweep already removes everything removable; confirming the
    fixpoint re-checks only the **dirty set**, the entries with a
    source whose ``Lout`` or a target whose ``Lin`` (the owner's
    ``L`` when undirected) lost an entry.  Removals are recorded in
    the state's touched sets.  Returns the number of entries removed.
    """
    a, b, dist, is_out = _pair_columns(state)
    removed_total = 0
    while a.size:
        screened = np.flatnonzero(state.prunable(a, b, dist))
        a, b, dist, is_out = (col[screened] for col in (a, b, dist, is_out))
        gone = _sweep(state, a, b, dist, is_out)
        if not gone.any():
            break
        a, b, is_out = a[gone], b[gone], is_out[gone]
        state.remove(a, b)
        removed_total += int(a.size)
        # The bound of a pair (x, y) joins Lout(x) with Lin(y): a
        # removed out-entry dirties its source, an in-entry its target.
        src = np.zeros(state.n, dtype=bool)
        dst = np.zeros(state.n, dtype=bool)
        src[a[is_out]] = True
        dst[b[~is_out]] = True
        if not state.directed:
            src |= dst
            dst = src
        a, b, dist, is_out = _pair_columns(state)
        dirty = src[a] | dst[b]
        a, b, dist, is_out = (col[dirty] for col in (a, b, dist, is_out))
    return removed_total


def _pair_columns(state):
    """Every stored entry as ``(a, b, dist, is_out)`` columns.

    ``a -> b`` is the entry's pair (``(owner, pivot)`` when
    undirected) and ``is_out`` whether it lives in ``Lout(a)``.
    """
    sides = [(state.out, True)]
    if state.directed:
        sides.append((state.inn, False))
    columns = [
        (
            side.owner if is_out else side.piv,
            side.piv if is_out else side.owner,
            side.dist,
            np.full(len(side), is_out),
        )
        for side, is_out in sides
    ]
    return [np.concatenate(col) for col in zip(*columns)]


def _canonical_entry_order(rank, a, b, is_out):
    """Visit order of a sweep: lowest-priority pivot first, then owner,
    then the out-side entry before the in-side one.

    A fixed order makes the sweep deterministic for any source of the
    same entry set.
    """
    pivot = np.where(is_out, b, a)
    owner = np.where(is_out, a, b)
    return np.lexsort((~is_out, owner, -rank[pivot]))


def _sweep(state, a, b, dist, is_out):
    """Test the entries ``a -> b`` one by one, in canonical order,
    each against the labels the earlier removals left; returns the
    mask of the entries removed.

    Labels are plain ``{pivot: dist}`` dicts of the non-trivial
    entries, made on first use.  With the self entries left out, the
    join of ``Lout(a)`` with ``Lin(b)`` cannot meet the entry's own
    route, so no pivot needs excluding.
    """
    out_row = _rows(state.out)
    in_row = _rows(state.inn) if state.directed else out_row
    gone = np.zeros(a.size, dtype=bool)
    order = _canonical_entry_order(state.rank, a, b, is_out)
    for i, x, y, d, out in zip(
        order.tolist(),
        a[order].tolist(),
        b[order].tolist(),
        dist[order].tolist(),
        is_out[order].tolist(),
    ):
        lx, ly = out_row(x), in_row(y)
        small, large = (lx, ly) if len(lx) <= len(ly) else (ly, lx)
        bound = INF
        for w, d1 in small.items():
            d2 = large.get(w)
            if d2 is not None and d1 + d2 < bound:
                bound = d1 + d2
        if bound <= d:
            if out:
                del lx[y]
            else:
                del ly[x]
            gone[i] = True
    return gone


def _rows(side):
    """``row(v)``: vertex ``v``'s ``{pivot: dist}`` dict on ``side``,
    built from the arrays once and then kept (and mutated) by the
    caller."""
    rows: dict[int, dict[int, float]] = {}

    def row(v: int) -> dict[int, float]:
        label = rows.get(v)
        if label is None:
            o, e = side.off[v], side.off[v + 1]
            label = rows[v] = dict(
                zip(side.piv[o:e].tolist(), side.dist[o:e].tolist())
            )
        return label

    return row
