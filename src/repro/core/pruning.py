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

from repro.core.labels import DirectedLabelState, UndirectedLabelState
from repro.core.rules import CandidateSet, PrevEntry


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


def admit_and_prune(
    state: DirectedLabelState | UndirectedLabelState,
    candidates: CandidateSet,
    prune: bool = True,
) -> tuple[list[PrevEntry], PruneOutcome]:
    """Stage ``candidates`` into ``state``, prune, return the survivors.

    Returns the surviving entries (the ``prevLabel`` of the next
    iteration) and the iteration counters.  With ``prune=False`` only
    admission (duplicate suppression) is applied — the configuration
    used by the ablation benchmarks to expose how essential pruning is.
    """
    staged: list[PrevEntry] = []
    for (a, b), (dist, hops) in candidates.items():
        existing = state.get_pair(a, b)
        if existing is not None and existing[0] <= dist:
            continue
        state.set_pair(a, b, dist, hops)
        staged.append((a, b, dist, hops))

    admitted = len(staged)
    if not prune:
        return staged, PruneOutcome(
            raw_generated=candidates.raw_generated,
            distinct_generated=len(candidates),
            admitted=admitted,
            pruned=0,
        )

    # Two-pass (snapshot) pruning: bounds are evaluated with *all*
    # staged candidates present, then removals are applied together.
    # Pruning an entry through a route that is itself pruned stays
    # sound — every entry's distance is the length of a real path — and
    # the snapshot makes the outcome independent of evaluation order,
    # which the external-memory implementation relies on for
    # bit-identical results.
    directed = isinstance(state, DirectedLabelState)
    survivors: list[PrevEntry] = []
    doomed: list[tuple[int, int]] = []
    for a, b, dist, hops in staged:
        if directed:
            exclude = b if state.is_out_pair(a, b) else a
        else:
            # Undirected entries are (owner, pivot); the trivial
            # self-route goes through the pivot.
            exclude = state.owner_pivot(a, b)[1]
        bound = state.two_hop_bound(a, b, exclude_pivot=exclude)
        if bound <= dist:
            doomed.append((a, b))
        else:
            survivors.append((a, b, dist, hops))
    for a, b in doomed:
        state.remove_pair(a, b)
    pruned = len(doomed)

    return survivors, PruneOutcome(
        raw_generated=candidates.raw_generated,
        distinct_generated=len(candidates),
        admitted=admitted,
        pruned=pruned,
    )


def admit_and_prune_arrays(state, batch, prune: bool = True):
    """Array-engine twin of :func:`admit_and_prune`.

    ``state`` is a :class:`repro.core.arraystate.ArrayLabelState` and
    ``batch`` a :class:`repro.core.rules.CandidateBatch`; returns the
    surviving entries as a :class:`~repro.core.arraystate.PrevBlock`
    plus the same :class:`PruneOutcome` counters the dict path
    produces.  Admission and the snapshot pruning bound are evaluated
    with vectorized lookups; because candidates are deduplicated with
    the same min-``(dist, hops)`` reduction and the bound runs against
    the identical post-admission entry set, the outcome — entries,
    values, and every counter — is bit-identical to the dict engine's.
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

    # Same two-pass snapshot semantics as admit_and_prune — bounds see
    # every staged candidate, removals land together — but admission
    # is *deferred*: candidates stage in small per-side overlays that
    # prunable joins alongside the base arrays, and only the survivors
    # are merged in (state.commit_staged), so the doomed majority of a
    # round never touches the O(index) base arrays.
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


def _canonical_entry_order(state, entries):
    """Sort entries lowest-priority pivot first, then owner, then side.

    A fixed visiting order makes the sweep deterministic for any
    source of the same entry set (dict engine, array engine, worker
    partitions) — removals within a sweep can affect later tests, so
    the order is part of the contract.
    """
    rank = state.rank
    return sorted(entries, key=lambda e: (-rank[e[1]], e[0], not e[4]))


def exhaustive_prune(
    state: DirectedLabelState | UndirectedLabelState,
) -> int:
    """Re-run the pruning test over *all* non-trivial entries until fixpoint.

    Section 5.2 notes that Hop-Doubling "by exhaustive pruning" reaches
    the same label size as Hop-Stepping; this post-pass implements that
    sweep.  Entries are visited from lowest-priority pivots upward (a
    deterministic order shared by both build engines).

    Removing an entry can only *shrink* the labels its neighbours join
    through — bounds are monotonically weakened — so the first full
    sweep already removes everything removable, and what remains is
    confirming the fixpoint.  Only entries incident to a touched
    vertex have a changed bound to re-check: the **dirty set** tracks
    owners whose out-label (``Lout``) or in-label (``Lin``) lost an
    entry, and the confirmation sweep's worklist is rebuilt from the
    stores and reverse indexes of those vertices alone, instead of
    re-listing every entry until fixpoint.  Returns the number of
    entries removed.
    """
    directed = isinstance(state, DirectedLabelState)
    removed_total = 0
    entries = _canonical_entry_order(state, state.iter_entries())
    while entries:
        # (a, b, was_out) per removal this sweep, for dirty tracking.
        removed_pairs: list[tuple[int, int, bool]] = []
        for owner, pivot, dist, _hops, is_out in entries:
            if directed:
                a, b = (owner, pivot) if is_out else (pivot, owner)
            else:
                a, b = owner, pivot
            if state.get_pair(a, b) is None:
                continue  # already removed within this sweep
            bound = state.two_hop_bound(a, b, exclude_pivot=pivot)
            if bound <= dist:
                state.remove_pair(a, b)
                removed_pairs.append((a, b, is_out))
        removed_total += len(removed_pairs)
        if not removed_pairs:
            break
        entries = _canonical_entry_order(
            state, _dirty_entries(state, directed, removed_pairs)
        )
    return removed_total


def _dirty_entries(state, directed, removed_pairs):
    """Entries whose pruning bound may have changed after removals.

    The bound of a pair ``(x, y)`` joins ``Lout(x)`` with ``Lin(y)``
    (``L(x)`` with ``L(y)`` when undirected), so removing ``(a, b)``
    dirties exactly the entries with source ``a`` (when an out-entry
    shrank ``Lout(a)``) or target ``b`` (when an in-entry shrank
    ``Lin(b)``); for undirected states the owner's single store shrank.
    Entries are gathered through the stores and reverse indexes.
    """
    seen: dict[tuple[int, int], tuple] = {}
    if not directed:
        dirty = {a for a, _b, _ in removed_pairs}
        for o in dirty:
            for p, (d, h) in state.lab[o].items():
                if p != o:
                    seen[(o, p)] = (o, p, d, h, True)
            for x, (d, h) in state.rev[o].items():
                seen[(x, o)] = (x, o, d, h, True)
        return seen.values()

    dirty_src = {a for a, _b, was_out in removed_pairs if was_out}
    dirty_dst = {b for _a, b, was_out in removed_pairs if not was_out}
    for x in dirty_src:
        # Pairs with source x: out-entries of x plus entries (x -> y)
        # held in Lin(y), reached through rev_in[x].
        for p, (d, h) in state.out[x].items():
            if p != x:
                seen[(x, p)] = (x, p, d, h, True)
        for y, (d, h) in state.rev_in[x].items():
            seen[(x, y)] = (y, x, d, h, False)
    for y in dirty_dst:
        # Pairs with target y: in-entries of y plus entries (x -> y)
        # held in Lout(x), reached through rev_out[y].
        for p, (d, h) in state.inn[y].items():
            if p != y:
                seen[(p, y)] = (y, p, d, h, False)
        for x, (d, h) in state.rev_out[y].items():
            seen[(x, y)] = (x, y, d, h, True)
    return seen.values()
