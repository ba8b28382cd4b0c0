"""Label-entry generation rules (Section 3.1-3.2 and Section 5.1).

A candidate entry is produced by concatenating two known entries that
share a middle vertex ``m``: ``(x -> m) + (m -> y) => (x -> y)``.  The
concatenation is *trough-valid* exactly when ``m`` ranks below the
higher-ranked of ``x`` and ``y`` (Definition 1).  The paper's six rules
of Table 5 are the six (prev-entry type x partner store) templates of
this join, and Lemmas 3-4 show four of them suffice.

Both rule sets are implemented:

* ``rule_set="full"`` — all six templates;
* ``rule_set="minimized"`` — the four simplified rules (the default, as
  in the paper).

Each is applied in two joining modes:

* :func:`array_doubling` — partners come from **all** current labels
  (Hop-Doubling, Section 3): covered hop lengths roughly double per
  iteration (Theorem 2);
* :func:`array_stepping` — partners are unit-hop entries, i.e. graph
  edges (Hop-Stepping, Section 5.1): covered hop lengths grow by one
  per iteration (Lemma 5), keeping the candidate volume per iteration
  down to ``O(h |V| log |V|)`` (Section 5.3).

Notation reminder: rank 0 is the *highest* priority, so the paper's
``r(a) > r(b)`` reads ``rank[a] < rank[b]`` in this code.
"""

from __future__ import annotations

from typing import Sequence

# A prev entry: (source, target, distance, hops).  For undirected
# engines the convention is (owner, pivot, distance, hops).
PrevEntry = tuple[int, int, float, int]

RULE_SETS = ("minimized", "full")


# The templates are applied to a whole ``prevLabel`` block at once over
# the read-only snapshots of :mod:`repro.core.arraystate`: each rule
# becomes one ragged gather (``expand_segments``) over partner
# segments, with the minimized rules' rank filters turned into a single
# ``searchsorted`` on rank-sorted partner arrays.  Candidates are
# accumulated as parallel arrays and deduplicated in one ``lexsort``
# pass at the end (:meth:`CandidateBatch.dedupe`).  The multiset of
# rule applications, and therefore every iteration counter, is that of
# the per-entry reference engines in ``tests/reference/dict_build.py``.
#
# Exclusion checks that a per-entry join performs per partner are
# compiled away where vertex ranks make them impossible (e.g. Rule 2's
# ``x == v``: every ``x`` holding ``u`` in its out-label ranks below
# ``u``, while ``v`` outranks it) and applied as vector masks where
# they are real (the ``full`` rule set's unfiltered branches).


class CandidateBatch:
    """Generated candidates as parallel arrays (pre-deduplication).

    ``raw`` counts every rule application; :meth:`dedupe` reduces to
    the best ``(dist, hops)`` per pair — smaller distance, then fewer
    hops — in canonical pair-key order (so any concatenation order of the raw
    arrays — e.g. from parallel workers — yields identical output).
    """

    __slots__ = ("n", "a", "b", "dist", "hops")

    def __init__(self, n, a, b, dist, hops) -> None:
        self.n = n
        self.a = a
        self.b = b
        self.dist = dist
        self.hops = hops

    @property
    def raw(self) -> int:
        """Rule applications before deduplication (Figure 10's series)."""
        return int(self.a.size)

    @classmethod
    def concatenate(cls, batches: "Sequence[CandidateBatch]"):
        """Merge worker batches (chunk order preserved)."""
        import numpy as np

        n = batches[0].n
        return cls(
            n,
            np.concatenate([c.a for c in batches]),
            np.concatenate([c.b for c in batches]),
            np.concatenate([c.dist for c in batches]),
            np.concatenate([c.hops for c in batches]),
        )

    def dedupe(self):
        """Best ``(dist, hops)`` per pair, sorted by pair key.

        Returns ``(a, b, dist, hops)`` arrays with unique pairs.
        Ordering candidates by ``(key, dist, hops)`` and keeping the
        first of each key group keeps, per pair, the smallest distance
        and, among equals, the fewest hops.
        """
        import numpy as np

        key = self.a * self.n + self.b
        if key.size and _uniform(self.dist) and _uniform(self.hops):
            # Every candidate carries the same value — any Hop-Stepping
            # round on an unweighted graph, where iteration i offers
            # i-hop paths of length i — so which duplicate stands for a
            # pair cannot matter: sort the keys alone and read the
            # pairs back out of them.
            key.sort()
            first = np.ones(key.size, dtype=bool)
            first[1:] = key[1:] != key[:-1]
            keys = key[first]
            return (
                keys // self.n,
                keys % self.n,
                np.full(keys.size, self.dist[0]),
                np.full(keys.size, self.hops[0]),
            )
        order = np.lexsort((self.hops, self.dist, key))
        ks = key[order]
        keep = np.ones(ks.size, dtype=bool)
        keep[1:] = ks[1:] != ks[:-1]
        sel = order[keep]
        return self.a[sel], self.b[sel], self.dist[sel], self.hops[sel]


def _uniform(values) -> bool:
    """Whether a non-empty array holds one value throughout."""
    return values.min() == values.max()


def _normalize_undirected(rank, a, b, dist, hops):
    """Swap pairs so the pivot (``b``) outranks the owner (``a``)."""
    import numpy as np

    swap = rank[a] < rank[b]
    return (
        np.where(swap, b, a),
        np.where(swap, a, b),
        dist,
        hops,
    )


def array_stepping(snap, prev, full: bool = False) -> CandidateBatch:
    """Edge-partner joins (Hop-Stepping) over an :class:`EdgeSnapshot`.

    ``prev`` is a :class:`repro.core.arraystate.PrevBlock`; the result
    holds one candidate per rule application.
    """
    import numpy as np

    from repro.core.arraystate import expand_segments

    n, rank = snap.n, snap.rank
    groups: list[tuple] = []

    def emit(ca, cb, cd, ch, drop_equal=False):
        if drop_equal:
            keep = ca != cb
            ca, cb, cd, ch = ca[keep], cb[keep], cd[keep], ch[keep]
        groups.append((ca, cb, cd, ch))

    if snap.directed:
        is_out = rank[prev.b] < rank[prev.a]
        for sel, forward in ((is_out, False), (~is_out, True)):
            u = prev.a[sel]
            v = prev.b[sel]
            d = prev.dist[sel]
            h = prev.hops[sel]
            if forward:
                # prev in-entry (u -> v): extend over out-edges of v.
                off, nbr, wt, key = (
                    snap.out_off,
                    snap.out_tgt,
                    snap.out_wt,
                    snap.out_key,
                )
                anchor, bound = v, u
            else:
                # prev out-entry (u -> v): extend over in-edges of u.
                off, nbr, wt, key = (
                    snap.in_off,
                    snap.in_src,
                    snap.in_wt,
                    snap.in_key,
                )
                anchor, bound = u, v
            if full:
                starts = off[anchor]
            else:
                # Minimized: partners ranked below the prev entry's
                # higher end — a suffix of the rank-sorted segment.
                starts = np.searchsorted(key, anchor * n + rank[bound], "right")
            ends = off[anchor + 1]
            reps, pos = expand_segments(starts, ends)
            if forward:
                ca, cb = u[reps], nbr[pos]
                cd = d[reps] + wt[pos]
            else:
                ca, cb = nbr[pos], v[reps]
                cd = wt[pos] + d[reps]
            ch = h[reps] + 1
            # full keeps the rules' explicit x != v / y != u skip.
            emit(ca, cb, cd, ch, drop_equal=full)
            if full:
                # The Rule 3/6 analogues: extend through the prev
                # entry's other endpoint, partners ranked above it
                # (a prefix of the rank-sorted segment).
                if forward:
                    p_off, p_nbr, p_wt, p_key = (
                        snap.in_off,
                        snap.in_src,
                        snap.in_wt,
                        snap.in_key,
                    )
                    other = u
                else:
                    p_off, p_nbr, p_wt, p_key = (
                        snap.out_off,
                        snap.out_tgt,
                        snap.out_wt,
                        snap.out_key,
                    )
                    other = v
                starts = p_off[other]
                ends = np.searchsorted(p_key, other * n + rank[other], "left")
                reps, pos = expand_segments(starts, ends)
                if forward:
                    emit(p_nbr[pos], v[reps], p_wt[pos] + d[reps], h[reps] + 1)
                else:
                    emit(u[reps], p_nbr[pos], d[reps] + p_wt[pos], h[reps] + 1)
    else:
        owner, pivot = prev.a, prev.b
        d, h = prev.dist, prev.hops
        off, nbr, wt, key = (
            snap.out_off,
            snap.out_tgt,
            snap.out_wt,
            snap.out_key,
        )
        if full:
            starts = off[owner]
        else:
            starts = np.searchsorted(key, owner * n + rank[pivot], "right")
        ends = off[owner + 1]
        reps, pos = expand_segments(starts, ends)
        ca, cb = nbr[pos], pivot[reps]
        cd = wt[pos] + d[reps]
        ch = h[reps] + 1
        if full:
            keep = ca != cb  # the rule's x != pivot skip
            ca, cb, cd, ch = ca[keep], cb[keep], cd[keep], ch[keep]
            groups.append(_normalize_undirected(rank, ca, cb, cd, ch))
            # Pivot-side partners ranked above the pivot (Rule 3/6).
            starts = off[pivot]
            ends = np.searchsorted(key, pivot * n + rank[pivot], "left")
            reps, pos = expand_segments(starts, ends)
            groups.append((owner[reps], nbr[pos], d[reps] + wt[pos], h[reps] + 1))
        else:
            # Minimized partners rank below the pivot: already in
            # (owner, pivot) order, no normalization needed.
            groups.append((ca, cb, cd, ch))

    return _batch_from_groups(n, groups)


def array_doubling(snap, prev, full: bool = False) -> CandidateBatch:
    """Label-partner joins (Hop-Doubling) over a :class:`LabelSnapshot`."""
    import numpy as np

    from repro.core.arraystate import expand_segments

    n, rank = snap.n, snap.rank
    groups: list[tuple] = []

    def suffix_gather(off, key, anchors, bounds):
        starts = np.searchsorted(key, anchors * n + rank[bounds], "right")
        return expand_segments(starts, off[anchors + 1])

    def full_gather(off, anchors):
        return expand_segments(off[anchors], off[anchors + 1])

    if snap.directed:
        is_out = rank[prev.b] < rank[prev.a]
        # -- prev out-entries (u -> v), pivot v outranks u ---------------
        u = prev.a[is_out]
        v = prev.b[is_out]
        d = prev.dist[is_out]
        h = prev.hops[is_out]
        # Rule 1: partners (x -> u) in Lin(u), minimized: x between u, v.
        if full:
            reps, pos = full_gather(snap.in_r_off, u)
        else:
            reps, pos = suffix_gather(snap.in_r_off, snap.in_r_key, u, v)
        ca, cb = snap.in_r_piv[pos], v[reps]
        cd = snap.in_r_dist[pos] + d[reps]
        ch = snap.in_r_hops[pos] + h[reps]
        if full:
            keep = ca != cb  # the rule's x != v skip
            ca, cb, cd, ch = ca[keep], cb[keep], cd[keep], ch[keep]
        groups.append((ca, cb, cd, ch))
        # Rule 2: partners (x -> u) held as out-entries of x.
        reps, pos = full_gather(snap.rev_out_off, u)
        groups.append(
            (
                snap.rev_out_owner[pos],
                v[reps],
                snap.rev_out_dist[pos] + d[reps],
                snap.rev_out_hops[pos] + h[reps],
            )
        )
        if full:
            # Rule 3: partners (v -> y) in Lout(v).
            reps, pos = full_gather(snap.out_r_off, v)
            groups.append(
                (
                    u[reps],
                    snap.out_r_piv[pos],
                    d[reps] + snap.out_r_dist[pos],
                    h[reps] + snap.out_r_hops[pos],
                )
            )
        # -- prev in-entries (u -> v), pivot u outranks v ----------------
        u = prev.a[~is_out]
        v = prev.b[~is_out]
        d = prev.dist[~is_out]
        h = prev.hops[~is_out]
        # Rule 4: partners (v -> y) in Lout(v), minimized: y between v, u.
        if full:
            reps, pos = full_gather(snap.out_r_off, v)
        else:
            reps, pos = suffix_gather(snap.out_r_off, snap.out_r_key, v, u)
        ca, cb = u[reps], snap.out_r_piv[pos]
        cd = d[reps] + snap.out_r_dist[pos]
        ch = h[reps] + snap.out_r_hops[pos]
        if full:
            keep = cb != ca  # the rule's y != u skip
            ca, cb, cd, ch = ca[keep], cb[keep], cd[keep], ch[keep]
        groups.append((ca, cb, cd, ch))
        # Rule 5: partners (v -> y) held as in-entries of y.
        reps, pos = full_gather(snap.rev_in_off, v)
        groups.append(
            (
                u[reps],
                snap.rev_in_owner[pos],
                d[reps] + snap.rev_in_dist[pos],
                h[reps] + snap.rev_in_hops[pos],
            )
        )
        if full:
            # Rule 6: partners (x -> u) in Lin(u).
            reps, pos = full_gather(snap.in_r_off, u)
            groups.append(
                (
                    snap.in_r_piv[pos],
                    v[reps],
                    snap.in_r_dist[pos] + d[reps],
                    snap.in_r_hops[pos] + h[reps],
                )
            )
    else:
        owner, pivot = prev.a, prev.b
        d, h = prev.dist, prev.hops
        # Rule 1 analogue: partners in L(owner).
        if full:
            reps, pos = full_gather(snap.out_r_off, owner)
        else:
            reps, pos = suffix_gather(snap.out_r_off, snap.out_r_key, owner, pivot)
        ca, cb = snap.out_r_piv[pos], pivot[reps]
        cd = snap.out_r_dist[pos] + d[reps]
        ch = snap.out_r_hops[pos] + h[reps]
        if full:
            keep = ca != cb  # the rule's x != pivot skip
            ca, cb, cd, ch = ca[keep], cb[keep], cd[keep], ch[keep]
        groups.append(_normalize_undirected(rank, ca, cb, cd, ch))
        # Rule 2 analogue: partners holding `owner` as their pivot —
        # they rank below the owner, so pairs are already normalized.
        reps, pos = full_gather(snap.rev_out_off, owner)
        groups.append(
            (
                snap.rev_out_owner[pos],
                pivot[reps],
                snap.rev_out_dist[pos] + d[reps],
                snap.rev_out_hops[pos] + h[reps],
            )
        )
        if full:
            # Rule 3/6 analogue: extend through the pivot side.
            reps, pos = full_gather(snap.out_r_off, pivot)
            groups.append(
                (
                    owner[reps],
                    snap.out_r_piv[pos],
                    d[reps] + snap.out_r_dist[pos],
                    h[reps] + snap.out_r_hops[pos],
                )
            )

    return _batch_from_groups(n, groups)


def _batch_from_groups(n: int, groups: list[tuple]) -> CandidateBatch:
    import numpy as np

    if not groups:
        return CandidateBatch(
            n,
            np.zeros(0, np.int64),
            np.zeros(0, np.int64),
            np.zeros(0, np.float64),
            np.zeros(0, np.int64),
        )
    return CandidateBatch(
        n,
        np.concatenate([g[0] for g in groups]),
        np.concatenate([g[1] for g in groups]),
        np.concatenate([g[2] for g in groups]),
        np.concatenate([g[3] for g in groups]),
    )
