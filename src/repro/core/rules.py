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

Memory: a round's raw candidates never exist whole.  The rules run a
block of ``prev`` entries at a time, and each block is reduced to the
best ``(dist, hops)`` per pair and folded into the round's running
minimum (:class:`CandidateBatch`) before the next block is made.
Alive while a round generates: ``prev`` (20 bytes an entry), the
partner snapshot, the running minimum (20 bytes per distinct pair) and
one block of about :data:`GENERATE_BLOCK_CANDIDATES` rule applications
with the segment bounds of its run of ``prev`` — the block size and
the number of distinct pairs are what bound it.  The dynamic repair
rounds go through the same reduction.

Notation reminder: rank 0 is the *highest* priority, so the paper's
``r(a) > r(b)`` reads ``rank[a] < rank[b]`` in this code.
"""

from __future__ import annotations

# A prev entry: (source, target, distance, hops).  For undirected
# engines the convention is (owner, pivot, distance, hops).
PrevEntry = tuple[int, int, float, int]

RULE_SETS = ("minimized", "full")


#: Rule applications generated per block.  A round lays its joins out
#: for runs of at most this many ``prev`` entries, runs the rules over
#: consecutive entries whose partner segments add up to about this
#: many candidates, and folds each block into the round's running
#: minimum (:class:`CandidateBatch`) before the next is made — so a
#: round holds one block of raw candidates (~50 bytes each while they
#: are emitted, keyed, sorted and folded) and a run's segment bounds,
#: never the round's whole raw set (13M candidates in GLP-200k's
#: first round) or per-entry bounds for all of ``prev``.
GENERATE_BLOCK_CANDIDATES = 1 << 19


# The templates are applied to ``prevLabel`` over the read-only
# snapshots of :mod:`repro.core.arraystate`: each rule is one *join*,
# a partner segment ``[starts[i], ends[i])`` per prev entry plus an
# emitter that turns the gathered rows into candidate columns, with
# the minimized rules' rank filters turned into a single
# ``searchsorted`` on rank-sorted partner arrays.  :func:`_generate`
# expands the joins a block of prev entries at a time (a ragged gather,
# ``expand_segments``) and reduces each block into the round's
# :class:`CandidateBatch`.  The multiset of rule applications, and
# therefore every iteration counter, is that of the per-entry
# reference engines in ``tests/reference/dict_build.py``, whatever the
# block size.
#
# Exclusion checks that a per-entry join performs per partner are
# compiled away where vertex ranks make them impossible (e.g. Rule 2's
# ``x == v``: every ``x`` holding ``u`` in its out-label ranks below
# ``u``, while ``v`` outranks it) and applied as vector masks where
# they are real (the ``full`` rule set's unfiltered branches).


class CandidateBatch:
    """A round's candidates as the best ``(dist, hops)`` per pair.

    Raw rule applications arrive in blocks (:meth:`add`); each block is
    reduced — smaller distance, then fewer hops — and merged into a
    running minimum kept in pair-key order (``key = a * n + b``, int64;
    ``dist`` float64; ``hops`` as given).  The minimum does not depend
    on how the applications are split into blocks or ordered, so any
    blocking — and any partition over worker processes (:meth:`merge`)
    — yields identical output.  ``raw`` counts every rule application
    (Figure 10's series).  ``CandidateBatch(n, a, b, dist, hops)``
    starts from one block.
    """

    __slots__ = ("n", "key", "dist", "hops", "raw")

    def __init__(self, n, a=None, b=None, dist=None, hops=None) -> None:
        import numpy as np

        self.n = n
        self.key = np.zeros(0, np.int64)
        self.dist = np.zeros(0, np.float64)
        self.hops = np.zeros(0, np.int64)
        self.raw = 0
        if a is not None:
            self.add(a, b, dist, hops)

    def __len__(self) -> int:
        """Distinct pairs so far."""
        return int(self.key.size)

    def add(self, a, b, dist, hops) -> None:
        """Reduce one block of rule applications into the batch."""
        import numpy as np

        from repro.core.arraystate import pair_keys

        self.raw += int(a.size)
        if a.size == 0:
            return
        key = pair_keys(a, b, self.n)
        if _uniform(dist) and _uniform(hops):
            # Every candidate carries the same value — any Hop-Stepping
            # round on an unweighted graph, where iteration i offers
            # i-hop paths of length i — so which duplicate stands for a
            # pair cannot matter: sort the keys alone.
            key.sort()
            first = np.ones(key.size, dtype=bool)
            first[1:] = key[1:] != key[:-1]
            key = key[first]
            dist = np.full(key.size, dist[0])
            hops = np.full(key.size, hops[0])
        else:
            # Ordering by (key, dist, hops) and keeping the first of
            # each key group keeps the best value per pair.
            order = np.lexsort((hops, dist, key))
            key = key[order]
            keep = np.ones(key.size, dtype=bool)
            keep[1:] = key[1:] != key[:-1]
            key = key[keep]
            sel = order[keep]
            del order, keep
            dist, hops = dist[sel], hops[sel]
        self._fold(key, dist, hops)

    def merge(self, other: "CandidateBatch") -> None:
        """Fold another batch of the same round into this one."""
        self.raw += other.raw
        if len(other):
            self._fold(other.key, other.dist, other.hops)

    def _fold(self, key, dist, hops) -> None:
        """Merge reduced, key-sorted columns into the running minimum."""
        import numpy as np

        from repro.core.arraystate import find_sorted, insert_into, insertion_plan

        if not self.key.size:
            self.key, self.dist, self.hops = key, dist, hops
            return
        pos, found = find_sorted(self.key, key)
        at = pos[found]
        d, h = dist[found], hops[found]
        old = self.dist[at]
        better = (d < old) | ((d == old) & (h < self.hops[at]))
        self.dist[at[better]] = d[better]
        self.hops[at[better]] = h[better]
        del at, d, h, old, better
        new = ~found
        if new.any():
            plan = insertion_plan(self.key.size, pos[new])
            del pos
            self.key = insert_into(self.key, plan, key[new])
            self.dist = insert_into(self.dist, plan, dist[new])
            self.hops = insert_into(self.hops, plan, hops[new])

    def take(self):
        """``(key, dist, hops)`` of the distinct pairs, in key order.

        The batch lets go of the columns (it is empty afterwards), so
        the caller's reference is the only one left.
        """
        import numpy as np

        columns = (self.key, self.dist, self.hops)
        self.key = np.zeros(0, np.int64)
        self.dist = np.zeros(0, np.float64)
        self.hops = np.zeros(0, np.int64)
        return columns

    def dedupe(self):
        """Best ``(dist, hops)`` per pair, sorted by pair key.

        Returns ``(a, b, dist, hops)`` arrays with unique pairs; ``a``
        and ``b`` are int64.
        """
        import numpy as np

        a, b = np.divmod(self.key, self.n)
        return a, b, self.dist, self.hops


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


def _unequal(ca, cb, cd, ch):
    """The candidates whose two ends differ (the full rules' skip)."""
    keep = ca != cb
    return ca[keep], cb[keep], cd[keep], ch[keep]


def _only(sel, starts, ends):
    """A join's segments restricted to the prev entries ``sel``: every
    other entry gets an empty segment."""
    import numpy as np

    return np.where(sel, starts, 0), np.where(sel, ends, 0)


def _generate(n: int, prev, joins_of) -> CandidateBatch:
    """Run the rule joins over ``prev`` a block at a time; reduce the blocks.

    ``joins_of(p)`` lists the joins of a run ``p`` of prev entries (a
    :class:`~repro.core.arraystate.PrevBlock` of views), each
    ``(starts, ends, emit)``: a partner segment per entry of ``p``, and
    ``emit(reps, pos)`` mapping the entries ``reps`` and partner
    positions ``pos`` of the gathered rows to candidate columns
    ``(a, b, dist, hops)``.  The joins are laid out for runs of at most
    :data:`GENERATE_BLOCK_CANDIDATES` entries, which are cut into
    blocks whose segments add up to about as many rows (one entry at
    least) — so neither a round's raw candidates nor its per-entry
    segment bounds are ever held whole.
    """
    import numpy as np

    from repro.core.arraystate import PrevBlock, block_bounds, expand_segments

    batch = CandidateBatch(n)
    budget = GENERATE_BLOCK_CANDIDATES
    for first in range(0, len(prev), budget):
        run = PrevBlock(
            *(c[first : first + budget] for c in (prev.a, prev.b, prev.dist, prev.hops))
        )
        joins = joins_of(run)
        counts = joins[0][1] - joins[0][0]
        for starts, ends, _ in joins[1:]:
            counts += ends - starts
        bounds = block_bounds(counts, budget)
        del counts
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            groups = []
            for starts, ends, emit in joins:
                reps, pos = expand_segments(starts[lo:hi], ends[lo:hi])
                if pos.size:
                    reps += lo
                    groups.append(emit(reps, pos))
                del reps, pos
            if len(groups) == 1:
                batch.add(*groups[0])
            elif groups:
                columns = [np.concatenate(col) for col in zip(*groups)]
                del groups
                batch.add(*columns)
    return batch


def array_stepping(snap, prev, full: bool = False) -> CandidateBatch:
    """Edge-partner joins (Hop-Stepping) over an :class:`EdgeSnapshot`.

    ``prev`` is a :class:`repro.core.arraystate.PrevBlock`; the result
    holds every rule application reduced to the best value per pair.
    """
    import numpy as np

    from repro.core.arraystate import pair_keys

    n, rank = snap.n, snap.rank
    in_off, in_src, in_wt, in_key = snap.in_off, snap.in_src, snap.in_wt, snap.in_key
    out_off, out_tgt, out_wt, out_key = (
        snap.out_off,
        snap.out_tgt,
        snap.out_wt,
        snap.out_key,
    )

    def below(key, anchor, bound):
        # Minimized: partners ranked below the prev entry's higher
        # end — a suffix of the rank-sorted segment.
        return np.searchsorted(key, pair_keys(anchor, rank[bound], n), "right")

    def above(key, anchor):
        # Partners ranked above the anchor itself (a prefix).
        return np.searchsorted(key, pair_keys(anchor, rank[anchor], n), "left")

    def directed_joins(p):
        a, b, d, h = p.a, p.b, p.dist, p.hops
        is_out = rank[b] < rank[a]

        # prev out-entry (u -> v): extend over in-edges of u.
        def backward(r, pos):
            c = (in_src[pos], b[r], in_wt[pos] + d[r], h[r] + 1)
            return _unequal(*c) if full else c

        # prev in-entry (u -> v): extend over out-edges of v.
        def forward(r, pos):
            c = (a[r], out_tgt[pos], d[r] + out_wt[pos], h[r] + 1)
            return _unequal(*c) if full else c

        starts = in_off[a] if full else below(in_key, a, b)
        joins = [(*_only(is_out, starts, in_off[a + 1]), backward)]
        starts = out_off[b] if full else below(out_key, b, a)
        joins.append((*_only(~is_out, starts, out_off[b + 1]), forward))
        if full:
            # The Rule 3/6 analogues: extend through the prev entry's
            # other endpoint, partners ranked above it.
            joins.append(
                (
                    *_only(is_out, out_off[b], above(out_key, b)),
                    lambda r, pos: (a[r], out_tgt[pos], d[r] + out_wt[pos], h[r] + 1),
                )
            )
            joins.append(
                (
                    *_only(~is_out, in_off[a], above(in_key, a)),
                    lambda r, pos: (in_src[pos], b[r], in_wt[pos] + d[r], h[r] + 1),
                )
            )
        return joins

    def undirected_joins(p):
        a, b, d, h = p.a, p.b, p.dist, p.hops

        def owner_side(r, pos):
            c = (out_tgt[pos], b[r], out_wt[pos] + d[r], h[r] + 1)
            if not full:
                # Minimized partners rank below the pivot: already in
                # (owner, pivot) order, no normalization needed.
                return c
            return _normalize_undirected(rank, *_unequal(*c))

        starts = out_off[a] if full else below(out_key, a, b)
        joins = [(starts, out_off[a + 1], owner_side)]
        if full:
            # Pivot-side partners ranked above the pivot (Rule 3/6).
            joins.append(
                (
                    out_off[b],
                    above(out_key, b),
                    lambda r, pos: (a[r], out_tgt[pos], d[r] + out_wt[pos], h[r] + 1),
                )
            )
        return joins

    return _generate(n, prev, directed_joins if snap.directed else undirected_joins)


def array_doubling(snap, prev, full: bool = False) -> CandidateBatch:
    """Label-partner joins (Hop-Doubling) over a :class:`LabelSnapshot`."""
    import numpy as np

    from repro.core.arraystate import pair_keys

    n, rank = snap.n, snap.rank

    def segments(off, key, anchors, bounds):
        # Minimized: partners ranked below ``bounds`` (a suffix of
        # the rank-sorted segment); full: the whole segment.
        if full:
            return off[anchors], off[anchors + 1]
        starts = np.searchsorted(key, pair_keys(anchors, rank[bounds], n), "right")
        return starts, off[anchors + 1]

    def directed_joins(p):
        a, b, d, h = p.a, p.b, p.dist, p.hops
        is_out = rank[b] < rank[a]

        # -- prev out-entries (u -> v), pivot v outranks u ---------------
        # Rule 1: partners (x -> u) in Lin(u), minimized: x between u, v.
        def rule1(r, pos):
            c = (
                snap.in_r_piv[pos],
                b[r],
                snap.in_r_dist[pos] + d[r],
                snap.in_r_hops[pos] + h[r],
            )
            return _unequal(*c) if full else c  # the rule's x != v skip

        starts, ends = segments(snap.in_r_off, snap.in_r_key, a, b)
        joins = [(*_only(is_out, starts, ends), rule1)]
        # Rule 2: partners (x -> u) held as out-entries of x.
        joins.append(
            (
                *_only(is_out, snap.rev_out_off[a], snap.rev_out_off[a + 1]),
                lambda r, pos: (
                    snap.rev_out_owner[pos],
                    b[r],
                    snap.rev_out_dist[pos] + d[r],
                    snap.rev_out_hops[pos] + h[r],
                ),
            )
        )
        if full:
            # Rule 3: partners (v -> y) in Lout(v).
            joins.append(
                (
                    *_only(is_out, snap.out_r_off[b], snap.out_r_off[b + 1]),
                    lambda r, pos: (
                        a[r],
                        snap.out_r_piv[pos],
                        d[r] + snap.out_r_dist[pos],
                        h[r] + snap.out_r_hops[pos],
                    ),
                )
            )

        # -- prev in-entries (u -> v), pivot u outranks v ----------------
        # Rule 4: partners (v -> y) in Lout(v), minimized: y between v, u.
        def rule4(r, pos):
            c = (
                a[r],
                snap.out_r_piv[pos],
                d[r] + snap.out_r_dist[pos],
                h[r] + snap.out_r_hops[pos],
            )
            return _unequal(*c) if full else c  # the rule's y != u skip

        starts, ends = segments(snap.out_r_off, snap.out_r_key, b, a)
        joins.append((*_only(~is_out, starts, ends), rule4))
        # Rule 5: partners (v -> y) held as in-entries of y.
        joins.append(
            (
                *_only(~is_out, snap.rev_in_off[b], snap.rev_in_off[b + 1]),
                lambda r, pos: (
                    a[r],
                    snap.rev_in_owner[pos],
                    d[r] + snap.rev_in_dist[pos],
                    h[r] + snap.rev_in_hops[pos],
                ),
            )
        )
        if full:
            # Rule 6: partners (x -> u) in Lin(u).
            joins.append(
                (
                    *_only(~is_out, snap.in_r_off[a], snap.in_r_off[a + 1]),
                    lambda r, pos: (
                        snap.in_r_piv[pos],
                        b[r],
                        snap.in_r_dist[pos] + d[r],
                        snap.in_r_hops[pos] + h[r],
                    ),
                )
            )
        return joins

    def undirected_joins(p):
        a, b, d, h = p.a, p.b, p.dist, p.hops

        # Rule 1 analogue: partners in L(owner).
        def rule1(r, pos):
            c = (
                snap.out_r_piv[pos],
                b[r],
                snap.out_r_dist[pos] + d[r],
                snap.out_r_hops[pos] + h[r],
            )
            if full:
                c = _unequal(*c)  # the rule's x != pivot skip
            return _normalize_undirected(rank, *c)

        joins = [(*segments(snap.out_r_off, snap.out_r_key, a, b), rule1)]
        # Rule 2 analogue: partners holding `owner` as their pivot —
        # they rank below the owner, so pairs are already normalized.
        joins.append(
            (
                snap.rev_out_off[a],
                snap.rev_out_off[a + 1],
                lambda r, pos: (
                    snap.rev_out_owner[pos],
                    b[r],
                    snap.rev_out_dist[pos] + d[r],
                    snap.rev_out_hops[pos] + h[r],
                ),
            )
        )
        if full:
            # Rule 3/6 analogue: extend through the pivot side.
            joins.append(
                (
                    snap.out_r_off[b],
                    snap.out_r_off[b + 1],
                    lambda r, pos: (
                        a[r],
                        snap.out_r_piv[pos],
                        d[r] + snap.out_r_dist[pos],
                        h[r] + snap.out_r_hops[pos],
                    ),
                )
            )
        return joins

    return _generate(n, prev, directed_joins if snap.directed else undirected_joins)
