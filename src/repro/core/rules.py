"""Label-entry generation rules (Section 3.1-3.2 and Section 5.1).

A candidate entry is produced by concatenating two known entries that
share a middle vertex ``m``: ``(x -> m) + (m -> y) => (x -> y)``.  The
concatenation is *trough-valid* exactly when ``m`` ranks below the
higher-ranked of ``x`` and ``y`` (Definition 1).  The paper's six rules
of Table 5 are the six (prev-entry type x partner store) templates of
this join, and Lemmas 3-4 show four of them suffice.

Both engines are implemented:

* ``rule_set="full"`` — all six templates (the reference engine);
* ``rule_set="minimized"`` — the four simplified rules (the default, as
  in the paper).

Each engine offers two joining modes:

* :meth:`doubling` — partners come from **all** current labels
  (Hop-Doubling, Section 3): covered hop lengths roughly double per
  iteration (Theorem 2);
* :meth:`stepping` — partners are unit-hop entries, i.e. graph edges
  (Hop-Stepping, Section 5.1): covered hop lengths grow by one per
  iteration (Lemma 5), keeping the candidate volume per iteration down
  to ``O(h |V| log |V|)`` (Section 5.3).

Notation reminder: rank 0 is the *highest* priority, so the paper's
``r(a) > r(b)`` reads ``rank[a] < rank[b]`` in this code.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.labels import (
    DirectedLabelState,
    EntryValue,
    UndirectedLabelState,
)
from repro.graphs.digraph import Graph

# A prev entry: (source, target, distance, hops).  For undirected
# engines the convention is (owner, pivot, distance, hops).
PrevEntry = tuple[int, int, float, int]

RULE_SETS = ("minimized", "full")


class CandidateSet:
    """Accumulates generated candidates, keeping the best per pair.

    ``raw_generated`` counts every rule application (before
    deduplication) — the quantity behind the *growing factor* of
    Figure 10; ``pairs`` maps ``(a, b)`` to the best ``(dist, hops)``
    seen (smaller distance wins; ties prefer fewer hops).
    """

    __slots__ = ("pairs", "raw_generated")

    def __init__(self) -> None:
        self.pairs: dict[tuple[int, int], EntryValue] = {}
        self.raw_generated = 0

    def offer(self, a: int, b: int, dist: float, hops: int) -> None:
        """Record a generated candidate for the pair ``a -> b``."""
        self.raw_generated += 1
        key = (a, b)
        current = self.pairs.get(key)
        if (
            current is None
            or dist < current[0]
            or (dist == current[0] and hops < current[1])
        ):
            self.pairs[key] = (dist, hops)

    def __len__(self) -> int:
        return len(self.pairs)

    def items(self) -> Iterable[tuple[tuple[int, int], EntryValue]]:
        return self.pairs.items()


def _check_rule_set(rule_set: str) -> None:
    if rule_set not in RULE_SETS:
        raise ValueError(
            f"unknown rule_set {rule_set!r}; expected one of {RULE_SETS}"
        )


class DirectedRuleEngine:
    """Generation rules over a :class:`DirectedLabelState`."""

    def __init__(
        self,
        state: DirectedLabelState,
        graph: Graph,
        rule_set: str = "minimized",
    ) -> None:
        _check_rule_set(rule_set)
        self.state = state
        self.graph = graph
        self.full = rule_set == "full"

    # ------------------------------------------------------------------
    # Hop-Doubling: partners from all current labels
    # ------------------------------------------------------------------
    def doubling(self, prev: Sequence[PrevEntry]) -> CandidateSet:
        """Apply the rules with label partners (Hop-Doubling joins)."""
        state = self.state
        rank = state.rank
        out = state.out
        inn = state.inn
        rev_out = state.rev_out
        rev_in = state.rev_in
        cands = CandidateSet()
        full = self.full

        for u, v, d, h in prev:
            if rank[v] < rank[u]:
                # prev is an out-entry of u: (u -> v), pivot v outranks u.
                rank_v = rank[v]
                # Rule 1: partners (x -> u) in Lin(u); minimized keeps
                # only x ranked between u and v.
                for x, (d1, h1) in inn[u].items():
                    if x == u or x == v:
                        continue
                    if full or rank[x] > rank_v:
                        cands.offer(x, v, d1 + d, h1 + h)
                # Rule 2: partners (x -> u) held as out-entries of x
                # (x ranked below u) — reached through the reverse index.
                for x, (d1, h1) in rev_out[u].items():
                    if x == v:
                        continue
                    cands.offer(x, v, d1 + d, h1 + h)
                if full:
                    # Rule 3: partners (v -> y) in Lout(v); redundant by
                    # Lemma 3 but kept in the reference engine.
                    for y, (d2, h2) in out[v].items():
                        if y == v or y == u:
                            continue
                        cands.offer(u, y, d + d2, h + h2)
            else:
                # prev is an in-entry of v: (u -> v), pivot u outranks v.
                rank_u = rank[u]
                # Rule 4: partners (v -> y) in Lout(v); minimized keeps
                # only y ranked between v and u.
                for y, (d2, h2) in out[v].items():
                    if y == v or y == u:
                        continue
                    if full or rank[y] > rank_u:
                        cands.offer(u, y, d + d2, h + h2)
                # Rule 5: partners (v -> y) held as in-entries of y
                # (y ranked below v) — reached through the reverse index.
                for y, (d2, h2) in rev_in[v].items():
                    if y == u:
                        continue
                    cands.offer(u, y, d + d2, h + h2)
                if full:
                    # Rule 6: partners (x -> u) in Lin(u); redundant by
                    # Lemma 3 but kept in the reference engine.
                    for x, (d1, h1) in inn[u].items():
                        if x == u or x == v:
                            continue
                        cands.offer(x, v, d1 + d, h1 + h)
        return cands

    # ------------------------------------------------------------------
    # Hop-Stepping: partners are unit-hop entries (graph edges)
    # ------------------------------------------------------------------
    def stepping(self, prev: Sequence[PrevEntry]) -> CandidateSet:
        """Apply the rules with edge partners (Hop-Stepping joins)."""
        state = self.state
        rank = state.rank
        graph = self.graph
        cands = CandidateSet()
        full = self.full

        for u, v, d, h in prev:
            if rank[v] < rank[u]:
                # prev out-entry (u -> v): extend backwards over in-edges
                # of u.  Minimized: partner x must rank below v (union of
                # Rules 1 and 2); full: any x (adds Rule 1's dropped
                # branch), plus Rule 3 partners over out-edges of v.
                rank_v = rank[v]
                for x, w in graph.in_edges(u):
                    if x == v:
                        continue
                    if full or rank[x] > rank_v:
                        cands.offer(x, v, w + d, h + 1)
                if full:
                    rank_v = rank[v]
                    for y, w in graph.out_edges(v):
                        if y == u:
                            continue
                        if rank[y] < rank_v:
                            cands.offer(u, y, d + w, h + 1)
            else:
                # prev in-entry (u -> v): extend forwards over out-edges
                # of v.  Minimized: partner y must rank below u (union of
                # Rules 4 and 5); full: any y, plus Rule 6 partners over
                # in-edges of u.
                rank_u = rank[u]
                for y, w in graph.out_edges(v):
                    if y == u:
                        continue
                    if full or rank[y] > rank_u:
                        cands.offer(u, y, d + w, h + 1)
                if full:
                    for x, w in graph.in_edges(u):
                        if x == v:
                            continue
                        if rank[x] < rank_u:
                            cands.offer(x, v, w + d, h + 1)
        return cands


class UndirectedRuleEngine:
    """Generation rules over an :class:`UndirectedLabelState` (Section 7).

    Entries are unordered pairs ``{owner, pivot}`` with the pivot
    outranking the owner.  The directed rules collapse pairwise
    (Rule 1 with Rule 4, Rule 2 with Rule 5), leaving:

    * minimized — partners of the owner ranked below the pivot;
    * full — additionally, any owner partner and pivot-side partners
      (the analogue of Rules 3/6).
    """

    def __init__(
        self,
        state: UndirectedLabelState,
        graph: Graph,
        rule_set: str = "minimized",
    ) -> None:
        _check_rule_set(rule_set)
        self.state = state
        self.graph = graph
        self.full = rule_set == "full"

    def _offer(
        self, cands: CandidateSet, a: int, b: int, dist: float, hops: int
    ) -> None:
        """Offer the unordered pair ``{a, b}`` in (owner, pivot) order.

        Normalizing here keeps each unordered pair under a single
        candidate key regardless of which join produced it.
        """
        if self.state.rank[a] < self.state.rank[b]:
            a, b = b, a
        cands.offer(a, b, dist, hops)

    def doubling(self, prev: Sequence[PrevEntry]) -> CandidateSet:
        """Apply the rules with label partners (Hop-Doubling joins)."""
        state = self.state
        rank = state.rank
        lab = state.lab
        rev = state.rev
        cands = CandidateSet()
        full = self.full

        for owner, pivot, d, h in prev:
            rank_p = rank[pivot]
            # Rule 1 analogue: partners in L(owner).
            for x, (d1, h1) in lab[owner].items():
                if x == owner or x == pivot:
                    continue
                if full or rank[x] > rank_p:
                    self._offer(cands, x, pivot, d1 + d, h1 + h)
            # Rule 2 analogue: partners holding `owner` as their pivot.
            for x, (d1, h1) in rev[owner].items():
                if x == pivot:
                    continue
                self._offer(cands, x, pivot, d1 + d, h1 + h)
            if full:
                # Rule 3/6 analogue: extend through the pivot side.
                for y, (d2, h2) in lab[pivot].items():
                    if y == pivot or y == owner:
                        continue
                    self._offer(cands, owner, y, d + d2, h + h2)
        return cands

    def stepping(self, prev: Sequence[PrevEntry]) -> CandidateSet:
        """Apply the rules with edge partners (Hop-Stepping joins)."""
        state = self.state
        rank = state.rank
        graph = self.graph
        cands = CandidateSet()
        full = self.full

        for owner, pivot, d, h in prev:
            rank_p = rank[pivot]
            for x, w in graph.out_edges(owner):
                if x == pivot:
                    continue
                if full or rank[x] > rank_p:
                    self._offer(cands, x, pivot, w + d, h + 1)
            if full:
                for y, w in graph.out_edges(pivot):
                    if y == owner:
                        continue
                    if rank[y] < rank_p:
                        self._offer(cands, owner, y, d + w, h + 1)
        return cands


def make_engine(
    state: DirectedLabelState | UndirectedLabelState,
    graph: Graph,
    rule_set: str = "minimized",
) -> DirectedRuleEngine | UndirectedRuleEngine:
    """Instantiate the rule engine matching the state's directedness."""
    if isinstance(state, DirectedLabelState):
        return DirectedRuleEngine(state, graph, rule_set)
    return UndirectedRuleEngine(state, graph, rule_set)


# ---------------------------------------------------------------------------
# Array-backed rule application (the fast build engine's joins)
# ---------------------------------------------------------------------------
#
# The same six templates, but applied to a whole ``prevLabel`` block at
# once over the read-only snapshots of :mod:`repro.core.arraystate`:
# each rule becomes one ragged gather (``expand_segments``) over
# partner segments, with the minimized rules' rank filters turned into
# a single ``searchsorted`` on rank-sorted partner arrays.  Candidates
# are accumulated as parallel arrays and deduplicated in one
# ``lexsort`` pass at the end (:meth:`CandidateBatch.dedupe`) instead
# of a per-candidate :meth:`CandidateSet.offer` — the multiset of rule
# applications, and therefore every iteration counter, is identical to
# the dict engines'.
#
# Exclusion checks that the dict engines perform per partner are
# compiled away where vertex ranks make them impossible (e.g. Rule 2's
# ``x == v``: every ``x`` holding ``u`` in its out-label ranks below
# ``u``, while ``v`` outranks it) and applied as vector masks where
# they are real (the ``full`` rule set's unfiltered branches).


class CandidateBatch:
    """Generated candidates as parallel arrays (pre-deduplication).

    The array twin of :class:`CandidateSet`: ``raw`` counts every rule
    application; :meth:`dedupe` reduces to the best ``(dist, hops)``
    per pair with the same smaller-distance-then-fewer-hops rule, in
    canonical pair-key order (so any concatenation order of the raw
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
        first of each key group is exactly the ``offer`` reduction.
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
    contains the same rule applications as the dict engines'
    ``stepping`` over the same entries.
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
            # full keeps the dict engines' explicit x != v / y != u skip.
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
            keep = ca != cb  # the dict engine's x != pivot skip
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
            keep = ca != cb  # the dict engine's x != v skip
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
            keep = cb != ca  # the dict engine's y != u skip
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
            keep = ca != cb  # the dict engine's x != pivot skip
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
