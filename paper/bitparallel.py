"""Bit-parallel labels (Section 6) for undirected unweighted graphs.

The idea (borrowed by the paper from PLL and adapted as a
post-processing step on a finished 2-hop index): pick up to
``num_roots`` high-degree **roots** ``R``; for each root ``r`` select
up to 64 of its neighbours ``S_r`` (the sets are disjoint across
roots).  One *bit-parallel BFS* per root computes, for every vertex
``v``:

* ``d(r, v)``, and
* two 64-bit masks over ``S_r``: ``S^-1_r(v) = {u in S_r : d(u,v) =
  d(r,v) - 1}`` and ``S^0_r(v) = {u : d(u,v) = d(r,v)}``

so a single label covers 65 pivots at once.  A query via root ``r``
evaluates to ``d(s,r) + d(r,t)`` minus 2, 1 or 0 depending on mask
intersections, and every shortest path through ``R ∪ S_R`` is answered
exactly (the ``+1`` neighbours can never beat the route via ``r``,
which is why the paper discards them).

Normal labels whose pivot lies in ``R ∪ S_R`` become redundant and are
dropped from the 2-hop index, shrinking it — the behaviour Table 6
relies on when comparing against PLL's bit-parallel querying.

Implementation note (documented substitution): the paper derives the
bit-parallel tuples by transforming existing label entries and patching
missing root distances; we compute them with the standard bit-parallel
BFS, which yields the same tuples for every vertex (a superset of what
the transformation recovers — the transformation may lack ``(r, d_rv)``
for vertices whose labels never mentioned ``r``), so queries remain
exact while the construction stays a strict post-processing step.

The paper's 50-root marker trick is implemented too: each vertex keeps
a ``num_roots``-bit marker of which roots appear in its bit-parallel
label, so common roots are found by a single integer AND.
"""

from __future__ import annotations

from dataclasses import dataclass

from paper.labels import LabelIndex, merge_join_distance
from repro.core.labels import INF, LabelStore
from repro.graphs.digraph import Graph

DEFAULT_NUM_ROOTS = 50
MAX_SET_SIZE = 64

# Storage convention for size accounting: root id (4) + distance (1)
# + two 64-bit masks (16).
BYTES_PER_BP_TUPLE = 21


@dataclass(frozen=True)
class BPTuple:
    """One bit-parallel label tuple ``(root_idx, dist, S^-1, S^0)``."""

    root_idx: int
    dist: float
    mask_minus: int
    mask_zero: int


class BitParallelIndex:
    """A 2-hop index enhanced with bit-parallel root labels (Section 6).

    Querying takes the minimum of the bit-parallel estimate over common
    roots and the merge-join over the remaining normal labels; both
    sides are exact for the paths they are responsible for, so the
    minimum is the exact distance.
    """

    def __init__(
        self,
        normal: LabelIndex,
        roots: list[int],
        root_members: list[list[int]],
        bp_labels: list[list[BPTuple]],
        markers: list[int],
    ) -> None:
        self.normal = normal
        self.roots = roots
        self.root_members = root_members
        self.bp_labels = bp_labels
        self.markers = markers
        self.n = normal.n

    # -- querying --------------------------------------------------------
    def query(self, s: int, t: int) -> float:
        """Exact ``dist(s, t)``; :data:`INF` when unreachable."""
        if not 0 <= s < self.n or not 0 <= t < self.n:
            raise IndexError(f"query ({s}, {t}) out of range [0, {self.n})")
        if s == t:
            return 0.0
        best = self._bp_query(s, t)
        normal = merge_join_distance(
            self.normal.out_labels[s], self.normal.in_labels[t]
        )
        return normal if normal < best else best

    def _bp_query(self, s: int, t: int) -> float:
        """Distance via shared bit-parallel roots only.

        Both labels are sorted by root index, so common roots are found
        by a two-pointer merge; the marker AND short-circuits pairs with
        no shared root at all (the paper's 50-bit-marker trick).
        """
        if not self.markers[s] & self.markers[t]:
            return INF
        best = INF
        a = self.bp_labels[s]
        b = self.bp_labels[t]
        i = j = 0
        na, nb = len(a), len(b)
        while i < na and j < nb:
            tup_s = a[i]
            tup_t = b[j]
            if tup_s.root_idx == tup_t.root_idx:
                d = tup_s.dist + tup_t.dist
                if tup_s.mask_minus & tup_t.mask_minus:
                    d -= 2.0
                elif (tup_s.mask_minus & tup_t.mask_zero) or (
                    tup_s.mask_zero & tup_t.mask_minus
                ):
                    d -= 1.0
                if d < best:
                    best = d
                i += 1
                j += 1
            elif tup_s.root_idx < tup_t.root_idx:
                i += 1
            else:
                j += 1
        return best

    # -- statistics --------------------------------------------------------
    def num_bp_tuples(self) -> int:
        """Total bit-parallel tuples across all vertices."""
        return sum(len(lab) for lab in self.bp_labels)

    def size_in_bytes(self) -> int:
        """Combined size: normal index + bit-parallel tuples."""
        return (
            self.normal.size_in_bytes()
            + self.num_bp_tuples() * BYTES_PER_BP_TUPLE
        )

    def __repr__(self) -> str:
        return (
            f"BitParallelIndex(|V|={self.n}, roots={len(self.roots)}, "
            f"bp_tuples={self.num_bp_tuples()}, "
            f"normal_entries={self.normal.total_entries()})"
        )


def _bit_parallel_bfs(
    graph: Graph, root: int, members: list[int]
) -> tuple[list[float], list[int], list[int]]:
    """One bit-parallel BFS from ``root`` with neighbour set ``members``.

    Returns ``(dist, mask_minus, mask_zero)`` arrays over all vertices.
    Propagation follows Akiba et al.: level transitions push both masks
    forward; same-level edges feed ``S^-1`` of one endpoint into
    ``S^0`` of the other.
    """
    n = graph.num_vertices
    dist = [INF] * n
    mask_minus = [0] * n
    mask_zero = [0] * n

    dist[root] = 0.0
    frontier = [root]
    next_frontier: list[int] = []
    for i, u in enumerate(members):
        dist[u] = 1.0
        mask_minus[u] = 1 << i
        next_frontier.append(u)
    # Vertices adjacent to the root that are not members still belong to
    # level 1; enqueue them before the level loop runs.
    member_set = set(members)
    for v in graph.out_neighbors(root):
        if v not in member_set and dist[v] == INF:
            dist[v] = 1.0
            next_frontier.append(v)

    while frontier:
        same_level: list[tuple[int, int]] = []
        transitions: list[tuple[int, int]] = []
        for v in frontier:
            dv = dist[v]
            for w in graph.out_neighbors(v):
                dw = dist[w]
                if dw == INF:
                    dist[w] = dv + 1.0
                    next_frontier.append(w)
                    transitions.append((v, w))
                elif dw == dv + 1.0:
                    transitions.append((v, w))
                elif dw == dv:
                    same_level.append((v, w))
        # Same-level pass first: a member at distance d(v)-1 from v is at
        # distance <= d(w) from the same-level neighbour w, landing in
        # S^0 of w.  (Each undirected edge appears in both directions.)
        for v, w in same_level:
            mask_zero[w] |= mask_minus[v]
        # Level transition pass afterwards, so it observes the final
        # masks of the current level (Akiba et al., Algorithm 2).
        for v, w in transitions:
            mask_minus[w] |= mask_minus[v]
            mask_zero[w] |= mask_zero[v]
        frontier = next_frontier
        next_frontier = []
    return dist, mask_minus, mask_zero


def add_bitparallel(
    graph: Graph,
    index: LabelStore,
    num_roots: int = DEFAULT_NUM_ROOTS,
    max_set_size: int = MAX_SET_SIZE,
) -> BitParallelIndex:
    """Post-process ``index`` with bit-parallel labels (Section 6).

    Only valid for undirected unweighted graphs (as in the paper and in
    PLL).  Roots are chosen greedily by the index's ranking (falling
    back to degree order), each claiming up to ``max_set_size`` unused
    neighbours; the selected pivots' normal entries are dropped.
    """
    if graph.directed or graph.weighted:
        raise ValueError(
            "bit-parallel labels require an undirected unweighted graph"
        )
    if num_roots < 1:
        raise ValueError(f"num_roots must be >= 1, got {num_roots}")
    if not 1 <= max_set_size <= MAX_SET_SIZE:
        raise ValueError(
            f"max_set_size must be in [1, {MAX_SET_SIZE}], got {max_set_size}"
        )
    n = graph.num_vertices
    if index.n != n:
        raise ValueError("index and graph disagree on the vertex count")

    if index.rank is not None:
        order = sorted(range(n), key=lambda v: index.rank[v])
    else:
        order = sorted(range(n), key=lambda v: (-graph.degree(v), v))

    used = [False] * n
    roots: list[int] = []
    root_members: list[list[int]] = []
    for v in order:
        if len(roots) >= num_roots:
            break
        if used[v]:
            continue
        used[v] = True
        members = []
        for u in graph.out_neighbors(v):
            if len(members) >= max_set_size:
                break
            if not used[u]:
                used[u] = True
                members.append(u)
        roots.append(v)
        root_members.append(members)

    covered = set()
    for r, members in zip(roots, root_members):
        covered.add(r)
        covered.update(members)

    bp_labels: list[list[BPTuple]] = [[] for _ in range(n)]
    markers = [0] * n
    for root_idx, (r, members) in enumerate(zip(roots, root_members)):
        dist, mask_minus, mask_zero = _bit_parallel_bfs(graph, r, members)
        for v in range(n):
            if dist[v] == INF:
                continue
            bp_labels[v].append(
                BPTuple(root_idx, dist[v], mask_minus[v], mask_zero[v])
            )
            markers[v] |= 1 << root_idx

    # Drop normal entries covered by the bit-parallel side.
    new_labels = []
    for v in range(n):
        kept = [
            (p, d)
            for p, d in index.out_label(v)
            if p == v or p not in covered
        ]
        new_labels.append(kept)
    normal = LabelIndex(n, False, new_labels, new_labels, index.rank)

    return BitParallelIndex(normal, roots, root_members, bp_labels, markers)
