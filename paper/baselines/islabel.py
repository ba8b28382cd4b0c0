"""IS-Label (Fu, Wu, Cheng, Wong — PVLDB 2013), reimplemented.

The only prior external-memory-capable competitor in the paper.  The
scheme:

1. **Hierarchy construction** — repeatedly extract an *independent
   set* ``I_i`` of low-degree vertices from the current graph ``G_i``;
   the remaining graph ``G_{i+1}`` receives *augmenting edges* between
   the neighbours of each removed vertex so that pairwise distances
   among surviving vertices are preserved.
2. **Top-down labels** — a vertex removed at level ``i`` aggregates the
   labels of its (strictly higher-level) neighbours in ``G_i``; the
   topmost residual vertices seed the recursion.
3. **Query** — common-pivot lookup over ``Lout(s)``/``Lin(t)``; in
   *partial* mode (``max_levels`` set) a residual graph ``G_k`` is kept
   and the lookup is complemented by a bidirectional Dijkstra over
   ``G_k`` seeded from the labels, exactly as in the original paper
   (the paper under reproduction criticizes this mode for not being a
   pure index).

The known weakness Table 6 exhibits — augmented graphs and labels that
grow quickly because the pruning is much weaker than hop-doubling's —
is faithfully reproduced: we only deduplicate per-pivot minima plus an
optional dominance prune.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from paper.labels import LabelIndex, merge_join_distance
from repro.core.labels import INF
from repro.graphs.digraph import Graph
from repro.utils.timer import Timer


@dataclass
class _WorkGraph:
    """Mutable adjacency used while peeling the hierarchy."""

    out: list[dict[int, float]]
    inn: list[dict[int, float]]

    @classmethod
    def from_graph(cls, graph: Graph) -> "_WorkGraph":
        n = graph.num_vertices
        out: list[dict[int, float]] = [{} for _ in range(n)]
        inn: list[dict[int, float]] = [{} for _ in range(n)]
        for u, v, w in graph.edges():
            if u == v:
                continue
            if w < out[u].get(v, INF):
                out[u][v] = w
                inn[v][u] = w
            if not graph.directed and w < out[v].get(u, INF):
                out[v][u] = w
                inn[u][v] = w
        return cls(out, inn)

    def degree(self, v: int) -> int:
        return len(self.out[v]) + len(self.inn[v])

    def remove_vertex(self, v: int, augment: bool = True) -> None:
        """Delete ``v``, adding distance-preserving shortcut edges."""
        in_edges = list(self.inn[v].items())
        out_edges = list(self.out[v].items())
        if augment:
            for a, w1 in in_edges:
                for b, w2 in out_edges:
                    if a == b:
                        continue
                    w = w1 + w2
                    if w < self.out[a].get(b, INF):
                        self.out[a][b] = w
                        self.inn[b][a] = w
        for a, _ in in_edges:
            del self.out[a][v]
        for b, _ in out_edges:
            del self.inn[b][v]
        self.out[v] = {}
        self.inn[v] = {}


class ISLabelIndex:
    """The queryable product of :func:`build_islabel`."""

    name = "is-label"

    def __init__(
        self,
        labels: LabelIndex,
        residual_out: list[dict[int, float]] | None,
        residual_in: list[dict[int, float]] | None,
        residual_vertices: set[int],
        levels: list[int],
        build_seconds: float,
    ) -> None:
        self.labels = labels
        self.residual_out = residual_out
        self.residual_in = residual_in
        self.residual_vertices = residual_vertices
        self.levels = levels
        self.build_seconds = build_seconds

    @property
    def is_full_index(self) -> bool:
        """Whether the hierarchy was peeled to the end (no residual)."""
        return not self.residual_vertices

    def query(self, s: int, t: int) -> float:
        """Exact ``dist(s, t)`` via labels (+ residual search if partial)."""
        if s == t:
            return 0.0
        best = merge_join_distance(
            self.labels.out_label(s), self.labels.in_label(t)
        )
        if not self.residual_vertices:
            return best
        return min(best, self._residual_search(s, t, best))

    def _residual_search(self, s: int, t: int, best: float) -> float:
        """Bidirectional Dijkstra over the residual graph, label-seeded.

        Forward distances start from ``Lout(s)`` entries whose pivot
        survives in ``G_k``; backward from ``Lin(t)``.  Any meeting
        vertex yields a candidate distance.
        """
        fwd: dict[int, float] = {}
        for p, d in self.labels.out_label(s):
            if p in self.residual_vertices or p == s:
                if p in self.residual_vertices:
                    fwd[p] = min(fwd.get(p, INF), d)
        if s in self.residual_vertices:
            fwd[s] = 0.0
        bwd: dict[int, float] = {}
        for p, d in self.labels.in_label(t):
            if p in self.residual_vertices:
                bwd[p] = min(bwd.get(p, INF), d)
        if t in self.residual_vertices:
            bwd[t] = 0.0
        if not fwd or not bwd:
            return INF

        def dijkstra(
            seeds: dict[int, float], adj: list[dict[int, float]]
        ) -> dict[int, float]:
            dist = dict(seeds)
            heap = [(d, v) for v, d in seeds.items()]
            heapq.heapify(heap)
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist.get(u, INF):
                    continue
                for v, w in adj[u].items():
                    nd = d + w
                    if nd < dist.get(v, INF):
                        dist[v] = nd
                        heapq.heappush(heap, (nd, v))
            return dist

        dist_f = dijkstra(fwd, self.residual_out)
        dist_b = dijkstra(bwd, self.residual_in)
        for v, df in dist_f.items():
            db = dist_b.get(v)
            if db is not None and df + db < best:
                best = df + db
        return best

    def size_in_bytes(self) -> int:
        """Label bytes plus residual-graph bytes (the paper's criticism:
        the residual must be loaded before querying, so it counts)."""
        total = self.labels.size_in_bytes()
        if self.residual_out is not None:
            arcs = sum(len(d) for d in self.residual_out)
            total += arcs * 8
        return total


def _greedy_independent_set(
    work: _WorkGraph, alive: list[int]
) -> list[int]:
    """Lowest-degree-first greedy independent set of the current graph."""
    chosen: list[int] = []
    blocked: set[int] = set()
    for v in sorted(alive, key=lambda v: (work.degree(v), v)):
        if v in blocked:
            continue
        chosen.append(v)
        blocked.add(v)
        blocked.update(work.out[v])
        blocked.update(work.inn[v])
    return chosen


def build_islabel(
    graph: Graph,
    max_levels: int | None = None,
    prune: bool = True,
) -> ISLabelIndex:
    """Build an IS-Label index.

    ``max_levels=None`` peels the hierarchy completely (the "complete
    2-hop indexing" configuration of Table 6); an integer keeps a
    residual graph after that many levels (the original paper's
    memory-bounding trick).  ``prune`` applies the dominance check when
    merging neighbour labels (the original applies a comparable one).
    """
    timer = Timer().start()
    n = graph.num_vertices
    work = _WorkGraph.from_graph(graph)

    # --- Phase 1: peel independent sets -------------------------------
    level_of = [0] * n  # 0 = residual / topmost
    levels_done = 0
    alive = list(range(n))
    removal_neighbors_out: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    removal_neighbors_in: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    while alive:
        if max_levels is not None and levels_done >= max_levels:
            break
        level = levels_done + 1
        ind_set = _greedy_independent_set(work, alive)
        if not ind_set:  # pragma: no cover - greedy always returns >= 1
            break
        for v in ind_set:
            level_of[v] = level
            # Snapshot v's neighbours *before* removal: labels are built
            # from exactly these arcs of G_i.
            removal_neighbors_out[v] = list(work.out[v].items())
            removal_neighbors_in[v] = list(work.inn[v].items())
        for v in ind_set:
            work.remove_vertex(v)
        alive = [v for v in alive if level_of[v] == 0]
        levels_done += 1

    residual = set(alive)
    max_level = levels_done + 1
    for v in residual:
        level_of[v] = max_level
        removal_neighbors_out[v] = list(work.out[v].items())
        removal_neighbors_in[v] = list(work.inn[v].items())

    # A total priority order: higher level first, then degree, then id.
    def priority(v: int) -> tuple[int, int, int]:
        return (-level_of[v], -graph.degree(v), v)

    order = sorted(range(n), key=priority)
    rank_of = [0] * n
    for r, v in enumerate(order):
        rank_of[v] = r

    # --- Phase 2: top-down label construction --------------------------
    out_lab: list[dict[int, float]] = [{v: 0.0} for v in range(n)]
    in_lab: list[dict[int, float]] = (
        [{v: 0.0} for v in range(n)] if graph.directed else out_lab
    )

    def merge_out(v: int) -> None:
        lab = out_lab[v]
        for b, w in removal_neighbors_out[v]:
            if w < lab.get(b, INF):
                lab[b] = w
            for x, d in out_lab[b].items():
                if x == v:
                    continue
                nd = w + d
                if nd < lab.get(x, INF):
                    lab[x] = nd

    def merge_in(v: int) -> None:
        lab = in_lab[v]
        for a, w in removal_neighbors_in[v]:
            if w < lab.get(a, INF):
                lab[a] = w
            for x, d in in_lab[a].items():
                if x == v:
                    continue
                nd = d + w
                if nd < lab.get(x, INF):
                    lab[x] = nd

    def dominance_prune(v: int) -> None:
        """Drop entries coverable through a higher-priority pivot."""
        for lab, other in ((out_lab[v], in_lab), (in_lab[v], out_lab)):
            doomed = []
            for x, d in lab.items():
                if x == v:
                    continue
                for w, d1 in lab.items():
                    if w == x or w == v or rank_of[w] >= rank_of[x]:
                        continue
                    d2 = other[x].get(w)
                    if d2 is not None and d1 + d2 <= d:
                        doomed.append(x)
                        break
            for x in doomed:
                del lab[x]
            if not graph.directed:
                break

    # Residual vertices in partial mode keep label = self only (queries
    # go through the residual graph); in full mode the residual is empty
    # except the single top level, which we label against each other via
    # the same merge (their snapshot arcs are within the top group).
    for v in order:
        if max_levels is not None and v in residual:
            continue
        if v in residual:
            # Full mode: top-level vertices label each other through the
            # final augmented graph, peeled one by one in priority order.
            pass
        merge_out(v)
        if graph.directed:
            merge_in(v)
        if prune:
            dominance_prune(v)

    elapsed = timer.stop()

    out_sorted = [sorted(lab.items()) for lab in out_lab]
    in_sorted = (
        [sorted(lab.items()) for lab in in_lab] if graph.directed else out_sorted
    )
    labels = LabelIndex(n, graph.directed, out_sorted, in_sorted, rank_of)
    if max_levels is None:
        return ISLabelIndex(labels, None, None, set(), level_of, elapsed)
    return ISLabelIndex(
        labels,
        work.out,
        work.inn,
        residual,
        level_of,
        elapsed,
    )
