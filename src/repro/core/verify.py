"""Index verification: structural invariants + sampled exactness.

A production deployment of a distance oracle wants a cheap way to
certify that a (possibly deserialized, possibly hand-edited) index is
still trustworthy against a graph.  ``verify_index`` checks:

0. **rank and pendants** — the attached ranking is a permutation of
   the vertices (a rank-space v3 store reads its pivots back through
   it); for an index that answers pendant vertices through their
   neighbour: every ``parent`` in range, never itself a pendant and
   ranked above its pendant, every pendant edge positive, every core
   vertex its own parent, every pendant's stored row empty.  O(n)
   range checks, done first: nothing else is looked at while one
   fails, because every label read and query goes through them;
1. **structure** — label arrays sorted by pivot, self entries present
   with distance 0, pivots outrank owners under the attached ranking;
2. **soundness** — every label entry's distance is realizable (it is
   an upper bound certified by an actual path; checked as
   ``entry >= true distance`` on sampled entries);
3. **completeness** — sampled pair queries equal BFS/Dijkstra ground
   truth.

The result object lists every violation found, so callers can log or
assert as appropriate.  Checks 2-3 sample (controlled by ``samples``)
because exact verification is quadratic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.labels import INF, LabelStore
from repro.graphs.digraph import Graph
from repro.graphs.traversal import bfs_distances, dijkstra_distances
from repro.utils.validation import check_positive


@dataclass
class VerificationReport:
    """Outcome of :func:`verify_index`."""

    checked_entries: int = 0
    checked_queries: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)

    def __str__(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} violations"
        return (
            f"VerificationReport({status}; entries={self.checked_entries}, "
            f"queries={self.checked_queries})"
        )


def _check_pendants(index: LabelStore, report: VerificationReport) -> None:
    """Check 0 over each array store under ``index`` (global ids)."""
    n = index.n
    rank = getattr(index, "rank", None)
    shards = getattr(index, "shards", [index])
    los = getattr(index, "_los", [0])
    # A vertex with a staged label is core whatever the arrays say.
    parts = [
        (lo, shard, set(shard.staged_vertices().tolist()))
        for lo, shard in zip(los, shards)
        if getattr(shard, "hang", None) is not None
    ]
    pendants = {
        lo + v
        for lo, shard, staged in parts
        for v, h in enumerate(shard.hang)
        if h and v not in staged
    }
    for lo, shard, staged in parts:
        offsets = getattr(shard, "out_offsets", None)
        for local, (p, h) in enumerate(zip(shard.parent, shard.hang)):
            v = lo + local
            if local in staged:
                continue
            if not h:
                if p != v:
                    report.add(f"core vertex {v} has parent {p}")
                continue
            if not h > 0:
                report.add(f"pendant {v} hangs by {h!r}, not a positive edge")
            if not 0 <= p < n or p == v:
                report.add(f"pendant {v} has parent {p} out of range")
            elif p in pendants:
                report.add(f"pendant {v} hangs from pendant {p}")
            elif rank is not None and rank[p] >= rank[v]:
                report.add(f"pendant {v} outranks its parent {p}")
            if offsets is not None and offsets[local] != offsets[local + 1]:
                report.add(f"pendant {v} has a non-empty stored row")


def _check_rank(index: LabelStore, report: VerificationReport) -> None:
    """The attached ranking, if any, orders every vertex exactly once:
    a rank-space store reads its pivots back through it."""
    rank = getattr(index, "rank", None)
    if rank is not None and sorted(rank) != list(range(index.n)):
        report.add("rank column is not a permutation of the vertices")


def _check_structure(index: LabelStore, report: VerificationReport) -> None:
    rank = getattr(index, "rank", None)
    sides = [("out", index.out_label)]
    if index.directed:
        sides.append(("in", index.in_label))
    for side, read_label in sides:
        for v in range(index.n):
            lab = read_label(v)
            pivots = [p for p, _ in lab]
            if pivots != sorted(pivots):
                report.add(f"L{side}({v}) is not sorted by pivot")
            if len(set(pivots)) != len(pivots):
                report.add(f"L{side}({v}) has duplicate pivots")
            entries = dict(lab)
            if entries.get(v) != 0.0:
                report.add(f"L{side}({v}) lacks the trivial (v, 0) entry")
            if rank is not None:
                for p, d in lab:
                    if p != v and rank[p] >= rank[v]:
                        report.add(
                            f"L{side}({v}) pivot {p} does not outrank owner"
                        )
                    if p != v and d <= 0:
                        report.add(
                            f"L{side}({v}) entry ({p}, {d}) non-positive"
                        )


def verify_index(
    graph: Graph,
    index: LabelStore,
    samples: int = 200,
    seed: int = 0,
) -> VerificationReport:
    """Verify ``index`` against ``graph``; see module docstring.

    Raises ``ValueError`` unless ``samples >= 1``.
    """
    check_positive("samples", samples)
    report = VerificationReport()
    if index.n != graph.num_vertices:
        report.add(
            f"vertex count mismatch: index {index.n}, "
            f"graph {graph.num_vertices}"
        )
        return report

    _check_rank(index, report)
    _check_pendants(index, report)
    if not report.ok:
        return report
    _check_structure(index, report)

    rng = random.Random(seed)
    n = graph.num_vertices
    if n == 0:
        return report
    sssp = dijkstra_distances if graph.weighted else bfs_distances

    # Soundness + completeness from sampled sources: one traversal
    # serves both checks for every target.
    num_sources = max(1, min(n, samples // max(1, min(n, 32))))
    sources = (
        list(range(n)) if n <= num_sources else rng.sample(range(n), num_sources)
    )
    for s in sources:
        truth = sssp(graph, s)
        # Completeness: sampled targets.
        targets = (
            list(range(n))
            if n <= 32
            else rng.sample(range(n), 32)
        )
        for t in targets:
            got = index.query(s, t)
            report.checked_queries += 1
            if got != truth[t]:
                report.add(
                    f"query({s}, {t}) = {got}, ground truth {truth[t]}"
                )
        # Soundness: every out-label entry of s is an upper bound.
        for p, d in index.out_label(s):
            report.checked_entries += 1
            true_d = truth[p]
            if true_d == INF or d < true_d:
                report.add(
                    f"Lout({s}) entry ({p}, {d}) below true distance {true_d}"
                )
    return report
