"""I/O-efficient index construction (Section 4 + Section 5.3).

:class:`ExternalLabelingBuilder` re-implements the iterative labeling
with the disk-resident layout of Algorithm 2:

* label entries live in sorted :class:`~paper.io_sim.blockfile.EntryFile`
  objects — ``OUT`` keyed by owner (the paper's "old (u2→u) sorted by
  u2") and ``IN`` keyed by owner (the "old (u1→u) sorted by u");
* each iteration's candidate generation runs as a **blocked
  nested-loop join**: prev entries are processed in memory-budget-sized
  batches (the outer loop, ``BL``); Rule-1/4 partners are fetched with
  a *range scan* over the co-sorted file, Rule-2/5 partners with a full
  sequential scan of the opposite file per batch (the inner loop,
  ``BR``) — exactly the paper's access pattern, with every block
  charged to the shared :class:`~paper.io_sim.diskmodel.DiskModel`;
* the pruning pass charges the Section 4.2 nested loop: the
  candidates+old outer stream and one inner scan of the opposite-side
  file per outer batch.

Admission bookkeeping (duplicate suppression) and the pruning *bound*
evaluation use a shadow :class:`~paper.labels.DirectedLabelState` —
standing in for the buffer-resident binary searches of Algorithm 2 —
with the admission and pruning rules the in-memory builders use, so
the resulting index is **bit-identical** to the in-memory builder with
the same options (the test suite asserts this).
Only the minimized rule set is supported, as in the paper's external
algorithms.

Per-iteration I/O deltas are recorded so the benches can reproduce the
shape of the paper's I/O complexity:
``O(log D_H * ceil(|old|/M) * scan(|old| + |cand|))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from paper.io_sim.blockfile import Entry, EntryFile
from paper.io_sim.diskmodel import DiskModel, IOStats
from paper.labels import (
    CandidateSet,
    DirectedLabelState,
    LabelIndex,
    UndirectedLabelState,
    admit_and_prune,
)
from repro.core.hop_doubling import IterationStats
from repro.core.ranking import Ranking, make_ranking
from repro.core.rules import PrevEntry
from repro.graphs.digraph import Graph
from repro.utils.timer import Timer


@dataclass
class ExternalIterationStats:
    """In-memory counters of one round plus its block I/O delta."""

    stats: IterationStats
    io: IOStats


@dataclass
class ExternalBuildResult:
    """Index + provenance of an external build."""

    index: LabelIndex
    ranking: Ranking
    iterations: list[ExternalIterationStats] = field(default_factory=list)
    build_seconds: float = 0.0
    total_io: IOStats = field(default_factory=IOStats)

    @property
    def num_iterations(self) -> int:
        return 1 + sum(1 for it in self.iterations if it.stats.survived > 0)


class ExternalLabelingBuilder:
    """Blocked, I/O-charged version of the hybrid/stepping/doubling build."""

    def __init__(
        self,
        graph: Graph,
        disk: DiskModel | None = None,
        ranking: Ranking | str = "auto",
        strategy: str = "hybrid",
        switch_iteration: int = 10,
        prune: bool = True,
        backend: str = "memory",
    ) -> None:
        if strategy not in ("hybrid", "stepping", "doubling"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.graph = graph
        self.disk = disk if disk is not None else DiskModel()
        if isinstance(ranking, str):
            ranking = make_ranking(graph, ranking)
        self.ranking = ranking
        self.strategy = strategy
        self.switch_iteration = switch_iteration
        self.prune = prune
        self.backend = backend

    # -- mode selection (same contract as the in-memory builders) -------
    def _mode_for(self, iteration: int) -> str:
        if self.strategy == "stepping":
            return "step"
        if self.strategy == "doubling":
            return "double"
        return "step" if iteration <= self.switch_iteration else "double"

    # -- build ------------------------------------------------------------
    def build(self) -> ExternalBuildResult:
        timer = Timer().start()
        graph = self.graph
        disk = self.disk
        rank = self.ranking.rank_of
        directed = graph.directed

        if directed:
            state: DirectedLabelState | UndirectedLabelState = (
                DirectedLabelState(rank)
            )
        else:
            state = UndirectedLabelState(rank)

        # ---- files ----------------------------------------------------
        out_file = EntryFile("OUT", disk, self.backend)
        in_file = EntryFile("IN", disk, self.backend)
        edges_in = EntryFile("EDGES_IN", disk, self.backend)
        edges_out = EntryFile("EDGES_OUT", disk, self.backend)

        # Edge files: EDGES_IN keyed by target (Rule 1/2 stepping
        # partners), EDGES_OUT keyed by source (Rule 4/5 partners).
        ein: list[Entry] = []
        eout: list[Entry] = []
        for u, v, w in graph.edges():
            if u == v:
                continue
            ein.append((v, u, w, 1))
            eout.append((u, v, w, 1))
            if not directed:
                ein.append((u, v, w, 1))
                eout.append((v, u, w, 1))
        edges_in.replace_contents(ein)
        edges_out.replace_contents(eout)

        # ---- initialization (iteration 1): edges become entries --------
        prev: list[PrevEntry] = []
        for u, v, w in graph.edges():
            if u == v:
                continue
            if not directed:
                owner, pivot = state.owner_pivot(u, v)
                u, v = owner, pivot
            existing = state.get_pair(u, v)
            if existing is not None and existing[0] <= w:
                continue
            state.set_pair(u, v, w, 1)
            prev.append((u, v, w, 1))
        self._rewrite_label_files(state, out_file, in_file, directed)

        iterations: list[ExternalIterationStats] = []
        iteration = 1
        while prev:
            iteration += 1
            mode = self._mode_for(iteration)
            round_timer = Timer().start()
            before = disk.snapshot()

            candidates = self._generate(
                state, prev, mode, out_file, in_file, edges_in, edges_out
            )
            # Candidate stream is written out once, sorted for pruning.
            disk.charge_write(len(candidates))
            disk.charge_sort(len(candidates))

            self._charge_pruning_io(
                state, candidates, out_file, in_file, directed
            )
            survivors, outcome = admit_and_prune(
                state, candidates, prune=self.prune
            )
            self._rewrite_label_files(state, out_file, in_file, directed)

            elapsed = round_timer.stop()
            iterations.append(
                ExternalIterationStats(
                    stats=IterationStats(
                        iteration=iteration,
                        mode=mode,
                        raw_generated=outcome.raw_generated,
                        distinct_generated=outcome.distinct_generated,
                        admitted=outcome.admitted,
                        pruned=outcome.pruned,
                        survived=outcome.survived,
                        total_entries=state.total_entries(),
                        prev_size=len(prev),
                        elapsed=elapsed,
                    ),
                    io=disk.snapshot() - before,
                )
            )
            prev = survivors

        for f in (out_file, in_file, edges_in, edges_out):
            f.close()
        index = LabelIndex.from_state(state)
        return ExternalBuildResult(
            index=index,
            ranking=self.ranking,
            iterations=iterations,
            build_seconds=timer.stop(),
            total_io=disk.snapshot(),
        )

    # -- candidate generation (blocked nested-loop joins) ----------------
    def _generate(
        self,
        state,
        prev: list[PrevEntry],
        mode: str,
        out_file: EntryFile,
        in_file: EntryFile,
        edges_in: EntryFile,
        edges_out: EntryFile,
    ) -> CandidateSet:
        rank = state.rank
        directed = self.graph.directed
        cands = CandidateSet()
        half_memory = max(self.disk.block_entries, self.disk.memory_entries // 2)

        stepping = mode == "step"
        if directed:
            out_prev = [e for e in prev if rank[e[1]] < rank[e[0]]]
            in_prev = [e for e in prev if rank[e[0]] < rank[e[1]]]
            # Rules 1 & 2: prev out-entries grouped by source u.
            self._join_pass(
                cands,
                sorted(out_prev, key=lambda e: e[0]),
                group_index=0,
                range_file=None if stepping else in_file,
                scan_file=None if stepping else out_file,
                edge_file=edges_in if stepping else None,
                emit=self._emit_out_prev,
                rank=rank,
                batch_budget=half_memory,
            )
            # Rules 4 & 5: prev in-entries grouped by target v.
            self._join_pass(
                cands,
                sorted(in_prev, key=lambda e: e[1]),
                group_index=1,
                range_file=None if stepping else out_file,
                scan_file=None if stepping else in_file,
                edge_file=edges_out if stepping else None,
                emit=self._emit_in_prev,
                rank=rank,
                batch_budget=half_memory,
            )
        else:
            self._join_pass(
                cands,
                sorted(prev, key=lambda e: e[0]),
                group_index=0,
                range_file=None if stepping else out_file,  # the LAB file
                scan_file=None if stepping else out_file,
                edge_file=edges_in if stepping else None,
                emit=self._emit_undirected,
                rank=rank,
                batch_budget=half_memory,
            )
        return cands

    @staticmethod
    def _emit_out_prev(cands, rank, prev_entry, partner, from_scan, offer_swap):
        """Rules 1 (range partner) and 2 (scan partner) for out-prev."""
        u, v, d, h = prev_entry
        x, d1, h1 = partner
        if x == v:
            return
        if from_scan:
            cands.offer(x, v, d1 + d, h1 + h)  # Rule 2
        elif rank[x] > rank[v]:
            cands.offer(x, v, d1 + d, h1 + h)  # Rule 1 (minimized)

    @staticmethod
    def _emit_in_prev(cands, rank, prev_entry, partner, from_scan, offer_swap):
        """Rules 4 (range partner) and 5 (scan partner) for in-prev."""
        u, v, d, h = prev_entry
        y, d2, h2 = partner
        if y == u:
            return
        if from_scan:
            cands.offer(u, y, d + d2, h + h2)  # Rule 5
        elif rank[y] > rank[u]:
            cands.offer(u, y, d + d2, h + h2)  # Rule 4 (minimized)

    @staticmethod
    def _emit_undirected(cands, rank, prev_entry, partner, from_scan, offer_swap):
        """Undirected Rule 1/2 analogues; offers in (owner, pivot) order."""
        owner, pivot, d, h = prev_entry
        x, d1, h1 = partner
        if x == pivot:
            return
        if not from_scan and rank[x] < rank[pivot]:
            return  # minimized restriction on same-store partners
        a, b = (x, pivot) if rank[x] > rank[pivot] else (pivot, x)
        cands.offer(a, b, d1 + d, h1 + h)

    def _join_pass(
        self,
        cands: CandidateSet,
        prev_sorted: list[PrevEntry],
        group_index: int,
        range_file: EntryFile | None,
        scan_file: EntryFile | None,
        edge_file: EntryFile | None,
        emit,
        rank,
        batch_budget: int,
    ) -> None:
        """One blocked nested-loop pass of Algorithm 2.

        ``prev_sorted`` is grouped by its join key; each batch loads the
        co-sorted ``range_file`` slice (Rule 1/4 partners) and, in
        doubling mode, streams the whole ``scan_file`` (Rule 2/5
        partners); in stepping mode both partner roles are played by the
        co-sorted ``edge_file`` slice instead (unit-hop entries only).
        """
        if not prev_sorted:
            return
        disk = self.disk
        i = 0
        n = len(prev_sorted)
        while i < n:
            # Outer block: whole key-groups until the budget is reached.
            j = i
            while j < n and (j - i) < batch_budget:
                key = prev_sorted[j][group_index]
                while j < n and prev_sorted[j][group_index] == key:
                    j += 1
            batch = prev_sorted[i:j]
            i = j
            disk.charge_read(len(batch))  # the prev slice itself

            by_key: dict[int, list[PrevEntry]] = {}
            for e in batch:
                by_key.setdefault(e[group_index], []).append(e)
            key_lo = batch[0][group_index]
            key_hi = batch[-1][group_index]

            # Rule 1/4 partners: co-sorted range scan (doubling only).
            if range_file is not None:
                for key, other, d1, h1 in range_file.range_scan(
                    key_lo, key_hi
                ):
                    group = by_key.get(key)
                    if group is None:
                        continue
                    for prev_entry in group:
                        emit(
                            cands, rank, prev_entry, (other, d1, h1),
                            False, None,
                        )

            # Stepping: unit-hop partners from the co-sorted edge file.
            if edge_file is not None:
                for key, other, w, _one in edge_file.range_scan(key_lo, key_hi):
                    group = by_key.get(key)
                    if group is None:
                        continue
                    for prev_entry in group:
                        # Edge partners cover both Rule 1/4 and 2/5 sides:
                        # classify by the rank test inside the emitter.
                        from_scan = rank[other] > rank[key]
                        emit(
                            cands,
                            rank,
                            prev_entry,
                            (other, w, 1),
                            from_scan,
                            None,
                        )
                continue

            # Doubling: inner full scan of the opposite file (Rule 2/5).
            if scan_file is not None:
                for chunk in scan_file.chunks(self.disk.memory_entries // 2):
                    for owner, other, d1, h1 in chunk:
                        group = by_key.get(other)
                        if group is None:
                            continue
                        for prev_entry in group:
                            emit(
                                cands,
                                rank,
                                prev_entry,
                                (owner, d1, h1),
                                True,
                                None,
                            )

    # -- pruning I/O (Section 4.2 loop shape) -----------------------------
    def _charge_pruning_io(
        self,
        state,
        candidates: CandidateSet,
        out_file: EntryFile,
        in_file: EntryFile,
        directed: bool,
    ) -> None:
        """Charge the nested-loop pruning pass of Section 4.2.

        Outer stream: candidates plus the same-side old entries; inner:
        one full scan of the opposite-side file per outer batch.
        """
        if not self.prune or not len(candidates):
            return
        disk = self.disk
        half_memory = max(disk.block_entries, disk.memory_entries // 2)
        if directed:
            rank = state.rank
            n_out = sum(
                1 for (a, b) in candidates.pairs if rank[b] < rank[a]
            )
            n_in = len(candidates) - n_out
            for n_cand, same, opposite in (
                (n_out, out_file, in_file),
                (n_in, in_file, out_file),
            ):
                if n_cand == 0:
                    continue
                outer = n_cand + len(same)
                disk.charge_read(outer)
                batches = -(-outer // half_memory)
                for _ in range(batches):
                    disk.charge_read(len(opposite) + n_cand)
        else:
            outer = len(candidates) + len(out_file)
            disk.charge_read(outer)
            batches = -(-outer // half_memory)
            for _ in range(batches):
                disk.charge_read(len(out_file) + len(candidates))

    # -- file maintenance ---------------------------------------------------
    def _rewrite_label_files(
        self,
        state,
        out_file: EntryFile,
        in_file: EntryFile,
        directed: bool,
    ) -> None:
        """Rebuild the sorted label files from the surviving entries."""
        if directed:
            out_entries: list[Entry] = []
            in_entries: list[Entry] = []
            for owner, pivot, dist, hops, is_out in state.iter_entries():
                if is_out:
                    out_entries.append((owner, pivot, dist, hops))
                else:
                    in_entries.append((owner, pivot, dist, hops))
            out_file.replace_contents(out_entries)
            in_file.replace_contents(in_entries)
        else:
            lab_entries = [
                (owner, pivot, dist, hops)
                for owner, pivot, dist, hops, _ in state.iter_entries()
            ]
            out_file.replace_contents(lab_entries)
            in_file.replace_contents([])
