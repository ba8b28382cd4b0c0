"""Multiprocess candidate generation: the ``jobs > 1`` build engine.

The Hop-Stepping / Hop-Doubling generation step is embarrassingly
parallel over ``prevLabel``: each prev entry joins against read-only
partner arrays, so any partition of the block can be evaluated
independently.  :class:`ParallelBuildEngine` partitions ``prev`` into
contiguous chunks and fans them out over a process pool:

* stepping rounds use a long-lived pool (one per build).  The static
  context — the rank array and the edge-partner CSR — ships once per
  worker through the pool initializer;
* doubling rounds additionally need the per-iteration
  :class:`~repro.core.arraystate.LabelSnapshot`.  On platforms with
  the ``fork`` start method it is **never pickled**: the parent
  stashes the snapshot in a module-level global and forks a fresh
  per-round pool, so every worker inherits the arrays as shared
  copy-on-write pages and the chunk tasks carry only their ``prev``
  slices.  Where only ``spawn`` is available, the snapshot falls back
  to riding along with each chunk task (it is read-only either way,
  so workers never see a stale or half-updated state);
* results are folded **in chunk order** into one running minimum per
  pair, the reduction the serial engine runs over its blocks, so
  ``jobs=N`` produces bit-identical candidates — and therefore
  bit-identical label sets and ``IterationStats`` counters — to
  ``jobs=1`` (the guarantee ``tests/core/test_parallel_build.py``
  locks in, mirroring what the sharding layer promises for queries).

Admission and pruning stay in the parent: they mutate the single
authoritative state, and their cost is one vectorized pass per
iteration.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

from repro.core.engine import ArrayBuildEngine, check_engine_options
from repro.core.ranking import Ranking
from repro.graphs.digraph import Graph

# Per-process static context for pool workers, bound by _init_worker.
_WORKER_CTX: tuple | None = None

# Doubling-round snapshot hand-off: the parent binds the snapshot here
# right before forking a per-round pool; the initializer running in
# each forked child reads the inherited value (shared copy-on-write
# memory, no pickling) into _WORKER_SNAPSHOT.  Always None in the
# parent outside a doubling round and in spawn-started workers.
_PARENT_SNAPSHOT = None
_WORKER_SNAPSHOT = None


def _init_worker(edge_snapshot, full: bool) -> None:
    """Pool initializer: bind the static generation context."""
    global _WORKER_CTX, _WORKER_SNAPSHOT
    _WORKER_CTX = (edge_snapshot, full)
    _WORKER_SNAPSHOT = _PARENT_SNAPSHOT


def _generate_chunk(mode: str, label_snapshot, a, b, dist, hops):
    """Apply the rules to one contiguous ``prev`` chunk in a worker.

    ``label_snapshot`` is ``None`` on fork platforms — the snapshot
    then comes from the fork-inherited module global instead of the
    task payload.
    """
    from repro.core.arraystate import PrevBlock
    from repro.core.rules import array_doubling, array_stepping

    assert _WORKER_CTX is not None, "worker initializer did not run"
    edge_snapshot, full = _WORKER_CTX
    prev = PrevBlock(a, b, dist, hops)
    if mode == "step":
        assert edge_snapshot is not None, "pool built without edge partners"
        batch = array_stepping(edge_snapshot, prev, full)
    else:
        if label_snapshot is None:
            label_snapshot = _WORKER_SNAPSHOT
        assert label_snapshot is not None, "no label snapshot available"
        batch = array_doubling(label_snapshot, prev, full)
    return batch


def _merged(n: int, futures):
    """The chunks' candidate batches folded into one, in chunk order."""
    from repro.core.rules import CandidateBatch

    batch = CandidateBatch(n)
    for future in futures:
        batch.merge(future.result())
    return batch


class ParallelBuildEngine(ArrayBuildEngine):
    """Array engine with candidate generation fanned over a process pool."""

    name = "array-parallel"

    def __init__(
        self,
        graph: Graph,
        ranking: Ranking,
        rule_set: str,
        jobs: int,
    ) -> None:
        super().__init__(graph, ranking, rule_set)
        check_engine_options("array", jobs)
        self.jobs = jobs
        self._pool: ProcessPoolExecutor | None = None
        self._pool_has_edges = False
        self._fork_ctx = (
            multiprocessing.get_context("fork")
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )

    # -- pool management ----------------------------------------------
    def _ensure_pool(self, need_edges: bool) -> ProcessPoolExecutor:
        """A long-lived pool whose workers carry the required context.

        The edge-partner CSR is only needed by stepping rounds, so
        pure-doubling builds never pay for building or shipping it; if
        a stepping round arrives after a pool was built without edges
        (an alternating custom schedule), the pool is rebuilt once —
        edges then stay available for the rest of the build.
        """
        if self._pool is not None and need_edges and not self._pool_has_edges:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._pool is None:
            ctx = self._fork_ctx or multiprocessing.get_context()
            edges = self.edge_snapshot() if need_edges else None
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=ctx,
                initializer=_init_worker,
                initargs=(edges, self.full),
            )
            self._pool_has_edges = need_edges
        return self._pool

    def _submit_chunks(self, pool, mode: str, label_snapshot, prev):
        size = len(prev)
        futures = []
        for k in range(self.jobs):
            lo = k * size // self.jobs
            hi = (k + 1) * size // self.jobs
            if lo == hi:
                continue
            futures.append(
                pool.submit(
                    _generate_chunk,
                    mode,
                    label_snapshot,
                    prev.a[lo:hi],
                    prev.b[lo:hi],
                    prev.dist[lo:hi],
                    prev.hops[lo:hi],
                )
            )
        return futures

    # -- generation ----------------------------------------------------
    def generate(self, mode: str, prev):
        size = len(prev)
        if self.jobs == 1 or size < self.jobs:
            return super().generate(mode, prev)
        n = self.state.n
        if mode == "step":
            futures = self._submit_chunks(
                self._ensure_pool(need_edges=True), "step", None, prev
            )
            return _merged(n, futures)

        snapshot = self.state.doubling_snapshot(prev)
        if self._fork_ctx is None:
            # No fork: ship the snapshot with each chunk task (spawn
            # would re-import the module and lose any global).
            pool = self._ensure_pool(need_edges=False)
            futures = self._submit_chunks(pool, "double", snapshot, prev)
            return _merged(n, futures)

        # Fork path: publish the snapshot, fork a per-round pool that
        # inherits it as shared copy-on-write pages, and send only the
        # prev slices through the task queue.  The long-lived stepping
        # pool is torn down first: its executor threads must not be
        # mid-operation in the parent when the round forks (the
        # classic fork-with-threads deadlock hazard), and stepping
        # rounds simply rebuild it on demand.
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        global _PARENT_SNAPSHOT
        _PARENT_SNAPSHOT = snapshot
        try:
            with ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=self._fork_ctx,
                initializer=_init_worker,
                initargs=(None, self.full),
            ) as pool:
                futures = self._submit_chunks(pool, "double", None, prev)
                return _merged(n, futures)
        finally:
            _PARENT_SNAPSHOT = None

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
