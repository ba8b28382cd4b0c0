"""The :class:`ParallelOracle` frontend: serve one index with N workers.

One :class:`~repro.oracle.DistanceOracle` is one process serving one
store.  This frontend is the single owner of "serve this index with N
workers" — ``repro query --shards`` and ``repro serve`` both go
through it — and it makes exactly one decision per batch: answer
**inline** on the parent's own kernel, or hand the batch to the
**fork pool** of :mod:`repro.serve.shm`.

* the parent opens the index itself — a shard directory (see
  :mod:`repro.oracle.sharding`) or a single v2/v3 index file,
  memory-mapped — so every single-pair facility
  (``query``, k-NN, path reconstruction, the verifier) works exactly
  as on a plain oracle;
* the pool is a :class:`~repro.serve.shm.SharedMemoryFanout`: workers
  are *forked* after the parent creates the kernel's row cache, so
  they share one physical copy of the label arrays, and pair/result
  buffers live in shared mmaps — nothing is pickled per batch.  Label
  lookup is memory-bound (Akiba et al.; Farhan et al. — PAPERS.md), so
  a pool whose workers each hold their own copy cannot pay; there is
  no other pool.

A batch is answered **inline** when any of these holds, and fanned out
otherwise:

1. it has fewer than :data:`MIN_PARALLEL_BATCH` pairs (waking the
   workers costs more than the joins);
2. ``workers == 1``;
3. updates are staged but not reconciled (the forked workers still
   hold the pre-update labels; only the parent's overlay is right);
4. the index has at most :data:`INLINE_ENTRIES` label entries (one
   kernel pass over its row cache beats the hand-off);
5. the ``fork`` start method or the batch kernel is unavailable.

``route="inline"`` / ``route="fanout"`` pin condition 4 either way —
the benchmark times both sides of the crossover with them to
re-measure :data:`INLINE_ENTRIES`; ``"auto"`` is right everywhere
else.  No batch goes through the LRU result cache, inline or fanned
out; it serves single-pair ``query`` only.  Answers are bit-identical
to ``store.query`` per pair on either side: both run the same kernel.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable

from repro.core.flatstore import load_store
from repro.graphs.digraph import Graph
from repro.oracle.batch import PairColumns
from repro.oracle.oracle import DEFAULT_CACHE_SIZE, DistanceOracle
from repro.oracle.sharding import ShardedLabelStore

#: Batches smaller than this are evaluated inline by the parent — pool
#: dispatch (span planning, worker wake-ups) dominates below it.
MIN_PARALLEL_BATCH = 1024

#: ``route="auto"`` serves batches inline while the store's total label
#: entries stay at or below this.  The kernel's working set is its row
#: cache — the rows a workload touches — not the index, so one kernel
#: now outruns the 2-worker pool at every size measured on the 2-core
#: box (20k-pair batches, fan-out / inline: 1.24x at 0.32M entries on
#: duplicate-free uniform pairs, 0.74x at 2.5M and 0.86x at 10.05M
#: under Zipf endpoints; 0.34-0.52x on 2,048-pair batches at all
#: three).  The threshold sits just above the largest index measured;
#: past it nothing has been measured and the pool keeps the benefit of
#: the doubt.  Re-measure with the benchmark's
#: ``oracle.sharding.inline_pairs_per_s`` against
#: ``oracle.parallel.fanout_pairs_per_s``.
INLINE_ENTRIES = 12_000_000

#: Accepted values of the ``route`` knob.
ROUTE_MODES = ("auto", "inline", "fanout")


class ParallelOracle(DistanceOracle):
    """Batched distance serving over one index with a forked worker pool."""

    def __init__(
        self,
        path: str | Path,
        workers: int | None = None,
        graph: Graph | None = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        route: str = "auto",
    ) -> None:
        # Validate configuration before the store load so a bad call
        # never leaks open file mappings.
        if route not in ROUTE_MODES:
            raise ValueError(
                f"route must be one of {ROUTE_MODES}, got {route!r}"
            )
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        path = Path(path)
        # Memory-mapped either way: the forked workers then share the
        # parent's pages instead of copying them on first touch.
        if path.is_file():
            store = load_store(path, prefer_flat=True, use_mmap=True)
        else:
            store = ShardedLabelStore.load(path, use_mmap=True)
        super().__init__(store, graph=graph, cache_size=cache_size)
        self.path = path
        self.route = route
        # Every forked worker shares the whole label set, so any of
        # them can serve any span: cores, not shards, bound the pool.
        self.workers = workers if workers is not None else os.cpu_count() or 1
        self._shm = None

    # -- routing -------------------------------------------------------------
    def _can_fan_out(self) -> bool:
        """Whether a large enough batch would reach the pool right now.

        Inline conditions 2-5 of the module docstring; the batch-size
        floor is applied per batch by :meth:`query_batch`.
        """
        if self.workers <= 1 or self.route == "inline":
            return False
        if self.store.has_pending_updates:
            return False
        if (
            self.route == "auto"
            and self.store.total_entries(include_trivial=True)
            <= INLINE_ENTRIES
        ):
            return False
        from repro.oracle import kernel as _kernel
        from repro.serve import shm

        return shm.available() and _kernel.supports(self.store)

    def warmup(self) -> bool:
        """Fork the pool now if some batch could use it; say whether.

        Asks the same predicate as :meth:`query_batch`, so an oracle
        that can only ever answer inline (one worker, a cache-resident
        index, no ``fork``) forks nothing.  Forking from a quiescent
        parent — before an event loop or thread pool starts — is also
        the safest moment on POSIX, so serving frontends call this
        during startup.
        """
        if not self._can_fan_out():
            return False
        self._ensure_shm().warmup()
        return True

    def query_batch(self, pairs: Iterable[tuple[int, int]]) -> list[float]:
        """Distances for every pair, in input order.

        Bit-identical to :meth:`DistanceOracle.query_batch` whichever
        side of the router answers; like it, hands
        :class:`~repro.oracle.batch.PairColumns` to the kernel (here or
        in the pool) as they stand and returns the float64 array.
        """
        if not isinstance(pairs, PairColumns):
            pairs = list(pairs)
        if len(pairs) < MIN_PARALLEL_BATCH or not self._can_fan_out():
            return super().query_batch(pairs)
        return self._ensure_shm().query_batch(pairs)

    # -- the pool ------------------------------------------------------------
    def _ensure_shm(self):
        if self._shm is None:
            from repro.serve.shm import SharedMemoryFanout

            self._shm = SharedMemoryFanout(self.store, workers=self.workers)
        return self._shm

    def _close_shm(self) -> None:
        if self._shm is not None:
            self._shm.close()
            self._shm = None

    @property
    def shard_hits(self) -> list[int] | None:
        """Per-shard pair counts the pool has routed (None: no pool yet).

        One counter per shard of a shard directory, a single counter
        for an index file.
        """
        return (
            self._shm.shard_hits.tolist() if self._shm is not None else None
        )

    def stats(self) -> dict:
        """Pool counters — the server's ``backend`` stats block.

        ``shard_hits`` and the batch/pair counters appear once a pool
        is live; before that only the configured worker count.
        """
        if self._shm is None:
            return {"workers": self.workers}
        return self._shm.stats()

    # -- incremental updates -------------------------------------------------
    def reconcile(self) -> list[int]:
        """Flush staged updates to the shard directory, refresh workers.

        Shard directories only.  Rewrites the dirty shard files (and
        their manifest checksums) via
        :meth:`ShardedLabelStore.reconcile`, then drops the pool: its
        workers inherited the pre-update shards at fork time, so the
        next fanned batch forks over the merged arrays.  Until this
        runs, staged updates are answered inline through the parent's
        overlay.  Returns the rewritten shard ids.
        """
        rewritten = self.store.reconcile(self.path)
        self._close_shm()
        return rewritten

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down and release the file mappings."""
        self._close_shm()
        super().close()

    def __enter__(self) -> "ParallelOracle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ParallelOracle({self.store!r}, workers={self.workers})"
