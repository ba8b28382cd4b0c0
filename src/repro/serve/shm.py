"""Shared-memory fan-out: the one worker pool, zero marshalling.

Label lookup is a memory-bandwidth problem (Akiba et al.; Farhan et
al. — see PAPERS.md), so a pool only pays when its workers share one
physical copy of the labels instead of each holding (or being sent)
their own.  This module is that pool, and the only one in the tree:

* **labels**: the parent creates the kernel's row cache
  (:func:`repro.oracle.kernel.ensure_sides` — the hub columns are
  chosen once) and only then forks the pool, so every worker inherits
  the store — its mmapped label files *and* every row the parent had
  filled — copy-on-write, and fills the rows its own spans touch
  after.  Workers never touch a byte of label state through a pipe.
* **queries and results**: the pair columns and the distance results
  live in anonymous shared mappings (``mmap.mmap(-1, ...)`` maps
  ``MAP_SHARED``) created before the fork.  A task message is just a
  ``(lo, hi)`` span — two integers through the pool — and each worker
  writes its distances straight into the shared result buffer.

Batches against a sharded store are grouped by the shard owning each
pair's source vertex, so a worker's probes stay inside one shard's
pages; the per-shard routing counts accumulate as **hit counts**
(:attr:`SharedMemoryFanout.shard_hits`).  Every forked worker shares
the whole label set, so any worker can serve any shard's span and a
hot range is served by as many workers as its query mass demands.

A worker that dies (OOM kill, ``SIGKILL``) breaks the executor for
good; the batch in flight is then answered by the same kernel
in-process, the pool is dropped, and the next batch forks a fresh one.

Requires the ``fork`` start method (POSIX); :func:`available` reports
whether it is there.  Whether a batch should come here at
all is :class:`~repro.oracle.parallel.ParallelOracle`'s decision.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Iterable

import numpy as np

from repro.oracle import kernel as _kernel
from repro.oracle.batch import PairColumns

#: Initial capacity (in pairs) of the shared query/result buffers.
#: Buffers grow geometrically when a larger batch arrives; growth
#: restarts the worker pool, so serving frontends size this to their
#: admission batch limit up front.
DEFAULT_CAPACITY = 1 << 16

# Per pair: one int64 source + one int64 target + one float64 result.
_BYTES_PER_PAIR = 24


class FanoutUnavailableError(RuntimeError):
    """Shared-memory fan-out cannot run on this platform or store."""


def available() -> bool:
    """Whether fan-out can run here: the ``fork`` start method exists."""
    return "fork" in multiprocessing.get_all_start_methods()


# Worker-side serving state, inherited at fork time: (store, S, T, R)
# with S/T/R numpy views over the shared mmap buffers.  Deliberately a
# module global rather than pool initargs — fork-inheritance of the
# parent's objects is the whole point, nothing may be pickled.  The
# owning SharedMemoryFanout rebinds it before every submit round, so
# pools forked by different instances never mix state.
_FANOUT_STATE = None


def _eval_span(lo: int, hi: int) -> None:
    """Worker entry: evaluate one span of the shared query buffers.

    Reads pairs from the shared S/T views, writes distances into the
    shared R view — the return value is ``None`` on purpose, nothing
    crosses the pool's result pipe but the completion itself.
    """
    store, S, T, R = _FANOUT_STATE
    R[lo:hi] = _kernel.batch_eval_arrays(store, S[lo:hi], T[lo:hi])


class SharedMemoryFanout:
    """Fan batches out over forked workers sharing the label arrays.

    ``store`` is a kernel-supported label store — a
    :class:`~repro.core.flatstore.FlatLabelStore` of either encoding
    (v2 or v3), or a :class:`~repro.oracle.sharding.ShardedLabelStore`
    over them.  Answers are bit-identical to ``store.query`` per pair:
    every span runs the same :func:`repro.oracle.kernel`
    machinery the inline path uses, just on another core.

    The instance owns a forked worker pool and the shared query
    buffers; :meth:`close` (or use as a context manager) releases
    both.  Not thread-safe: one batch at a time per instance.
    """

    def __init__(
        self,
        store,
        workers: int | None = None,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        if not available():
            raise FanoutUnavailableError(
                "shared-memory fan-out needs the 'fork' start method"
            )
        if not _kernel.supports(store):
            raise FanoutUnavailableError(
                f"the batch kernel does not support "
                f"{type(store).__name__} stores"
            )
        if getattr(store, "has_pending_updates", False):
            raise FanoutUnavailableError(
                "store has staged updates; reconcile before fanning out"
            )
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        from repro.oracle.sharding import ShardedLabelStore

        self.store = store
        self.n = store.n
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self._sharded = isinstance(store, ShardedLabelStore)
        self._los = (
            np.asarray(store._los, dtype=np.int64) if self._sharded else None
        )
        self.shard_hits = np.zeros(
            store.num_shards if self._sharded else 1, dtype=np.int64
        )
        self.pairs_served = 0
        self.batches_served = 0
        self.pool_failures = 0
        # Create the row cache BEFORE any fork, so children inherit
        # its hub columns (and rows filled so far) copy-on-write.
        _kernel.ensure_sides(store)
        self._pool: ProcessPoolExecutor | None = None
        self._capacity = 0
        self._mm: mmap.mmap | None = None
        self._S = self._T = self._R = None
        self._grow(capacity)

    # -- shared buffers and pool ---------------------------------------------
    def _grow(self, capacity: int) -> None:
        """(Re)allocate the shared buffers; the pool restarts lazily."""
        self._shutdown_pool()
        self._release_buffers()
        mm = mmap.mmap(-1, capacity * _BYTES_PER_PAIR)
        self._mm = mm
        self._S = np.frombuffer(mm, dtype=np.int64, count=capacity)
        self._T = np.frombuffer(
            mm, dtype=np.int64, count=capacity, offset=capacity * 8
        )
        self._R = np.frombuffer(
            mm, dtype=np.float64, count=capacity, offset=capacity * 16
        )
        self._capacity = capacity

    def _release_buffers(self) -> None:
        global _FANOUT_STATE
        if _FANOUT_STATE is not None and _FANOUT_STATE[1] is self._S:
            _FANOUT_STATE = None
        self._S = self._T = self._R = None
        if self._mm is not None:
            try:
                self._mm.close()
            except BufferError:  # pragma: no cover - stray external view
                pass
            self._mm = None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        global _FANOUT_STATE
        # Rebound before every submit round: workers snapshot the
        # global at fork time, and the pool forks lazily on submit.
        _FANOUT_STATE = (self.store, self._S, self._T, self._R)
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork"),
            )
        return self._pool

    def _shutdown_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _run_spans(self, spans) -> bool:
        """Evaluate ``spans`` of the shared buffers on the pool.

        The one place tasks enter the pool.  Returns False when a
        worker died: a broken executor rejects every later submit, so
        it is dropped here (the next call forks a fresh pool) and the
        caller answers in-process.
        """
        pool = self._ensure_pool()
        try:
            futures = [pool.submit(_eval_span, lo, hi) for lo, hi in spans]
            for future in futures:
                future.result()
        except BrokenProcessPool:
            # shutdown() reaps the surviving workers, so none of them
            # is still writing into the result buffer afterwards.
            self._shutdown_pool()
            self.pool_failures += 1
            return False
        return True

    def warmup(self) -> None:
        """Fork every worker now instead of inside the first batch.

        Forking from a quiescent parent (before an event loop or
        thread pool starts) is also the safest moment on POSIX, so
        serving frontends call this during startup.
        """
        self._run_spans([(0, 0)] * self.workers)

    # -- batched serving -----------------------------------------------------
    def query_batch(self, pairs: Iterable[tuple[int, int]]) -> list[float]:
        """Distances for every pair, in input order.

        A list for a list of pairs; column blocks go to
        :meth:`query_batch_arrays` as they stand.
        """
        if isinstance(pairs, PairColumns):
            return self.query_batch_arrays(pairs.sources, pairs.targets)
        columns = PairColumns.from_pairs(pairs)
        return self.query_batch_arrays(columns.sources, columns.targets).tolist()

    def query_batch_arrays(self, S, T):
        """Distances for pair columns ``(S[k], T[k])`` as one f64 array.

        The array-in/array-out twin of :meth:`query_batch`; raises
        ``IndexError`` on out-of-range vertices before anything is
        dispatched, like every other batch path.
        """
        S = np.ascontiguousarray(S, dtype=np.int64)
        T = np.ascontiguousarray(T, dtype=np.int64)
        if S.shape != T.shape or S.ndim != 1:
            raise ValueError("S and T must be 1-D arrays of equal length")
        npairs = len(S)
        if npairs == 0:
            return np.empty(0, dtype=np.float64)
        bad = (S < 0) | (S >= self.n) | (T < 0) | (T >= self.n)
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise IndexError(
                f"query ({int(S[k])}, {int(T[k])}) out of range "
                f"[0, {self.n})"
            )
        if npairs > self._capacity:
            capacity = self._capacity
            while capacity < npairs:
                capacity *= 2
            self._grow(capacity)
        order, spans = self._plan(S)
        if order is None:
            self._S[:npairs] = S
            self._T[:npairs] = T
        else:
            self._S[:npairs] = S[order]
            self._T[:npairs] = T[order]
        if not self._run_spans(spans):
            self._R[:npairs] = _kernel.batch_eval_arrays(
                self.store, self._S[:npairs], self._T[:npairs]
            )
        self.pairs_served += npairs
        self.batches_served += 1
        if order is None:
            return self._R[:npairs].copy()
        out = np.empty(npairs, dtype=np.float64)
        out[order] = self._R[:npairs]
        return out

    def _plan(self, S):
        """Evaluation order and worker spans for one batch.

        Sharded stores: pairs are stably grouped by the shard owning
        each source vertex (a worker's probes stay inside one shard's
        pages) and each group is cut so no span exceeds
        ``ceil(npairs / workers)``; the per-shard counts accumulate
        into :attr:`shard_hits`.  Flat stores keep the input order and
        get equal cuts.  Returns ``(order, spans)`` with ``order is
        None`` for the identity.
        """
        npairs = len(S)
        limit = -(-npairs // self.workers)
        if not self._sharded:
            self.shard_hits[0] += npairs
            spans = [
                (lo, min(lo + limit, npairs))
                for lo in range(0, npairs, limit)
            ]
            return None, spans
        sid = np.searchsorted(self._los, S, side="right") - 1
        counts = np.bincount(sid, minlength=self.shard_hits.size)
        self.shard_hits += counts
        order = np.argsort(sid, kind="stable")
        spans = []
        lo = 0
        for end in np.cumsum(counts):
            end = int(end)
            while lo < end:
                hi = min(lo + limit, end)
                spans.append((lo, hi))
                lo = hi
        return order, spans

    # -- load accounting -----------------------------------------------------
    def stats(self) -> dict:
        """Serving counters: batches, pairs, pools lost to a dead
        worker, and per-shard hit counts."""
        return {
            "workers": self.workers,
            "capacity": self._capacity,
            "pairs_served": self.pairs_served,
            "batches_served": self.batches_served,
            "pool_failures": self.pool_failures,
            "shard_hits": self.shard_hits.tolist(),
        }

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down and release the shared buffers."""
        self._shutdown_pool()
        self._release_buffers()

    def __enter__(self) -> "SharedMemoryFanout":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"SharedMemoryFanout({self.store!r}, workers={self.workers}, "
            f"capacity={self._capacity})"
        )


__all__ = (
    "DEFAULT_CAPACITY",
    "FanoutUnavailableError",
    "SharedMemoryFanout",
    "available",
)
