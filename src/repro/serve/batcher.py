"""Admission batching: coalesce concurrent requests into kernel batches.

The vectorized kernel answers hundreds of thousands of pairs per
second — but only when pairs arrive together.  A server that
evaluates each request's pairs on arrival pays the fixed per-call
cost (Python dispatch, kernel setup, a possible thread hop) once per
*request*; under many concurrent clients that fixed cost dominates.
The :class:`AdmissionBatcher` sits between the asyncio frontend and
the evaluator and turns concurrency into batch size:

* a **lone** request — nothing queued, no batch being collected or
  dispatched, a synchronous evaluator and at most ``inline_below``
  pairs — is answered by its submitter: after a single cooperative
  yield (``asyncio.sleep(0)``), a still-empty queue proves no other
  submitter was runnable, so ``submit`` evaluates the pairs itself
  (no future, no collector wake-up, no extra loop turn).  A submitter
  that arrives during that yield queues, and the lone one queues
  behind it, so concurrent clients still coalesce;
* every other request enqueues its pairs and awaits a future;
* a collector drains the queue into one batch until either
  ``max_batch_pairs`` is reached or ``max_wait`` seconds have
  elapsed — or, after the same one yield, the queue is empty: a
  batch never waits out the admission window for companions that
  are not there;
* one evaluator call answers the whole batch, and every request's
  future resolves with its slice of the results — neither is
  rebuilt on the way: column blocks
  (:class:`~repro.oracle.batch.PairColumns`) are concatenated as
  columns, a batch of one request reaches the evaluator as the very
  object that was submitted, and a float64 result array is handed back as
  views, not as lists;
* **backpressure**: once ``max_pending_pairs`` admitted-but-unanswered
  pairs are in flight, :meth:`~AdmissionBatcher.submit` fails fast
  with :class:`ServeOverloadedError` — the server maps it to a
   429-style response so clients shed load instead of queueing
  unboundedly.

Requests are never split across batches, so a batch may overshoot
``max_batch_pairs`` by at most one request's size.  Large batches are
evaluated on a worker thread (``run_in_executor``) to keep the event
loop accepting; batches at or below ``inline_below`` pairs run
directly on the loop, where the evaluator finishes faster than the
thread hop itself would take.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Callable, Sequence

from repro.oracle.batch import PairColumns

#: Dispatch threshold: a batch is sent to the evaluator once it holds
#: at least this many pairs.
DEFAULT_MAX_BATCH_PAIRS = 8192

#: Admission window in seconds: the longest a request waits for
#: companions while the queue keeps receiving traffic.
DEFAULT_MAX_WAIT = 0.002

#: Backpressure high-water mark: admitted-but-unanswered pairs beyond
#: which submissions are rejected.
DEFAULT_MAX_PENDING_PAIRS = 1 << 18

#: Batches at or below this many pairs are evaluated directly on the
#: event loop — a thread hop costs more than the kernel spends on a
#: small batch.
DEFAULT_INLINE_BELOW = 2048


class ServeOverloadedError(RuntimeError):
    """Backpressure: pending pairs exceed the admission high-water mark."""


class ServeClosedError(RuntimeError):
    """The batcher was closed while (or before) the request was pending."""


class _Request:
    """One admitted request: its pairs and the future awaiting them."""

    __slots__ = ("pairs", "future")

    def __init__(self, pairs, future) -> None:
        self.pairs = pairs
        self.future = future


class AdmissionBatcher:
    """Coalesce concurrent ``submit()`` calls into evaluator batches.

    ``evaluate`` maps a batch of ``(source, target)`` pairs — a list,
    or a :class:`~repro.oracle.batch.PairColumns` block when that is
    what was submitted — to a sliceable sequence of distances, in
    order — e.g. ``oracle.query_batch`` or
    :meth:`repro.serve.shm.SharedMemoryFanout.query_batch`.  A plain
    callable runs on a worker thread past ``inline_below`` pairs; an
    ``async def`` evaluator is awaited as-is.

    The collector task starts lazily, with the first request that has
    to queue, and is torn down by :meth:`aclose`, which also fails
    every unanswered request with :class:`ServeClosedError`.
    """

    def __init__(
        self,
        evaluate: Callable[[list[tuple[int, int]]], Sequence[float]],
        *,
        max_batch_pairs: int = DEFAULT_MAX_BATCH_PAIRS,
        max_wait: float = DEFAULT_MAX_WAIT,
        max_pending_pairs: int = DEFAULT_MAX_PENDING_PAIRS,
        inline_below: int = DEFAULT_INLINE_BELOW,
    ) -> None:
        if max_batch_pairs < 1:
            raise ValueError(
                f"max_batch_pairs must be >= 1, got {max_batch_pairs}"
            )
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        if max_pending_pairs < max_batch_pairs:
            raise ValueError(
                "max_pending_pairs must be >= max_batch_pairs "
                f"({max_pending_pairs} < {max_batch_pairs})"
            )
        self._evaluate = evaluate
        self._is_async = asyncio.iscoroutinefunction(evaluate)
        self.max_batch_pairs = max_batch_pairs
        self.max_wait = max_wait
        self.max_pending_pairs = max_pending_pairs
        self.inline_below = inline_below
        self._queue: deque[_Request] = deque()
        self._wake = asyncio.Event()
        self._pending_pairs = 0
        self._closed = False
        self._collector: asyncio.Task | None = None
        # Held by the collector over a whole collect + dispatch, and by
        # a submitter while it yields to prove it is alone.
        self._collecting = False
        self._lone = False
        self.pairs_served = 0
        self.batches_dispatched = 0
        self.lone_requests = 0
        self.requests_rejected = 0
        self.max_batch_seen = 0

    # -- request side --------------------------------------------------------
    async def submit(
        self, pairs: Sequence[tuple[int, int]]
    ) -> Sequence[float]:
        """Admit one request's pairs and await their distances.

        The answer is this request's slice of whatever sequence the
        evaluator returned for the batch (a list for a list, a view
        for a numpy array), or, for a lone request, what it returned
        for these pairs.  Raises :class:`ServeOverloadedError` past
        the backpressure mark, :class:`ServeClosedError` if the batcher
        closes before the request is answered, and re-raises whatever
        the evaluator raised for the batch the request rode in.
        """
        if self._closed:
            raise ServeClosedError("batcher is closed")
        npairs = len(pairs)
        if npairs == 0:
            return []
        if self._pending_pairs + npairs > self.max_pending_pairs:
            self.requests_rejected += 1
            raise ServeOverloadedError(
                f"{self._pending_pairs} pairs already pending against a "
                f"high-water mark of {self.max_pending_pairs}; retry later"
            )
        self._pending_pairs += npairs
        if npairs <= self.inline_below and not (
            self._is_async or self._queue or self._collecting or self._lone
        ):
            # The collector's proof of loneliness, taken by the submitter
            # itself: if the queue is still empty after one yield, no
            # other submitter was runnable, and nothing is left to wait
            # for.  One that did turn up has queued instead (``_lone``
            # is set), so this request queues behind it.
            self._lone = True
            try:
                await asyncio.sleep(0)
            except asyncio.CancelledError:
                self._pending_pairs -= npairs
                raise
            finally:
                self._lone = False
            if self._closed or not (self._queue or self._collecting):
                return self._answer_alone(pairs)
        loop = asyncio.get_running_loop()
        if self._collector is None:
            self._collector = loop.create_task(self._run())
        future = loop.create_future()
        self._queue.append(_Request(pairs, future))
        self._wake.set()
        return await future

    def _answer_alone(self, pairs) -> Sequence[float]:
        """Evaluate a lone request here, accounted as a batch of one."""
        try:
            if self._closed:
                raise ServeClosedError("batcher closed with requests pending")
            distances = self._evaluate(pairs)
        finally:
            self._pending_pairs -= len(pairs)
        self.lone_requests += 1
        self.batches_dispatched += 1
        self.pairs_served += len(pairs)
        self.max_batch_seen = max(self.max_batch_seen, len(pairs))
        return distances

    # -- collector side ------------------------------------------------------
    async def _run(self) -> None:
        while True:
            if not self._queue:
                self._wake.clear()
                await self._wake.wait()
            self._collecting = True
            try:
                batch = await self._collect()
                await self._dispatch(batch)
            finally:
                self._collecting = False

    async def _collect(self) -> list[_Request]:
        """Drain the queue into one batch under the admission window."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.max_wait
        batch: list[_Request] = []
        npairs = 0
        while True:
            while self._queue and npairs < self.max_batch_pairs:
                request = self._queue.popleft()
                batch.append(request)
                npairs += len(request.pairs)
            if npairs >= self.max_batch_pairs:
                break
            # One cooperative yield lets every already-runnable
            # submitter enqueue; an empty queue after it means nothing
            # else is in flight, so a lone request never waits out the
            # admission window.
            await asyncio.sleep(0)
            if not self._queue or loop.time() >= deadline:
                break
        if npairs > self.max_batch_seen:
            self.max_batch_seen = npairs
        return batch

    async def _dispatch(self, batch: list[_Request]) -> None:
        """Evaluate one batch and resolve its requests' futures."""
        pairs = batch[0].pairs
        if len(batch) > 1:
            if isinstance(pairs, PairColumns):
                pairs = PairColumns.concat([r.pairs for r in batch])
            else:
                pairs = [pair for r in batch for pair in r.pairs]
        try:
            if self._is_async:
                distances = await self._evaluate(pairs)
            elif len(pairs) <= self.inline_below:
                distances = self._evaluate(pairs)
            else:
                distances = await asyncio.get_running_loop().run_in_executor(
                    None, self._evaluate, pairs
                )
        except asyncio.CancelledError:
            self._fail(batch, ServeClosedError("batcher closed mid-batch"))
            raise
        except Exception as exc:
            # The whole batch shares the evaluator's failure; the
            # server validates per request before admission precisely
            # so one bad request cannot poison its batch mates.
            self._fail(batch, exc)
        else:
            self.batches_dispatched += 1
            self.pairs_served += len(pairs)
            offset = 0
            for request in batch:
                end = offset + len(request.pairs)
                if not request.future.done():
                    request.future.set_result(distances[offset:end])
                offset = end
        finally:
            for request in batch:
                self._pending_pairs -= len(request.pairs)

    @staticmethod
    def _fail(batch: list[_Request], exc: BaseException) -> None:
        for request in batch:
            if not request.future.done():
                request.future.set_exception(exc)

    # -- lifecycle and introspection -----------------------------------------
    async def aclose(self) -> None:
        """Stop the collector and fail every unanswered request.

        Requests already handed to the evaluator fail with
        :class:`ServeClosedError` as the collector unwinds; queued
        requests that never reached a batch fail the same way.
        Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        if self._collector is not None:
            self._collector.cancel()
            try:
                await self._collector
            except asyncio.CancelledError:
                pass
            self._collector = None
        exc = ServeClosedError("batcher closed with requests pending")
        while self._queue:
            request = self._queue.popleft()
            if not request.future.done():
                request.future.set_exception(exc)
            self._pending_pairs -= len(request.pairs)

    def stats(self) -> dict:
        """Serving counters plus the current backpressure level.

        ``lone_requests`` counts the requests their submitter answered
        without the collector; each is also one of
        ``batches_dispatched``.
        """
        return {
            "pairs_served": self.pairs_served,
            "batches_dispatched": self.batches_dispatched,
            "lone_requests": self.lone_requests,
            "requests_rejected": self.requests_rejected,
            "max_batch_seen": self.max_batch_seen,
            "pending_pairs": self._pending_pairs,
            "max_batch_pairs": self.max_batch_pairs,
            "max_wait": self.max_wait,
            "max_pending_pairs": self.max_pending_pairs,
        }

    def __repr__(self) -> str:
        return (
            f"AdmissionBatcher(max_batch_pairs={self.max_batch_pairs}, "
            f"max_wait={self.max_wait}, "
            f"max_pending_pairs={self.max_pending_pairs})"
        )


__all__ = (
    "DEFAULT_INLINE_BELOW",
    "DEFAULT_MAX_BATCH_PAIRS",
    "DEFAULT_MAX_PENDING_PAIRS",
    "DEFAULT_MAX_WAIT",
    "AdmissionBatcher",
    "ServeClosedError",
    "ServeOverloadedError",
)
