"""Admission batching: coalesce concurrent requests into kernel batches.

The vectorized kernel answers hundreds of thousands of pairs per
second — but only when pairs arrive together.  A server that
evaluates each request's pairs on arrival pays the fixed per-call
cost (Python dispatch, kernel setup, a possible thread hop) once per
*request*; under many concurrent clients that fixed cost dominates.
The :class:`AdmissionBatcher` sits between the asyncio frontend and
the evaluator and turns concurrency into batch size.

:meth:`~AdmissionBatcher.submit` is a plain method returning an
:class:`asyncio.Future` — no task, no ``await`` and no loop turn of
its own — and the batching rule follows the event loop's ticks (a tick
runs every callback that was ready when it began, typically one per
connection the last ``select`` found readable):

* the **first** request of a tick is answered on arrival, inside
  ``submit``, when the evaluator is synchronous, the request has at
  most ``inline_below`` pairs and nothing is queued or being
  dispatched: the future comes back already resolved;
* every later request of the tick queues, and one callback at the end
  of the tick batches the queue.  While each tick brings more
  requests it waits one tick more, until the batch holds
  ``max_batch_pairs`` pairs or ``max_wait`` seconds have passed;
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
``max_batch_pairs`` by at most one request's size.  A batch above
``inline_below`` pairs is evaluated on a worker thread
(``run_in_executor``) to keep the loop accepting, and an ``async def``
evaluator is awaited; requests arriving meanwhile queue for the next
batch.  Smaller batches run on the loop: a thread hop costs more.
"""

from __future__ import annotations

import asyncio
import functools
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
    order — e.g. ``oracle.query_batch``.  A plain
    callable runs on a worker thread past ``inline_below`` pairs; an
    ``async def`` evaluator is awaited as-is.
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
        self._pending_pairs = 0
        self._closed = False
        #: The end-of-tick callback, armed by the tick's first request.
        self._tick: asyncio.Handle | None = None
        #: A batch on a worker thread or in an async evaluator.
        self._inflight: asyncio.Future | None = None
        #: The admission window of the queue: its deadline, and how many
        #: requests the last tick had seen queued.
        self._deadline: float | None = None
        self._seen = 0
        self.pairs_served = 0
        self.batches_dispatched = 0
        self.lone_requests = 0
        self.requests_rejected = 0
        self.max_batch_seen = 0

    # -- request side --------------------------------------------------------
    def submit(self, pairs: Sequence[tuple[int, int]]) -> asyncio.Future:
        """Admit one request's pairs; a future of their distances.

        The answer is this request's slice of whatever sequence the
        evaluator returned for the batch (a list for a list, a view
        for a numpy array), or, for a request answered on arrival,
        what it returned for these pairs.  The future fails with
        :class:`ServeOverloadedError` past the backpressure mark,
        :class:`ServeClosedError` if the batcher closes before the
        request is answered, and whatever the evaluator raised for the
        batch the request rode in.
        """
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        npairs = len(pairs)
        if self._closed:
            future.set_exception(ServeClosedError("batcher is closed"))
        elif npairs == 0:
            future.set_result([])
        elif self._pending_pairs + npairs > self.max_pending_pairs:
            self.requests_rejected += 1
            future.set_exception(
                ServeOverloadedError(
                    f"{self._pending_pairs} pairs already pending against a "
                    f"high-water mark of {self.max_pending_pairs}; retry later"
                )
            )
        else:
            self._pending_pairs += npairs
            self._queue.append(_Request(pairs, future))
            # A queue always has a tick armed or a batch in flight: with
            # neither, this is the tick's first request and nothing is
            # queued or dispatching.  It is answered now if it may be,
            # and the rest of the tick queues.
            if self._tick is None and self._inflight is None:
                self._tick = loop.call_soon(self._flush)
                if npairs <= self.inline_below and not self._is_async:
                    self._dispatch(loop, lone=True)
        return future

    # -- batch side ----------------------------------------------------------
    def _flush(self) -> None:
        """End of a tick: dispatch the queue, unless it is still growing."""
        self._tick = None
        if not self._queue or self._inflight is not None:
            return
        loop = asyncio.get_running_loop()
        if self._deadline is None:
            self._deadline = loop.time() + self.max_wait
        if (
            len(self._queue) > self._seen
            and self._pending_pairs < self.max_batch_pairs
            and loop.time() < self._deadline
        ):
            self._seen = len(self._queue)
            self._tick = loop.call_soon(self._flush)
            return
        self._deadline, self._seen = None, 0
        while self._queue and self._inflight is None:
            self._dispatch(loop)

    def _dispatch(self, loop, lone: bool = False) -> None:
        """Evaluate the head of the queue as one batch."""
        batch, npairs = [], 0
        while self._queue and npairs < self.max_batch_pairs:
            batch.append(self._queue.popleft())
            npairs += len(batch[-1].pairs)
        pairs = batch[0].pairs
        if len(batch) > 1:
            if isinstance(pairs, PairColumns):
                pairs = PairColumns.concat([r.pairs for r in batch])
            else:
                pairs = [pair for r in batch for pair in r.pairs]
        if self._is_async:
            self._inflight = asyncio.ensure_future(self._evaluate(pairs))
        elif npairs > self.inline_below:
            self._inflight = loop.run_in_executor(None, self._evaluate, pairs)
        else:
            try:
                distances, error = self._evaluate(pairs), None
            except Exception as exc:
                # The whole batch shares the evaluator's failure; the
                # server validates per request before admission precisely
                # so one bad request cannot poison its batch mates.
                distances, error = None, exc
            self._settle(batch, error, distances, lone)
            return
        self._inflight.add_done_callback(functools.partial(self._landed, batch))

    def _landed(self, batch: list[_Request], inflight: asyncio.Future) -> None:
        """A thread or async batch finished: answer it, start the next."""
        self._inflight = None
        if inflight.cancelled():
            error = ServeClosedError("batcher closed mid-batch")
        else:
            error = inflight.exception()
        self._settle(batch, error, None if error else inflight.result())
        self._flush()

    def _settle(self, batch, error, distances, lone: bool = False) -> None:
        """Resolve every request of ``batch`` with its slice, or fail it."""
        npairs = sum(len(request.pairs) for request in batch)
        self._pending_pairs -= npairs
        if error is None:
            self.batches_dispatched += 1
            self.lone_requests += lone
            self.pairs_served += npairs
            self.max_batch_seen = max(self.max_batch_seen, npairs)
        offset = 0
        for request in batch:
            end = offset + len(request.pairs)
            if request.future.done():
                pass
            elif error is None:
                request.future.set_result(distances[offset:end])
            else:
                request.future.set_exception(error)
            offset = end

    # -- lifecycle and introspection -----------------------------------------
    async def aclose(self) -> None:
        """Fail every unanswered request with :class:`ServeClosedError`.

        Queued requests fail at once; a batch on a thread or in an async
        evaluator is cancelled and its requests fail as it lands.
        Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        if self._tick is not None:
            self._tick.cancel()
            self._tick = None
        closed = ServeClosedError("batcher closed with requests pending")
        self._settle(list(self._queue), closed, None)
        self._queue.clear()
        if self._inflight is not None:
            self._inflight.cancel()
            await asyncio.wait([self._inflight])

    def stats(self) -> dict:
        """Serving counters plus the current backpressure level.

        ``lone_requests`` counts the requests answered on arrival (the
        first of a loop tick); each is also one of ``batches_dispatched``.
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
