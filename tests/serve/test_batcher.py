"""Admission-batching edge cases.

Every test drives a real event loop via ``asyncio.run`` — the batcher
is pure asyncio, so no plugin is needed.  The evaluator is a plain
function (occasionally a stalling async one) so the tests control
timing exactly.
"""

import asyncio

import pytest

from repro.serve.batcher import (
    AdmissionBatcher,
    ServeClosedError,
    ServeOverloadedError,
)


def _echo_evaluate(calls):
    """An evaluator that records each batch and answers pair sums."""

    def evaluate(pairs):
        calls.append(list(pairs))
        return [float(s + t) for s, t in pairs]

    return evaluate


def test_single_request_no_artificial_wait():
    # A lone request is answered on arrival, not after max_wait — set
    # an absurd window and require promptness.
    calls = []

    async def main():
        batcher = AdmissionBatcher(
            _echo_evaluate(calls), max_wait=30.0, max_batch_pairs=1024
        )
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        result = await batcher.submit([(1, 2), (3, 4)])
        elapsed = loop.time() - t0
        await batcher.aclose()
        return result, elapsed

    result, elapsed = asyncio.run(main())
    assert result == [3.0, 7.0]
    assert elapsed < 1.0, f"lone request waited {elapsed:.3f}s"
    assert calls == [[(1, 2), (3, 4)]]


def test_lone_request_is_answered_by_its_submitter():
    calls = []

    async def main():
        batcher = AdmissionBatcher(_echo_evaluate(calls), max_wait=30.0)
        first = batcher.submit([(1, 2)])
        await asyncio.sleep(0)  # the next request arrives in a later tick
        second = batcher.submit([(3, 4), (5, 6)])
        answered = first.done() and second.done()
        stats = batcher.stats()
        await batcher.aclose()
        return await first, await second, answered, stats

    first, second, answered, stats = asyncio.run(main())
    assert (first, second) == ([3.0], [7.0, 11.0])
    assert calls == [[(1, 2)], [(3, 4), (5, 6)]]
    # Each was the first request of its tick: answered inside submit,
    # the future came back resolved.
    assert answered
    assert stats["lone_requests"] == stats["batches_dispatched"] == 2
    assert (stats["pairs_served"], stats["max_batch_seen"]) == (3, 2)
    assert stats["pending_pairs"] == 0


def test_three_submits_in_one_tick_make_two_evaluator_calls():
    calls = []

    async def main():
        batcher = AdmissionBatcher(_echo_evaluate(calls))
        got = await asyncio.gather(
            *[batcher.submit([(i, i + 1)]) for i in range(3)]
        )
        stats = batcher.stats()
        await batcher.aclose()
        return got, stats

    got, stats = asyncio.run(main())
    assert got == [[1.0], [3.0], [5.0]]
    # The first alone, on arrival; the other two share the tick's flush.
    assert calls == [[(0, 1)], [(1, 2), (2, 3)]]
    assert stats["lone_requests"] == 1 and stats["batches_dispatched"] == 2


def test_two_runnable_submitters_still_share_one_call():
    # A request too large to answer on arrival queues; a small one of
    # the same tick may not jump it, and the two ride one batch.
    calls = []

    async def main():
        batcher = AdmissionBatcher(_echo_evaluate(calls), inline_below=1)
        got = await asyncio.gather(
            batcher.submit([(1, 2), (3, 4)]), batcher.submit([(5, 6)])
        )
        stats = batcher.stats()
        await batcher.aclose()
        return got, stats

    got, stats = asyncio.run(main())
    assert got == [[3.0, 7.0], [11.0]]
    assert calls == [[(1, 2), (3, 4), (5, 6)]]
    assert stats["lone_requests"] == 0 and stats["pending_pairs"] == 0


def test_aclose_before_the_tick_flush_fails_queued_requests_as_closed():
    calls = []

    async def main():
        batcher = AdmissionBatcher(_echo_evaluate(calls))
        first = batcher.submit([(1, 2)])  # answered on arrival
        queued = batcher.submit([(3, 4)])  # waits for the tick's flush
        await batcher.aclose()
        with pytest.raises(ServeClosedError):
            await queued
        await asyncio.sleep(0.01)  # the cancelled flush never runs
        return await first, batcher.stats()

    first, stats = asyncio.run(main())
    assert first == [3.0] and calls == [[(1, 2)]]
    assert stats["pending_pairs"] == 0 and stats["lone_requests"] == 1


def test_cancelled_queued_request_leaves_nothing_behind():
    calls = []

    async def main():
        batcher = AdmissionBatcher(_echo_evaluate(calls))
        batcher.submit([(1, 2)])  # the tick's first: answered on arrival
        queued = batcher.submit([(5, 6)])
        queued.cancel()
        await asyncio.sleep(0.01)  # the flush settles around it
        pending = batcher.stats()["pending_pairs"]
        again = await batcher.submit([(3, 4)])
        await batcher.aclose()
        return pending, again, batcher.stats()

    pending, again, stats = asyncio.run(main())
    assert pending == 0 and again == [7.0]
    assert calls[-1] == [(3, 4)] and stats["lone_requests"] == 2


def test_lone_evaluator_failure_reaches_its_submitter():
    async def main():
        def evaluate(pairs):
            raise RuntimeError("kernel exploded")

        batcher = AdmissionBatcher(evaluate)
        with pytest.raises(RuntimeError, match="exploded"):
            await batcher.submit([(0, 1)])
        stats = batcher.stats()
        await batcher.aclose()
        return stats

    stats = asyncio.run(main())
    assert stats["pending_pairs"] == 0
    assert stats["lone_requests"] == stats["batches_dispatched"] == 0


def test_concurrent_requests_coalesce_into_one_batch():
    calls = []

    async def main():
        batcher = AdmissionBatcher(_echo_evaluate(calls), max_wait=0.05)
        results = await asyncio.gather(
            *[batcher.submit([(i, i + 1)]) for i in range(32)]
        )
        await batcher.aclose()
        return results

    results = asyncio.run(main())
    assert results == [[float(2 * i + 1)] for i in range(32)]
    # The tick's first request is answered on arrival; the other 31
    # arrived in the same tick and ride one batch.
    assert [len(batch) for batch in calls] == [1, 31]


def test_burst_larger_than_max_batch_splits():
    calls = []

    async def main():
        batcher = AdmissionBatcher(
            _echo_evaluate(calls), max_batch_pairs=8, max_wait=0.05
        )
        results = await asyncio.gather(
            *[batcher.submit([(i, i)]) for i in range(30)]
        )
        await batcher.aclose()
        return results, batcher.stats()

    results, stats = asyncio.run(main())
    assert results == [[float(2 * i)] for i in range(30)]
    # 30 single-pair requests against a dispatch threshold of 8 pairs
    # cannot ride one batch; every batch stays near the threshold
    # (never more than threshold-1 pairs + one whole request).
    assert len(calls) >= 3
    assert all(len(batch) <= 8 for batch in calls)
    assert stats["batches_dispatched"] == len(calls)
    assert stats["pairs_served"] == 30


def test_oversized_single_request_is_never_split():
    calls = []

    async def main():
        batcher = AdmissionBatcher(
            _echo_evaluate(calls), max_batch_pairs=4, max_wait=0.01
        )
        result = await batcher.submit([(i, i) for i in range(10)])
        await batcher.aclose()
        return result

    result = asyncio.run(main())
    assert result == [float(2 * i) for i in range(10)]
    assert len(calls) == 1 and len(calls[0]) == 10


def test_queue_full_rejection():
    async def main():
        blocker = asyncio.Event()

        async def evaluate(pairs):
            await blocker.wait()
            return [0.0] * len(pairs)

        batcher = AdmissionBatcher(
            evaluate, max_batch_pairs=4, max_pending_pairs=8, max_wait=0.001
        )
        # Fill the admission queue to the high-water mark...
        first = [
            asyncio.ensure_future(batcher.submit([(0, 1)] * 4))
            for _ in range(2)
        ]
        await asyncio.sleep(0.01)
        # ...then the next request must be rejected, not queued.
        with pytest.raises(ServeOverloadedError):
            await batcher.submit([(2, 3)])
        rejected = batcher.stats()["requests_rejected"]
        blocker.set()
        results = await asyncio.gather(*first)
        # Capacity freed: submissions are admitted again.
        ok = await batcher.submit([(4, 5)])
        await batcher.aclose()
        return rejected, results, ok

    rejected, results, ok = asyncio.run(main())
    assert rejected == 1
    assert results == [[0.0] * 4] * 2
    assert ok == [0.0]


def test_shutdown_with_pending_futures():
    async def main():
        started = asyncio.Event()

        async def evaluate(pairs):
            started.set()
            await asyncio.sleep(60)
            return [0.0] * len(pairs)

        batcher = AdmissionBatcher(evaluate, max_wait=0.001)
        inflight = asyncio.ensure_future(batcher.submit([(0, 1)]))
        await started.wait()
        # This one is still queued behind the stalled batch.
        queued = asyncio.ensure_future(batcher.submit([(2, 3)]))
        await asyncio.sleep(0.01)
        await batcher.aclose()
        with pytest.raises(ServeClosedError):
            await inflight
        with pytest.raises(ServeClosedError):
            await queued
        # And new submissions fail immediately once closed.
        with pytest.raises(ServeClosedError):
            await batcher.submit([(4, 5)])

    asyncio.run(main())


def test_aclose_is_idempotent():
    async def main():
        batcher = AdmissionBatcher(lambda pairs: [0.0] * len(pairs))
        assert await batcher.submit([(1, 1)]) == [0.0]
        await batcher.aclose()
        await batcher.aclose()

    asyncio.run(main())


def test_empty_request_answers_without_dispatch():
    calls = []

    async def main():
        batcher = AdmissionBatcher(_echo_evaluate(calls))
        result = await batcher.submit([])
        await batcher.aclose()
        return result

    assert asyncio.run(main()) == []
    assert calls == []


def test_evaluator_failure_propagates_to_every_rider():
    async def main():
        def evaluate(pairs):
            raise RuntimeError("kernel exploded")

        batcher = AdmissionBatcher(evaluate, max_wait=0.05)
        results = await asyncio.gather(
            batcher.submit([(0, 1)]),
            batcher.submit([(2, 3)]),
            return_exceptions=True,
        )
        # The batcher survives a failed batch and keeps serving.
        ok = await asyncio.gather(
            batcher.submit([(4, 5)]), return_exceptions=True
        )
        await batcher.aclose()
        return results, ok

    results, ok = asyncio.run(main())
    assert all(isinstance(r, RuntimeError) for r in results)
    assert all(isinstance(r, RuntimeError) for r in ok)


def test_large_batches_go_through_the_thread_executor():
    seen = []

    def evaluate(pairs):
        import threading

        seen.append(threading.current_thread() is threading.main_thread())
        return [0.0] * len(pairs)

    async def main():
        batcher = AdmissionBatcher(
            evaluate, inline_below=4, max_wait=0.001
        )
        await batcher.submit([(0, 0)] * 2)   # inline: on the loop thread
        await batcher.submit([(0, 0)] * 64)  # offloaded to a worker thread
        await batcher.aclose()

    asyncio.run(main())
    assert seen == [True, False]


def test_invalid_configuration_rejected():
    evaluate = lambda pairs: []  # noqa: E731
    with pytest.raises(ValueError, match="max_batch_pairs"):
        AdmissionBatcher(evaluate, max_batch_pairs=0)
    with pytest.raises(ValueError, match="max_wait"):
        AdmissionBatcher(evaluate, max_wait=-1.0)
    with pytest.raises(ValueError, match="max_pending_pairs"):
        AdmissionBatcher(evaluate, max_batch_pairs=64, max_pending_pairs=32)
