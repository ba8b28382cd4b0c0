"""Serving-tier benchmark: shm fan-out and admission batching floors.

ISSUE 7's serving tier makes two performance claims, and this file
gates both:

* **Shared-memory fan-out >= 1.5x the inline kernel.**  The
  :class:`~repro.serve.shm.SharedMemoryFanout` forks workers that
  inherit the label arrays copy-on-write and exchange only span
  indices through shared mmaps — no pickling of pairs or distances.
  On a machine with >= 4 cores that must beat one process running the
  same vectorized kernel inline by at least 1.5x, with bit-identical
  answers.  Below 4 cores the floor is skipped with a printed reason
  (forked workers on too few cores just add dispatch overhead — the
  bit-identity assertions still run), but the measured rates are
  exported regardless.

* **Batched async serving >= 5x sequential per-request round trips.**
  The serving tier exists so clients can submit whole query sets and
  the :class:`~repro.serve.AdmissionBatcher` can coalesce concurrent
  sets into kernel-sized batches.  The baseline is the protocol it
  replaces: one pair per request, each awaited before the next is
  sent — what a naive client does against a classic RPC endpoint.
  With 64 concurrent clients submitting query sets, the served
  pairs/sec must beat that baseline by at least 5x.  This floor is
  about batching, not cores, so it is enforced everywhere.

Every run records its measurements in ``BENCH_serve_throughput.json``
(uploaded as a CI artifact), so the throughput trajectory stays
visible per commit even where a floor is skipped.
"""

from __future__ import annotations

import asyncio
import gc
import os
import sys
import time

import pytest

from paper.baselines.pll import build_pll
from paper.bench.export import write_bench_json
from paper.bench.metrics import interleaved_rates
from paper.bench.workloads import random_pairs
from repro.core.flatstore import FlatLabelStore
from repro.graphs.generators import ba_graph
from repro.oracle import DistanceOracle, ShardedLabelStore
from repro.serve import DistanceClient, DistanceServer, shm
from repro.serve.shm import SharedMemoryFanout

NUM_VERTICES = 10_000
#: Pairs per fan-out batch: large enough that span dispatch to the
#: forked workers is amortised against real kernel work.
NUM_PAIRS = 20_000
NUM_SHARDS = 4
#: Acceptance floor for the shm fan-out vs the inline kernel, gated
#: on machines with >= 4 cores.
MIN_FANOUT_SPEEDUP = 1.5
FANOUT_CORES_REQUIRED = 4
#: The async-serving workload: 64 concurrent clients submitting
#: query sets, vs single-pair round trips awaited one at a time.
NUM_CLIENTS = 64
PAIRS_PER_REQUEST = 16
REQUESTS_PER_CLIENT = 4
#: Single-pair round trips timed for the sequential baseline; rates
#: are per pair, so the baseline sample can be smaller than the
#: concurrent workload without biasing the ratio.
SEQUENTIAL_SAMPLE = 512
#: Acceptance floor for batched async serving (pairs/sec) over the
#: sequential per-request baseline.
MIN_BATCHING_SPEEDUP = 5.0

_CORES = os.cpu_count() or 1


@pytest.fixture(scope="module")
def flat():
    graph = ba_graph(NUM_VERTICES, m=2, seed=1)
    index, _ = build_pll(graph)
    return FlatLabelStore.from_index(index)


@pytest.fixture(scope="module")
def pairs():
    return random_pairs(NUM_VERTICES, NUM_PAIRS, seed=83)


@pytest.fixture(scope="module")
def expected(flat, pairs):
    return [flat.query(s, t) for s, t in pairs]


def _measure_fanout(flat, pairs):
    """(inline_rate, fanout_rate, workers) or None when shm is out."""
    if not shm.available():
        return None
    store = ShardedLabelStore.split(flat, NUM_SHARDS)
    inline = DistanceOracle(flat, cache_size=0)
    fanout = SharedMemoryFanout(
        store, workers=max(1, min(NUM_SHARDS, _CORES))
    )
    try:
        fanout.warmup()
        inline_rate, fanout_rate = interleaved_rates(
            [inline.query_batch, fanout.query_batch], pairs
        )
        return inline_rate, fanout_rate, fanout.workers
    finally:
        fanout.close()
        inline.close()
        store.close()


def _requests(pairs):
    """Slice the workload into the per-client query-set schedule."""
    total = NUM_CLIENTS * REQUESTS_PER_CLIENT * PAIRS_PER_REQUEST
    flat_pairs = (pairs * (total // len(pairs) + 1))[:total]
    return [
        flat_pairs[k : k + PAIRS_PER_REQUEST]
        for k in range(0, total, PAIRS_PER_REQUEST)
    ]


async def _sequential_seconds(host, port, pairs):
    """The baseline: one pair per request, each awaited in turn."""
    client = await DistanceClient.connect(host, port)
    try:
        t0 = time.perf_counter()
        for pair in pairs:
            await client.query([pair])
        return time.perf_counter() - t0
    finally:
        await client.aclose()


async def _concurrent_seconds(host, port, requests):
    """64 clients in flight at once; each awaits its own replies."""
    clients = [
        await DistanceClient.connect(host, port) for _ in range(NUM_CLIENTS)
    ]

    async def drive(client, schedule):
        out = []
        for request in schedule:
            out.extend(await client.query(request))
        return out

    try:
        t0 = time.perf_counter()
        await asyncio.gather(
            *[
                drive(client, requests[i::NUM_CLIENTS])
                for i, client in enumerate(clients)
            ]
        )
        return time.perf_counter() - t0
    finally:
        for client in clients:
            await client.aclose()


def _measure_serving(flat, pairs):
    """Best-of-3 pairs/sec for each mode, rounds interleaved."""
    requests = _requests(pairs)
    sample = pairs[:SEQUENTIAL_SAMPLE]

    async def run():
        oracle = DistanceOracle(flat, cache_size=0)
        server = DistanceServer(oracle)
        host, port = await server.start()
        best_seq = best_conc = float("inf")
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            # One warm pass of each shape, then interleaved timed rounds.
            await _sequential_seconds(host, port, sample[:64])
            await _concurrent_seconds(host, port, requests)
            for _ in range(3):
                best_seq = min(
                    best_seq,
                    await _sequential_seconds(host, port, sample),
                )
                best_conc = min(
                    best_conc,
                    await _concurrent_seconds(host, port, requests),
                )
            return (
                len(sample) / best_seq,
                len(requests) * PAIRS_PER_REQUEST / best_conc,
                len(requests) / best_conc,
            )
        finally:
            if gc_was_enabled:
                gc.enable()
            await server.aclose()
            oracle.close()

    return asyncio.run(run())


@pytest.fixture(scope="module")
def measurements(flat, pairs):
    """Run every measurement once, export the JSON, share the numbers."""
    fanout = _measure_fanout(flat, pairs)
    seq_rate, conc_rate, conc_req_rate = _measure_serving(flat, pairs)
    record = {
        "num_vertices": NUM_VERTICES,
        "num_pairs": NUM_PAIRS,
        "num_shards": NUM_SHARDS,
        "cores": _CORES,
        "num_clients": NUM_CLIENTS,
        "pairs_per_request": PAIRS_PER_REQUEST,
        "requests": NUM_CLIENTS * REQUESTS_PER_CLIENT,
        "sequential_pairs_per_sec": round(seq_rate),
        "batched_pairs_per_sec": round(conc_rate),
        "batched_requests_per_sec": round(conc_req_rate),
        "batching_speedup": round(conc_rate / seq_rate, 3),
        "batching_floor": MIN_BATCHING_SPEEDUP,
        "fanout_floor": MIN_FANOUT_SPEEDUP,
        "fanout_floor_enforced": (
            fanout is not None and _CORES >= FANOUT_CORES_REQUIRED
        ),
    }
    if fanout is not None:
        inline_rate, fanout_rate, workers = fanout
        record.update(
            {
                "fanout_workers": workers,
                "inline_kernel_pairs_per_sec": round(inline_rate),
                "shm_fanout_pairs_per_sec": round(fanout_rate),
                "fanout_speedup": round(fanout_rate / inline_rate, 3),
            }
        )
    write_bench_json("serve_throughput", record)
    return record


def test_fanout_answers_bit_identical(flat, pairs, expected):
    """The shm fan-out path agrees with the scalar store everywhere."""
    if not shm.available():
        pytest.skip("shared-memory fan-out unavailable (no fork)")
    store = ShardedLabelStore.split(flat, NUM_SHARDS)
    with SharedMemoryFanout(store, workers=2) as fanout:
        assert fanout.query_batch(pairs) == expected
    store.close()


def test_shm_fanout_floor(measurements):
    """The acceptance criterion: fan-out >= 1.5x inline on >= 4 cores."""
    if "fanout_speedup" not in measurements:
        reason = (
            "SKIP: shared-memory fan-out unavailable (no fork start "
            "method); rates not measured"
        )
        print(reason, file=sys.stderr)
        pytest.skip(reason)
    if not measurements["fanout_floor_enforced"]:
        reason = (
            f"SKIP: only {_CORES} core(s) — the >= "
            f"{MIN_FANOUT_SPEEDUP}x shm fan-out floor needs >= "
            f"{FANOUT_CORES_REQUIRED} cores (forked workers without "
            "real parallelism only add dispatch overhead); rates were "
            "still measured and exported to BENCH_serve_throughput.json"
        )
        print(reason, file=sys.stderr)
        pytest.skip(reason)
    assert measurements["fanout_speedup"] >= MIN_FANOUT_SPEEDUP, (
        f"shm fan-out {measurements['shm_fanout_pairs_per_sec']:,} "
        f"pairs/s vs inline kernel "
        f"{measurements['inline_kernel_pairs_per_sec']:,} pairs/s — "
        f"{measurements['fanout_speedup']:.2f}x is below the "
        f"{MIN_FANOUT_SPEEDUP}x floor"
    )


def test_async_batching_floor(measurements):
    """The acceptance criterion: batched serving >= 5x per-request.

    Both sides pay the same framed protocol and the same kernel;
    the batched side wins exactly as much as query sets, admission
    coalescing, and pipelined IO amortise — so this floor holds on
    one core.
    """
    assert measurements["batching_speedup"] >= MIN_BATCHING_SPEEDUP, (
        f"batched serving {measurements['batched_pairs_per_sec']:,} "
        f"pairs/s vs sequential per-request "
        f"{measurements['sequential_pairs_per_sec']:,} pairs/s — "
        f"{measurements['batching_speedup']:.2f}x is below the "
        f"{MIN_BATCHING_SPEEDUP}x floor"
    )
