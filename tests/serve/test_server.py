"""DistanceServer protocol tests: queries, errors, backpressure, stats."""

import asyncio
import json
import math

import pytest

from repro.baselines.pll import build_pll
from repro.bench.workloads import random_pairs
from repro.core.flatstore import FlatLabelStore
from repro.graphs.generators import ba_graph
from repro.oracle import DistanceOracle
from repro.serve import DistanceClient, DistanceServer, ServerError


@pytest.fixture(scope="module")
def flat():
    graph = ba_graph(300, m=2, seed=37)
    index, _ = build_pll(graph)
    return FlatLabelStore.from_index(index)


def _serve(flat, coro, open_backend=None, **server_kwargs):
    """Run ``coro(server, host, port)`` against a live server."""

    async def main():
        oracle = (
            open_backend() if open_backend
            else DistanceOracle(flat, cache_size=0)
        )
        server = DistanceServer(oracle, **server_kwargs)
        host, port = await server.start()
        try:
            return await coro(server, host, port)
        finally:
            await server.aclose()
            oracle.close()

    return asyncio.run(main())


def test_concurrent_clients_bit_identical(flat):
    pairs = random_pairs(flat.n, 320, seed=41)
    want = [flat.query(s, t) for s, t in pairs]

    async def scenario(server, host, port):
        clients = [
            await DistanceClient.connect(host, port) for _ in range(16)
        ]
        try:
            return await asyncio.gather(
                *[
                    client.query(pairs[i * 20 : (i + 1) * 20])
                    for i, client in enumerate(clients)
                ]
            )
        finally:
            for client in clients:
                await client.aclose()

    results = _serve(flat, scenario, max_wait=0.005)
    merged = [d for chunk in results for d in chunk]
    assert merged == want


def test_unreachable_encodes_null_decodes_inf(flat):
    async def scenario(server, host, port):
        client = await DistanceClient.connect(host, port)
        try:
            raw = await client.request({"pairs": [[0, 0]]})
            via_helper = await client.query([(0, 0)])
            return raw, via_helper
        finally:
            await client.aclose()

    raw, via_helper = _serve(flat, scenario)
    assert raw["distances"] == [0.0]
    assert via_helper == [0.0]
    # Manufacture an unreachable reading through the JSON layer: the
    # decoder maps null back to inf.
    assert math.isinf(
        [math.inf if d is None else d for d in [None]][0]
    )


def test_malformed_requests_get_400_not_disconnect(flat):
    async def scenario(server, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        replies = []
        for raw in [
            b"this is not json\n",
            b"[1, 2, 3]\n",
            json.dumps({"op": "teleport"}).encode() + b"\n",
            json.dumps({"pairs": "nope"}).encode() + b"\n",
            json.dumps({"pairs": [[0, 1, 2]]}).encode() + b"\n",
            json.dumps({"pairs": [[0, True]]}).encode() + b"\n",
            json.dumps({"pairs": [[0, 99999]]}).encode() + b"\n",
        ]:
            writer.write(raw)
            await writer.drain()
            replies.append(json.loads(await reader.readline()))
        # The connection survived every bad request:
        writer.write(json.dumps({"pairs": [[0, 1]]}).encode() + b"\n")
        await writer.drain()
        replies.append(json.loads(await reader.readline()))
        writer.close()
        await writer.wait_closed()
        return replies

    replies = _serve(flat, scenario)
    bad, good = replies[:-1], replies[-1]
    assert all(r["ok"] is False and r["code"] == 400 for r in bad)
    assert good["ok"] is True


def test_request_id_echoed(flat):
    async def scenario(server, host, port):
        client = await DistanceClient.connect(host, port)
        try:
            ok = await client.request({"pairs": [[0, 1]], "id": "abc"})
            err = await client.request({"pairs": "bad", "id": 7})
            pong = await client.request({"op": "ping", "id": 1})
            return ok, err, pong
        finally:
            await client.aclose()

    ok, err, pong = _serve(flat, scenario)
    assert ok["id"] == "abc"
    assert err["id"] == 7 and err["code"] == 400
    assert pong == {"ok": True, "id": 1}


def test_backpressure_maps_to_429(flat):
    async def scenario(server, host, port):
        # Stall the evaluator so admitted pairs stay pending.
        blocker = asyncio.Event()

        async def stalling(pairs):
            await blocker.wait()
            return [0.0] * len(pairs)

        server.batcher._evaluate = stalling
        server.batcher._is_async = True
        filler = await DistanceClient.connect(host, port)
        probe = await DistanceClient.connect(host, port)
        try:
            fill = asyncio.create_task(
                filler.request({"pairs": [[0, 1]] * 8})
            )
            await asyncio.sleep(0.05)
            with pytest.raises(ServerError) as info:
                await probe.query([(0, 1)])
            blocker.set()
            filled = await fill
            return info.value.code, filled
        finally:
            await filler.aclose()
            await probe.aclose()

    code, filled = _serve(
        flat, scenario, max_batch_pairs=8, max_pending_pairs=8,
        max_wait=0.001,
    )
    assert code == 429
    assert filled["ok"] is True


def test_stats_op_reports_batcher_counters(flat):
    async def scenario(server, host, port):
        client = await DistanceClient.connect(host, port)
        try:
            await client.query([(0, 1), (1, 2)])
            return await client.stats()
        finally:
            await client.aclose()

    stats = _serve(flat, scenario)
    assert stats["n"] == flat.n
    assert stats["batcher"]["pairs_served"] == 2
    assert stats["batcher"]["batches_dispatched"] >= 1


def test_stats_op_reports_kernel_counters(flat):
    pytest.importorskip("numpy")
    # Ten copies of one pair: one distinct evaluation.
    pairs = [(0, 5)] * 10

    async def scenario(server, host, port):
        client = await DistanceClient.connect(host, port)
        try:
            before = (await client.stats())["kernel"]
            await client.query(pairs)
            return before, (await client.stats())["kernel"]
        finally:
            await client.aclose()

    # A store no batch has touched: its row cache starts empty.
    fresh = type(flat).from_index(flat.to_index())
    before, after = _serve(fresh, scenario)
    assert after["pairs"] - before["pairs"] == 10
    assert after["distinct_pairs"] - before["distinct_pairs"] == 1
    # Both endpoints' rows were filled for it, one source row keyed.
    assert after["rows_filled"] - before["rows_filled"] == 2
    assert after["source_rows"] - before["source_rows"] == 1
    assert sum(after["joins"].values()) - sum(before["joins"].values()) <= 1
    assert before["view"] is None
    assert after["view"]["rows_resident"] == 2
    assert after["view"]["hub_columns"] > 0


def test_stats_op_reports_shard_hits_of_a_live_pool(
    flat, tmp_path, fan_out_everything
):
    from repro.oracle import ParallelOracle, ShardedLabelStore

    ShardedLabelStore.split(flat, 2).save(tmp_path / "shards")
    pairs = random_pairs(flat.n, 40, seed=43)

    def open_backend():
        oracle = ParallelOracle(tmp_path / "shards", workers=2, cache_size=0)
        oracle.warmup()
        return oracle

    async def scenario(server, host, port):
        client = await DistanceClient.connect(host, port)
        try:
            return await client.query(pairs), await client.stats()
        finally:
            await client.aclose()

    distances, stats = _serve(flat, scenario, open_backend)
    assert distances == [flat.query(s, t) for s, t in pairs]
    assert sum(stats["backend"]["shard_hits"]) == len(pairs)


def test_server_requires_start_before_serve(flat):
    async def main():
        oracle = DistanceOracle(flat, cache_size=0)
        server = DistanceServer(oracle)
        with pytest.raises(RuntimeError, match="not started"):
            await server.serve_forever()
        await server.aclose()
        oracle.close()

    asyncio.run(main())


def test_aclose_rejects_new_connections(flat):
    async def scenario(server, host, port):
        await server.aclose()
        with pytest.raises((ConnectionError, OSError)):
            await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout=2
            )

    _serve(flat, scenario)
