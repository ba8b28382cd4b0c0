"""The wire: binary frames beside JSON lines, same answers, same refusals.

Frames are built and parsed here with :mod:`struct` from the tables in
docs/FORMATS.md, not with the server's helpers, so the format has a
second reader.  Every scenario also fails if the event loop logged an
unhandled exception — a refused request must never cost more than its
own connection.
"""

import asyncio
import gc
import json
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paper.baselines.pll import build_pll
from repro.core.flatstore import FlatLabelStore
from repro.graphs.digraph import Graph
from repro.graphs.generators import ba_graph
from repro.oracle import DistanceOracle, PairColumns
from repro.serve import DistanceClient, DistanceServer, ServerError

MAGIC = b"\xffHD\x01"
N = 140


@pytest.fixture(scope="module")
def flat():
    # Two components (a BA graph and a path), so some pairs are
    # unreachable and ``inf`` has to cross the wire.
    edges = [(u, v) for u, v, _ in ba_graph(120, m=2, seed=5).edges()]
    edges += [(v, v + 1) for v in range(120, N - 1)]
    index, _ = build_pll(Graph.from_edges(N, edges, directed=False))
    return FlatLabelStore.from_index(index)


def _serve(flat, scenario, **server_kwargs):
    """Run ``scenario(server, host, port)`` against a live server."""
    unhandled = []

    async def main():
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(lambda _, ctx: unhandled.append(ctx))
        oracle = DistanceOracle(flat, cache_size=0)
        server = DistanceServer(oracle, **server_kwargs)
        host, port = await server.start()
        try:
            return await asyncio.wait_for(scenario(server, host, port), 30)
        finally:
            await server.aclose()

    result = asyncio.run(main())
    assert not unhandled, unhandled
    return result


def _frame(pairs) -> bytes:
    count = len(pairs)
    columns = [s for s, _ in pairs] + [t for _, t in pairs]
    return MAGIC + struct.pack(f"<I{2 * count}q", count, *columns)


def _line(pairs) -> bytes:
    return json.dumps({"pairs": [list(p) for p in pairs]}).encode() + b"\n"


async def _read_frame(reader):
    """``(status, distances | message)`` of the next reply frame."""
    magic, status, length = struct.unpack("<4sII", await reader.readexactly(12))
    assert magic == MAGIC
    if status:
        return status, (await reader.readexactly(length)).decode()
    body = await reader.readexactly(8 * length)
    return 0, list(struct.unpack(f"<{length}d", body))


async def _read_line(reader):
    reply = json.loads(await reader.readline())
    if reply["ok"] and "distances" in reply:
        reply["distances"] = [
            math.inf if d is None else d for d in reply["distances"]
        ]
    return reply


async def _closed(reader) -> bool:
    """The server hung up: end of stream, however the kernel reports it."""
    try:
        return await reader.read(1) == b""
    except ConnectionError:
        return True


def _stall(server, oracle_batches=None):
    """Hold every batch at the evaluator until the returned event is set."""
    gate = asyncio.Event()
    evaluate = server.backend.query_batch

    async def stalling(pairs):
        await gate.wait()
        if oracle_batches is not None:
            oracle_batches.append(pairs)
        return evaluate(pairs)

    server.batcher._evaluate = stalling
    server.batcher._is_async = True
    return gate


async def _pending(server, pairs: int) -> None:
    while server.batcher.stats()["pending_pairs"] < pairs:
        await asyncio.sleep(0.001)


# -- differential: frame == JSON line == library ------------------------------
vertex = st.integers(min_value=0, max_value=N - 1)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(vertex, vertex), max_size=40))
def test_frame_json_and_library_agree(flat, pairs):
    want = [flat.query(s, t) for s, t in pairs]

    async def scenario(server, host, port):
        client = await DistanceClient.connect(host, port)
        reader, writer = await asyncio.open_connection(host, port)
        try:
            helper = await client.query(pairs)
            writer.write(_frame(pairs) + _line(pairs))
            return helper, await _read_frame(reader), await _read_line(reader)
        finally:
            writer.close()
            await client.aclose()

    helper, (status, framed), line = _serve(flat, scenario)
    assert DistanceOracle(flat, cache_size=0).query_batch(pairs) == want
    assert helper == want
    assert status == 0 and framed == want
    assert line["distances"] == want


def test_named_cases_cross_the_wire(flat):
    # unreachable, s == t, duplicates, both orientations, one pair, none.
    batches = [
        [(0, 130), (130, 0), (7, 7), (3, 90), (3, 90), (90, 3), (125, 139)],
        [(0, 130)],
        [],
    ]

    async def scenario(server, host, port):
        client = await DistanceClient.connect(host, port)
        try:
            return [await client.query(batch) for batch in batches]
        finally:
            await client.aclose()

    got = _serve(flat, scenario)
    assert got == [[flat.query(s, t) for s, t in batch] for batch in batches]
    assert got[0][0] == math.inf and got[0][2] == 0.0
    assert all(type(d) is float for d in got[0])


def test_library_columns_match_lists(flat):
    pairs = [(s, (s * 7 + 3) % N) for s in range(N)] + [(0, 130), (5, 5)]
    want = [flat.query(s, t) for s, t in pairs]
    columns = PairColumns.from_pairs(pairs)
    assert list(columns) == pairs and columns[1] == pairs[1]
    for oracle in (DistanceOracle(flat, cache_size=0), DistanceOracle(flat)):
        got = oracle.query_batch(columns)  # a batch skips the LRU either way
        assert not isinstance(got, list) and got.tolist() == want
    few = PairColumns.from_pairs(pairs[:3])  # below the kernel cutoff
    assert DistanceOracle(flat, cache_size=0).query_batch(few) == want[:3]
    joined = PairColumns.concat([columns, pairs[:2], few])
    assert list(joined) == pairs + pairs[:2] + pairs[:3]
    assert columns.first_outside(N) is None
    assert PairColumns.from_pairs([(1, 2), (3, N), (-1, 0)]).first_outside(N) == (
        3,
        N,
    )


@pytest.mark.parametrize(
    "pairs",
    [[(1, 2, 3)], [(1,)], [(1, 2), (3,)], [(0, 2**63)], [(-(2**63) - 1, 0)], [5]],
)
def test_columns_refuse_what_is_not_int64_pairs(pairs):
    with pytest.raises(ValueError, match="int64 pairs"):
        PairColumns.from_pairs(pairs)


def test_codecs_interleaved_and_pipelined_on_one_connection(flat):
    batches = [[(0, 1), (2, 130)], [(5, 6)], [], [(9, 9), (100, 4)]]
    want = [[flat.query(s, t) for s, t in batch] for batch in batches]

    async def scenario(server, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        # Everything is written before anything is read.
        writer.write(
            _frame(batches[0])
            + _line(batches[1])
            + b'{"op":"ping","id":4}\n'
            + _frame(batches[2])
            + _line(batches[3])
            + _frame(batches[0])
        )
        try:
            return [
                await _read_frame(reader),
                await _read_line(reader),
                await _read_line(reader),
                await _read_frame(reader),
                await _read_line(reader),
                await _read_frame(reader),
            ]
        finally:
            writer.close()

    a, b, pong, c, d, e = _serve(flat, scenario)
    assert (a, c, e) == ((0, want[0]), (0, want[2]), (0, want[0]))
    assert (b["distances"], d["distances"]) == (want[1], want[3])
    assert pong == {"ok": True, "id": 4}


def test_two_connections_and_two_codecs_ride_one_batch(flat):
    first, framed, lined = [(0, 1)], [(2, 130), (3, 4), (7, 7)], [(8, 9), (130, 2)]
    batches = []

    async def scenario(server, host, port):
        gate = _stall(server, batches)
        clients = [await DistanceClient.connect(host, port) for _ in range(2)]
        reader, writer = await asyncio.open_connection(host, port)
        try:
            # The first batch waits at the evaluator while the other
            # two requests queue up behind it.
            opener = asyncio.ensure_future(clients[0].query(first))
            await _pending(server, 1)
            rider = asyncio.ensure_future(clients[1].query(framed))
            await _pending(server, 4)
            writer.write(_line(lined))
            await _pending(server, 6)
            gate.set()
            return await opener, await rider, await _read_line(reader)
        finally:
            writer.close()
            for client in clients:
                await client.aclose()

    opened, rode, line = _serve(flat, scenario, max_wait=0.05)
    assert [len(batch) for batch in batches] == [1, 5]
    assert all(isinstance(batch, PairColumns) for batch in batches)
    assert list(batches[1]) == framed + lined
    assert opened == [flat.query(s, t) for s, t in first]
    assert rode == [flat.query(s, t) for s, t in framed]
    assert line["distances"] == [flat.query(s, t) for s, t in lined]


# -- the stream: requests cut out of whatever the writes delivered -------------
def test_a_pipelined_stream_written_one_byte_at_a_time(flat):
    batches = [[(0, 1), (2, 130)], [(5, 6)], [(9, 9), (100, 4), (7, 8)]]
    want = [[flat.query(s, t) for s, t in batch] for batch in batches]
    stream = (
        _frame(batches[0]) + _line(batches[1]) + b'{"op":"ping"}\n'
        + _frame(batches[2]) + _line(batches[0])
    )

    async def scenario(server, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for k in range(len(stream)):
                writer.write(stream[k : k + 1])
                await writer.drain()
                await asyncio.sleep(0)
            return [
                await _read_frame(reader),
                await _read_line(reader),
                await _read_line(reader),
                await _read_frame(reader),
                await _read_line(reader),
                server.stats()["wire"],
            ]
        finally:
            writer.close()

    a, b, pong, c, d, wire = _serve(flat, scenario)
    assert (a, c) == ((0, want[0]), (0, want[2]))
    assert (b["distances"], d["distances"]) == (want[1], want[0])
    assert pong == {"ok": True}
    assert (wire["frame_requests"], wire["json_requests"]) == (2, 3)
    assert wire["bytes_in"] == len(stream) and wire["bad_requests"] == 0


def test_two_frames_and_a_line_in_one_write(flat):
    batches = [[(0, 1), (2, 3)], [(130, 0)], [(4, 5), (6, 7), (8, 8)]]
    want = [[flat.query(s, t) for s, t in batch] for batch in batches]

    async def scenario(server, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(_frame(batches[0]) + _frame(batches[1]) + _line(batches[2]))
        try:
            return [
                await _read_frame(reader),
                await _read_frame(reader),
                await _read_line(reader),
            ]
        finally:
            writer.close()

    first, second, line = _serve(flat, scenario)
    assert (first, second) == ((0, want[0]), (0, want[1]))
    assert line["distances"] == want[2]


def test_requests_pipelined_behind_a_waiting_one_come_back_in_order(flat):
    batches = [[(0, 1)], [(2, 130), (3, 4)], [(5, 6)]]
    want = [[flat.query(s, t) for s, t in batch] for batch in batches]

    async def scenario(server, host, port):
        gate = _stall(server)
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(_frame(batches[0]))
            await _pending(server, 1)  # the first waits in the batcher
            writer.write(
                _frame(batches[1]) + b'{"op":"ping","id":2}\n' + _line(batches[2])
            )
            await asyncio.sleep(0.05)
            gate.set()
            return [
                await _read_frame(reader),
                await _read_frame(reader),
                await _read_line(reader),
                await _read_line(reader),
            ]
        finally:
            writer.close()

    first, second, pong, third = _serve(flat, scenario)
    assert (first, second) == ((0, want[0]), (0, want[1]))
    assert pong == {"ok": True, "id": 2}
    assert third["distances"] == want[2]


# -- hostile input -------------------------------------------------------------
def test_a_slow_loris_does_not_delay_other_connections(flat):
    frame = _frame([(0, 1), (2, 3)])

    async def scenario(server, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(frame[: len(frame) // 2])  # half a frame, then silence
        client = await DistanceClient.connect(host, port)

        async def ask():
            return [await client.query([(k, k + 1)]) for k in range(50)]

        try:
            answers = await asyncio.wait_for(ask(), timeout=5)
            writer.write(frame[len(frame) // 2 :])
            return answers, await _read_frame(reader)
        finally:
            writer.close()
            await client.aclose()

    answers, late = _serve(flat, scenario)
    assert answers == [[flat.query(k, k + 1)] for k in range(50)]
    assert late == (0, [flat.query(0, 1), flat.query(2, 3)])


def _server_transport(port: int):
    """The server's end of the one connection to ``port``."""
    (transport,) = [
        o
        for o in gc.get_objects()
        if isinstance(o, asyncio.Transport)
        and not o.is_closing()
        and (o.get_extra_info("sockname") or ("", 0))[1] == port
    ]
    return transport


def test_a_client_that_never_reads_cannot_grow_the_server_buffers(flat):
    asked = [(k % N, 7 * k % N) for k in range(16)]
    requests = [_frame([pair] * 64) for pair in asked]
    want = [[flat.query(*pair)] * 64 for pair in asked]
    cap = 48 << 20

    async def scenario(server, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        sent = 0
        try:
            # Pipeline up to 48 MB without reading a reply: the writes
            # must stall long before that, once the server stops reading.
            while sent * len(requests[0]) < cap:
                writer.write(b"".join(requests))
                sent += len(requests)
                try:
                    await asyncio.wait_for(writer.drain(), 0.5)
                except asyncio.TimeoutError:
                    break
            transport = _server_transport(port)
            held = transport.get_write_buffer_size(), transport.is_reading()
            # Reading again, the client gets every reply, in order.
            replies = [await _read_frame(reader) for _ in range(sent)]
            return sent, held, replies
        finally:
            writer.close()

    sent, (write_buffer, reading), replies = _serve(
        flat, scenario, max_batch_pairs=64, max_pending_pairs=64
    )
    assert sent * len(requests[0]) < cap
    # At most the transport's high-water mark and one reply frame.
    assert write_buffer <= (64 << 10) + 12 + 8 * 64
    assert not reading
    assert replies == [(0, want[k % len(asked)]) for k in range(sent)]
@pytest.mark.parametrize(
    "sent, message",
    [
        (MAGIC[:3], "truncated frame"),
        (MAGIC + struct.pack("<I", 4) + bytes(10), "truncated frame"),
        (b"\xffXYZ" + struct.pack("<I", 1) + bytes(16), "bad frame magic"),
        (MAGIC + struct.pack("<I", 65), "exceeds the limit of 64"),
        (MAGIC + struct.pack("<I", 0xFFFFFFFF) + bytes(64), "exceeds the limit"),
    ],
)
def test_unreadable_frames_get_400_then_a_clean_close(flat, sent, message):
    async def scenario(server, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(sent)
        writer.write_eof()
        try:
            return await _read_frame(reader), await _closed(reader), server.stats()
        finally:
            writer.close()

    (status, text), closed, stats = _serve(
        flat, scenario, max_batch_pairs=8, max_pending_pairs=64
    )
    assert status == 400 and message in text
    assert closed
    assert stats["wire"]["bad_requests"] == 1
    assert stats["batcher"]["pairs_served"] == 0


@pytest.mark.parametrize("bad", [(0, N), (N + 5, 1), (-1, 0), (3, -(2**63))])
def test_out_of_range_ids_get_400_and_the_connection_survives(flat, bad):
    pairs = [(0, 1), bad, (2, 3)]
    text = f"pair ({bad[0]}, {bad[1]}) out of range [0, {N})"

    async def scenario(server, host, port):
        client = await DistanceClient.connect(host, port)
        reader, writer = await asyncio.open_connection(host, port)
        try:
            with pytest.raises(ServerError) as info:
                await client.query(pairs)
            writer.write(_frame(pairs) + _line(pairs) + _frame(pairs[:1]))
            raw = await _read_frame(reader), await _read_line(reader)
            return info.value, raw, await _read_frame(reader), server.stats()
        finally:
            writer.close()
            await client.aclose()

    error, (framed, line), after, stats = _serve(flat, scenario)
    assert (error.code, str(error)) == (400, text)
    assert framed == (400, text)
    assert (line["code"], line["error"]) == (400, text)
    assert after == (0, [flat.query(0, 1)])
    # Refused before admission: nothing bad ever reached a batch.
    assert stats["batcher"]["pairs_served"] == 1
    assert stats["wire"]["bad_requests"] == 3


def test_json_ids_beyond_int64_read_as_out_of_range(flat):
    async def scenario(server, host, port):
        client = await DistanceClient.connect(host, port)
        try:
            return await client.request({"pairs": [[0, 1], [0, 2**70]]})
        finally:
            await client.aclose()

    reply = _serve(flat, scenario)
    assert reply["code"] == 400
    assert reply["error"] == f"pair (0, {2**70}) out of range [0, {N})"


@pytest.mark.parametrize(
    "bad", [(0, 2**63), (-(2**63) - 1, 0), (2**64, 0), (0, -(2**64))]
)
def test_client_refuses_ids_that_do_not_fit_a_frame(flat, bad):
    async def scenario(server, host, port):
        client = await DistanceClient.connect(host, port)
        try:
            with pytest.raises(ValueError):
                await client.query([(0, 1), bad])
            return await client.query([(0, 1)]), server.stats()
        finally:
            await client.aclose()

    after, stats = _serve(flat, scenario)
    assert after == [flat.query(0, 1)]
    assert stats["wire"]["frame_requests"] == 1  # the bad one was never sent


@pytest.mark.parametrize("count", [6000, 8192, 20000])
def test_json_lines_past_64_kib_are_answered(flat, count):
    pairs = [(k % N, (k * 13 + 1) % N) for k in range(count)]

    async def scenario(server, host, port):
        client = await DistanceClient.connect(host, port)
        try:
            raw = await client.request({"pairs": [list(p) for p in pairs]})
            return raw, await client.query(pairs)
        finally:
            await client.aclose()

    raw, framed = _serve(flat, scenario)
    want = [flat.query(s, t) for s, t in pairs]
    assert raw["ok"] and framed == want
    assert [math.inf if d is None else d for d in raw["distances"]] == want


def test_json_line_over_the_limit_gets_400_then_a_clean_close(flat):
    async def scenario(server, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        assert server.line_limit == 1 << 16
        writer.write(b'{"pairs": [' + b"[0, 1], " * 9000)  # 72,011 bytes
        try:
            return await _read_line(reader), await _closed(reader), server.stats()
        finally:
            writer.close()

    reply, closed, stats = _serve(
        flat, scenario, max_batch_pairs=8, max_pending_pairs=64
    )
    assert reply == {
        "ok": False,
        "code": 400,
        "error": "request line exceeds 65536 bytes",
    }
    assert closed
    assert stats["wire"]["bad_requests"] == 1


def test_non_utf8_and_deeply_nested_lines_get_400(flat):
    async def scenario(server, host, port):
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b'{"pairs": "\xc3\x28"}\n' + b"[" * 50_000 + b"\n" + b"\n")
        writer.write(_line([(0, 1)]))
        try:
            return [await _read_line(reader) for _ in range(4)]
        finally:
            writer.close()

    *bad, good = _serve(flat, scenario)
    assert [r["code"] for r in bad] == [400, 400, 400]
    assert good["distances"] == [flat.query(0, 1)]


def test_client_gone_with_a_request_pending(flat):
    async def scenario(server, host, port):
        gate = _stall(server)
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(_frame([(0, 1), (2, 3)]))
        await _pending(server, 2)
        writer.close()
        await writer.wait_closed()
        gate.set()
        client = await DistanceClient.connect(host, port)
        try:
            return await client.query([(4, 5)]), server.stats()
        finally:
            await client.aclose()

    after, stats = _serve(flat, scenario)
    assert after == [flat.query(4, 5)]
    assert stats["batcher"]["pending_pairs"] == 0
    assert stats["batcher"]["pairs_served"] == 3


# -- error codes through frames -------------------------------------------------
def test_backpressure_arrives_through_a_frame_as_429(flat):
    async def scenario(server, host, port):
        gate = _stall(server)
        clients = [await DistanceClient.connect(host, port) for _ in range(2)]
        try:
            held = asyncio.ensure_future(clients[0].query([(0, 1)] * 8))
            await _pending(server, 8)
            with pytest.raises(ServerError) as info:
                await clients[1].query([(0, 1)])
            gate.set()
            return info.value.code, await held
        finally:
            for client in clients:
                await client.aclose()

    code, held = _serve(
        flat, scenario, max_batch_pairs=8, max_pending_pairs=8, max_wait=0.001
    )
    assert code == 429
    assert held == [flat.query(0, 1)] * 8


def test_evaluator_failure_arrives_through_a_frame_as_500(flat):
    async def scenario(server, host, port):
        def failing(pairs):
            raise RuntimeError("boom")

        server.batcher._evaluate = failing
        client = await DistanceClient.connect(host, port)
        try:
            with pytest.raises(ServerError) as info:
                await client.query([(0, 1)])
            return info.value.code, str(info.value)
        finally:
            await client.aclose()

    assert _serve(flat, scenario) == (500, "RuntimeError: boom")


def test_shutdown_answers_a_pending_frame_with_503(flat):
    async def scenario(server, host, port):
        _stall(server)
        client = await DistanceClient.connect(host, port)
        try:
            held = asyncio.ensure_future(client.query([(0, 1)]))
            await _pending(server, 1)
            await server.batcher.aclose()
            with pytest.raises(ServerError) as info:
                await held
            return info.value.code, str(info.value)
        finally:
            await client.aclose()

    assert _serve(flat, scenario) == (503, "server shutting down")


def test_server_aclose_ends_every_connection(flat):
    # An idle connection and one that already has its answer both end
    # with the server, so nothing is left for the loop to cancel.
    async def scenario(server, host, port):
        streams = [await asyncio.open_connection(host, port) for _ in range(2)]
        try:
            for reader, writer in streams:
                writer.write(b'{"op":"ping"}\n')
                await _read_line(reader)
            writer.write(_line([(0, 1)]))
            answer = await _read_line(reader)
            await server.aclose()
            return answer, [await _closed(reader) for reader, _ in streams]
        finally:
            for _, writer in streams:
                writer.close()

    answer, closed = _serve(flat, scenario)
    assert answer["distances"] == [flat.query(0, 1)]
    assert closed == [True, True]


# -- observability ----------------------------------------------------------------
def test_stats_wire_block_counts_both_codecs(flat):
    async def scenario(server, host, port):
        client = await DistanceClient.connect(host, port)
        try:
            await client.query([(0, 1), (2, 3)])
            await client.request({"pairs": [[0, 1]]})
            await client.request({"pairs": "nope"})
            return await client.stats()
        finally:
            await client.aclose()

    wire = _serve(flat, scenario)["wire"]
    assert wire["frame_requests"] == 1
    assert wire["json_requests"] == 3  # two queries and this stats call
    assert wire["bad_requests"] == 1
    frame_in, frame_out = 8 + 2 * 16, 12 + 2 * 8
    assert wire["bytes_in"] > frame_in and wire["bytes_out"] > frame_out
