"""The asyncio distance server: binary frames and JSON lines over TCP.

One :class:`DistanceServer` wraps any batch-capable backend — the
:class:`~repro.oracle.DistanceOracle` that ``repro serve`` opens —
behind an
:class:`~repro.serve.batcher.AdmissionBatcher`, so concurrent clients
are answered from coalesced kernel batches instead of one evaluator
call per request.

**Protocol** — two codecs on one port and one connection, told apart
by the first byte of each request; the reply uses the request's codec.
docs/FORMATS.md has the byte-level tables.

* **frames** (first byte ``0xFF``; what :meth:`DistanceClient.query`
  sends) — request: magic, uint32 pair count, then ``count`` int64
  sources and ``count`` int64 targets, little-endian; reply: magic,
  uint32 status, uint32 length, then ``length`` float64 distances
  (``inf`` travels as itself) when the status is 0, else the status
  is the error code and the body ``length`` bytes of UTF-8 message;
* **JSON lines** (anything else; ``nc``-debuggable, and the only
  codec for ``ping``/``stats``) — one object per line:

  * query: ``{"pairs": [[0, 5], [3, 9]], "id": 7}`` →
    ``{"ok": true, "distances": [2.0, null], "id": 7}`` (``null``
    encodes an unreachable pair — JSON has no ``Infinity``; ``id`` is
    an optional client token echoed back verbatim);
  * ``{"op": "ping"}`` → ``{"ok": true}``;
  * ``{"op": "stats"}`` → ``{"ok": true, "stats": {...}}`` with wire,
    batcher and kernel counters;
  * errors: ``{"ok": false, "code": 400 | 429 | 500 | 503,
    "error": "..."}``.

Error codes are the same in both: 400 for malformed requests (bad
JSON, bad pairs, out-of-range vertices, oversized or truncated
requests), 429 when admission backpressure rejects the request, 500
for evaluator failures, 503 during shutdown.

The codecs differ in decoding and encoding only.  Either decoder
produces one :class:`~repro.oracle.batch.PairColumns` block — two
int64 columns, which is also what the batcher concatenates and the
kernel consumes — and from there a request takes one path: range
check, admission, evaluation, error mapping.  Requests are validated
*before* admission, so a malformed request can never poison the batch
it would have ridden in.

**Connections** are :class:`asyncio.Protocol` objects, not tasks: each
cuts complete requests out of its receive buffer in the callback that
received the bytes.  When the batcher answers at once (the first
request of a loop tick, see :mod:`repro.serve.batcher`) the reply is
written from that same callback; otherwise it is written when the
request's future resolves.  Replies leave in request order, so
requests may be pipelined: a connection stops parsing while an answer
is pending or while the peer is not reading (``pause_writing``), and
stops reading once its unparsed bytes pass :attr:`line_limit`.
Concurrency comes from many connections, which is exactly what the
batcher coalesces.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import struct

import numpy as np

from repro.oracle import kernel as _kernel
from repro.oracle.batch import PairColumns
from repro.serve.batcher import (
    DEFAULT_MAX_BATCH_PAIRS,
    DEFAULT_MAX_PENDING_PAIRS,
    DEFAULT_MAX_WAIT,
    AdmissionBatcher,
    ServeClosedError,
    ServeOverloadedError,
)

DEFAULT_HOST = "127.0.0.1"

#: First bytes of every frame, request or reply.  ``0xFF`` never
#: starts a JSON text (nor any UTF-8 text), which is how one port
#: serves both codecs; the last byte is the frame layout's version.
MAGIC = b"\xffHD\x01"
_REQUEST = struct.Struct("<4sI")  # magic, pair count
_REPLY = struct.Struct("<4sII")  # magic, status, length
_NUMPY_DTYPE = {"q": "<i8", "d": "<f8"}

#: The longest JSON line read is this many bytes per pair the server
#: could admit at all (``[s,t],`` with 13-digit ids); asyncio's 64 KiB
#: default is ~5,000 pairs.
LINE_BYTES_PER_PAIR = 32


class ServerError(RuntimeError):
    """A server-side error response, surfaced client-side.

    ``code`` carries the response's HTTP-style status (429 for
    backpressure rejections, 400 for malformed requests, ...).
    """

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


class _Refused(Exception):
    """A request answered with an error ``code`` instead of distances.

    ``resync=False`` when the stream's next request boundary is lost
    (an unread body, a cut line): the connection closes after the reply.
    """

    def __init__(self, code: int, message: str, resync: bool = True) -> None:
        super().__init__(message)
        self.code = code
        self.resync = resync


def _error(code: int, message: str) -> dict:
    return {"ok": False, "code": code, "error": message}


def _raise_for_error(response: dict) -> dict:
    if not response.get("ok"):
        raise ServerError(
            int(response.get("code", 500)),
            str(response.get("error", "unknown server error")),
        )
    return response


def _range_error(pair, n: int) -> str:
    return f"pair ({pair[0]}, {pair[1]}) out of range [0, {n})"


# -- the two codecs' column halves --------------------------------------------
def _pack(code: str, column) -> bytes:
    """Little-endian bytes of an int64 (``q``) or float64 (``d``) column."""
    return np.asarray(column, dtype=_NUMPY_DTYPE[code]).tobytes()


def _unpack(code: str, data: bytes, count: int, offset: int = 0):
    """The column :func:`_pack` wrote ``offset`` bytes into ``data``."""
    return np.frombuffer(data, _NUMPY_DTYPE[code], count, offset)


def _is_pair(pair) -> bool:
    return (
        type(pair) is list
        and len(pair) == 2
        and type(pair[0]) is int
        and type(pair[1]) is int
    )


def _columns_from_json(pairs, n: int) -> PairColumns:
    """The column block of a decoded ``"pairs"`` value.

    JSON can carry what a frame cannot — a non-list, wrong arity,
    bools, floats, strings — so this is the codec's own type check.
    """
    if not isinstance(pairs, list):
        raise _Refused(
            400, "request needs a 'pairs' list of [source, target] pairs"
        )
    bad = next((pair for pair in pairs if not _is_pair(pair)), None)
    if bad is not None:
        raise _Refused(
            400, f"pair {bad!r} is not a [source, target] integer pair"
        )
    try:
        return PairColumns.from_pairs(pairs)
    except ValueError:
        # An id beyond int64 is out of range for every index.
        bad = next(
            p for p in pairs if not (0 <= p[0] < n and 0 <= p[1] < n)
        )
        raise _Refused(400, _range_error(bad, n)) from None


def _json_line(body: dict, rid) -> bytes:
    if rid is not None:
        body["id"] = rid
    return json.dumps(body, separators=(",", ":")).encode() + b"\n"


def _frame_reply(result) -> bytes:
    """The reply frame of a request's distances or its refusal."""
    if isinstance(result, _Refused):
        message = str(result).encode()
        return _REPLY.pack(MAGIC, result.code, len(message)) + message
    return _REPLY.pack(MAGIC, 0, len(result)) + _pack("d", result)


def _line_reply(rid, result) -> bytes:
    """The reply line of a request's distances or its refusal."""
    if isinstance(result, _Refused):
        return _json_line(_error(result.code, str(result)), rid)
    distances = [None if math.isinf(d) else d for d in np.asarray(result).tolist()]
    return _json_line({"ok": True, "distances": distances}, rid)


def _outcome(future: asyncio.Future):
    """The distances a submitted request resolved to, or its refusal."""
    try:
        return future.result()
    except ServeOverloadedError as exc:
        return _Refused(429, str(exc))
    except ServeClosedError:
        return _Refused(503, "server shutting down")
    except Exception as exc:  # evaluator failure
        return _Refused(500, f"{type(exc).__name__}: {exc}")


class _Connection(asyncio.Protocol):
    """One client connection: requests cut out of its receive buffer."""

    def __init__(self, server: DistanceServer) -> None:
        self.server = server
        self.buffer = bytearray()
        self.transport: asyncio.Transport | None = None
        self.pending: asyncio.Future | None = None  # an answer not yet ready
        self.paused = False  # the peer is not reading its replies
        self.eof = False  # no more requests: answer what is buffered
        self.lost = asyncio.get_running_loop().create_future()

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.server._connections.add(self)

    def connection_lost(self, exc) -> None:
        self.server._connections.discard(self)
        self.lost.set_result(None)

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        self.parse()

    def eof_received(self) -> bool:
        self.eof = True
        self.parse()
        return True  # the transport stays open for the replies

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self.parse()

    def parse(self) -> None:
        """Answer buffered requests in order until one has to wait."""
        transport = self.transport
        while not (self.pending or self.paused or transport.is_closing()):
            if not (self.buffer and self._next()):
                break
        if self.eof:
            if not (self.pending or self.buffer):
                transport.close()
        elif len(self.buffer) > self.server.line_limit:
            transport.pause_reading()
        else:
            transport.resume_reading()

    def _next(self) -> bool:
        """Answer the next request in the buffer; False if none is whole."""
        frame = self.buffer[0] == MAGIC[0]
        try:
            request = self._cut_frame() if frame else self._cut_line()
        except _Refused as exc:
            request = exc
        if request is None:
            return False
        self.server.wire["frame_requests" if frame else "json_requests"] += 1
        if not frame:
            return self._serve_line(request)
        if isinstance(request, _Refused):
            return self._reply(_frame_reply, request)
        return self._query(_frame_reply, request)

    def _cut_frame(self) -> PairColumns | None:
        """The frame codec's decoder: the next frame's columns."""
        buf, limit = self.buffer, self.server.batcher.max_pending_pairs
        if len(buf) >= _REQUEST.size:
            magic, count = _REQUEST.unpack_from(buf)
            if magic != MAGIC:
                raise _Refused(400, "bad frame magic", resync=False)
            if count > limit:
                message = f"frame of {count} pairs exceeds the limit of {limit}"
                raise _Refused(400, message, resync=False)
            end = _REQUEST.size + 16 * count
            if len(buf) >= end:
                body = buf[_REQUEST.size : end]
                del buf[:end]
                self.server.wire["bytes_in"] += end
                return PairColumns(*_unpack("q", body, 2 * count).reshape(2, count))
        if self.eof:
            raise _Refused(400, "truncated frame", resync=False)
        return None

    def _cut_line(self) -> bytearray | None:
        """The JSON codec's framing: the next line (at EOF, what is left)."""
        buf, limit = self.buffer, self.server.line_limit
        end = buf.find(b"\n")
        if (len(buf) if end < 0 else end) > limit:
            raise _Refused(400, f"request line exceeds {limit} bytes", resync=False)
        if end < 0 and not self.eof:
            return None
        end = len(buf) if end < 0 else end + 1
        line = buf[:end]
        del buf[:end]
        self.server.wire["bytes_in"] += end
        return line

    def _serve_line(self, line) -> bool:
        """The JSON codec's decoder, as far as the query it asks."""
        rid = None
        try:
            if isinstance(line, _Refused):
                raise line
            try:
                request = json.loads(line)
            except (ValueError, RecursionError):  # not JSON, or not UTF-8
                raise _Refused(400, "request is not valid JSON") from None
            if not isinstance(request, dict):
                raise _Refused(400, "request must be a JSON object")
            rid = request.get("id")
            op = request.get("op", "query")
            if op in ("ping", "stats"):
                body = {"ok": True}
                if op == "stats":
                    body["stats"] = self.server.stats()
                self._write(_json_line(body, rid))
                return True
            if op != "query":
                raise _Refused(400, f"unknown op {op!r}")
            pairs = _columns_from_json(request.get("pairs"), self.server.n)
        except _Refused as exc:
            return self._reply(functools.partial(_line_reply, rid), exc)
        return self._query(functools.partial(_line_reply, rid), pairs)

    def _query(self, reply, pairs: PairColumns) -> bool:
        """Range check and admission: the path both codecs share."""
        n = self.server.n
        outside = pairs.first_outside(n)
        if outside is not None:
            return self._reply(reply, _Refused(400, _range_error(outside, n)))
        # Looked up per request and run through ensure_future, so a
        # wrapped ``submit`` (even an ``async def``) keeps working.
        future = asyncio.ensure_future(self.server.batcher.submit(pairs))
        if future.done():
            return self._reply(reply, _outcome(future))
        self.pending = future
        future.add_done_callback(functools.partial(self._answered, reply))
        return True

    def _answered(self, reply, future: asyncio.Future) -> None:
        self.pending = None
        result = _outcome(future)
        if not self.transport.is_closing():
            self._reply(reply, result)
        self.parse()

    def _reply(self, reply, result) -> bool:
        """Write one answer; False when the connection ends with it."""
        self._write(reply(result))
        if not isinstance(result, _Refused):
            return True
        if result.code == 400:
            self.server.wire["bad_requests"] += 1
        if result.resync:
            return True
        self.buffer.clear()
        self.transport.close()
        return False

    def _write(self, data: bytes) -> None:
        self.server.wire["bytes_out"] += len(data)
        self.transport.write(data)


class DistanceServer:
    """Serve distance queries for one backend over asyncio TCP.

    ``backend`` needs two things: an ``n`` attribute (vertex count,
    for request validation) and a ``query_batch(pairs)`` method
    returning the distances as a list or a float64 array (``pairs``
    arrives as a :class:`~repro.oracle.batch.PairColumns` block); the
    admission knobs are forwarded to the underlying
    :class:`AdmissionBatcher`.  ``max_pending_pairs`` also bounds one
    request: a frame announcing more pairs, or a JSON line longer than
    :data:`LINE_BYTES_PER_PAIR` times it, is refused unread.
    ``port=0`` binds an ephemeral port — read the real one back from
    :attr:`address` after :meth:`start`.
    """

    def __init__(
        self,
        backend,
        *,
        host: str = DEFAULT_HOST,
        port: int = 0,
        max_batch_pairs: int = DEFAULT_MAX_BATCH_PAIRS,
        max_wait: float = DEFAULT_MAX_WAIT,
        max_pending_pairs: int = DEFAULT_MAX_PENDING_PAIRS,
    ) -> None:
        self.backend = backend
        self.n = backend.n
        self.host = host
        self.port = port
        self.batcher = AdmissionBatcher(
            backend.query_batch,
            max_batch_pairs=max_batch_pairs,
            max_wait=max_wait,
            max_pending_pairs=max_pending_pairs,
        )
        self.line_limit = max(1 << 16, LINE_BYTES_PER_PAIR * max_pending_pairs)
        #: Who speaks which codec, and how much: the ``wire`` block of
        #: ``{"op": "stats"}``.
        self.wire = {
            "frame_requests": 0,
            "json_requests": 0,
            "bad_requests": 0,
            "bytes_in": 0,
            "bytes_out": 0,
        }
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[_Connection] = set()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (real port once started)."""
        return self.host, self.port

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind the listening socket and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Connection(self), self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.address

    async def serve_forever(self) -> None:
        """Block serving until cancelled (``start`` must have run)."""
        if self._server is None:
            raise RuntimeError("server not started")
        await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting, fail the pending requests, end every connection.

        A request still pending is answered 503, and so is every
        request a connection has already sent; each connection then
        closes, and this returns once every one of them is gone.
        """
        if self._server is not None:
            self._server.close()
        await self.batcher.aclose()
        connections = list(self._connections)
        for connection in connections:  # no more requests: answer, then close
            connection.eof = True
            connection.transport.pause_reading()
            connection.parse()
        await asyncio.gather(*(c.lost for c in connections))
        if self._server is not None:
            # Last: from Python 3.12 on it also waits for the connections.
            await self._server.wait_closed()
            self._server = None

    def stats(self) -> dict:
        """Wire, batcher and kernel counters.

        ``kernel`` is :func:`repro.oracle.kernel.stats` of this process,
        which evaluates every batch, and, under ``view``,
        :func:`repro.oracle.kernel.view_info` of the served store's row
        cache.
        """
        return {
            "n": self.n,
            "wire": dict(self.wire),
            "batcher": self.batcher.stats(),
            "kernel": {
                **_kernel.stats(),
                "view": _kernel.view_info(
                    getattr(self.backend, "store", None)
                ),
            },
        }


class DistanceClient:
    """Minimal asyncio client: framed queries, JSON for everything else."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "DistanceClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=LINE_BYTES_PER_PAIR * DEFAULT_MAX_PENDING_PAIRS
        )
        return cls(reader, writer)

    async def request(self, payload: dict) -> dict:
        """One raw round trip: send a request object, read the reply.

        A payload whose ``"pairs"`` is a
        :class:`~repro.oracle.batch.PairColumns` block travels as a
        frame and is answered with one, anything else as a JSON line.
        Either reply comes back as the same ``{"ok": ...}`` object;
        only a frame's distances hold ``inf`` where a line's hold
        ``None``.
        """
        pairs = payload.get("pairs")
        framed = isinstance(pairs, PairColumns)
        if framed:
            data = (
                _REQUEST.pack(MAGIC, len(pairs))
                + _pack("q", pairs.sources)
                + _pack("q", pairs.targets)
            )
        else:
            data = json.dumps(payload, separators=(",", ":")).encode() + b"\n"
        self._writer.write(data)
        await self._writer.drain()
        try:
            if not framed:
                line = await self._reader.readline()
                if not line:
                    raise ConnectionError("server closed the connection")
                return json.loads(line)
            magic, status, length = _REPLY.unpack(
                await self._reader.readexactly(_REPLY.size)
            )
            if magic != MAGIC:
                raise ConnectionError("reply is not a frame this client reads")
            body = await self._reader.readexactly(length if status else 8 * length)
        except asyncio.IncompleteReadError:
            raise ConnectionError("server closed the connection") from None
        if status:
            return _error(status, body.decode())
        return {"ok": True, "distances": _unpack("d", body, length).tolist()}

    async def query(self, pairs) -> list[float]:
        """Distances for ``pairs``; raises :class:`ServerError` on errors.

        Sent as a frame, so ``float('inf')`` for an unreachable pair
        arrives as itself.  Pairs that are not integers fitting int64
        raise ``ValueError`` before anything is sent.
        """
        response = await self.request({"pairs": PairColumns.from_pairs(pairs)})
        return _raise_for_error(response)["distances"]

    async def stats(self) -> dict:
        """The server's counters (wire, batcher and kernel)."""
        return _raise_for_error(await self.request({"op": "stats"}))["stats"]

    async def aclose(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


__all__ = (
    "DEFAULT_HOST",
    "LINE_BYTES_PER_PAIR",
    "MAGIC",
    "DistanceClient",
    "DistanceServer",
    "ServerError",
)
