"""The asyncio distance server: binary frames and JSON lines over TCP.

One :class:`DistanceServer` wraps any batch-capable backend — a
:class:`~repro.oracle.DistanceOracle` or the
:class:`~repro.oracle.parallel.ParallelOracle` that ``repro serve``
opens — behind an
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
    batcher and backend counters;
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
it would have ridden in.  Connections are handled sequentially per
request (responses come back in request order, so requests may be
pipelined); concurrency comes from many connections, which is exactly
what the admission window coalesces.
"""

from __future__ import annotations

import asyncio
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
        #: The live connections' handler tasks and their streams.
        self._connections: dict[asyncio.Task, tuple] = {}

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (real port once started)."""
        return self.host, self.port

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind the listening socket and start accepting connections."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=self.line_limit
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

        A request still pending is answered 503; each connection then
        ends once the requests it already sent are answered, and this
        returns when every handler has finished — so nothing is left
        for the event loop to cancel (Python 3.11's
        ``Server.wait_closed`` does not wait for the connections).
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.batcher.aclose()
        for reader, writer in self._connections.values():
            writer.transport.pause_reading()
            reader.feed_eof()
        await asyncio.gather(*self._connections, return_exceptions=True)

    # -- request handling ----------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections[task] = reader, writer
        try:
            resync = True
            while resync:
                head = await reader.read(1)
                if not head:
                    break
                serve = (
                    self._serve_frame if head == MAGIC[:1] else self._serve_line
                )
                reply, resync = await serve(head, reader)
                self.wire["bytes_out"] += len(reply)
                writer.write(reply)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            finally:
                del self._connections[task]

    async def _answer(self, pairs: PairColumns):
        """Range check, admission, evaluation: the path both codecs share."""
        outside = pairs.first_outside(self.n)
        if outside is not None:
            raise _Refused(400, _range_error(outside, self.n))
        try:
            return await self.batcher.submit(pairs)
        except ServeOverloadedError as exc:
            raise _Refused(429, str(exc)) from None
        except ServeClosedError:
            raise _Refused(503, "server shutting down") from None
        except Exception as exc:  # evaluator failure
            raise _Refused(500, f"{type(exc).__name__}: {exc}") from None

    def _refuse(self, exc: _Refused) -> None:
        if exc.code == 400:
            self.wire["bad_requests"] += 1

    async def _read_frame(self, head: bytes, reader) -> PairColumns:
        """The frame codec's decoder (``head`` is the frame's first byte)."""
        limit = self.batcher.max_pending_pairs
        try:
            header = head + await reader.readexactly(_REQUEST.size - 1)
            magic, count = _REQUEST.unpack(header)
            if magic != MAGIC:
                raise _Refused(400, "bad frame magic", resync=False)
            if count > limit:
                raise _Refused(
                    400,
                    f"frame of {count} pairs exceeds the limit of {limit}",
                    resync=False,
                )
            body = await reader.readexactly(16 * count)
        except asyncio.IncompleteReadError:
            raise _Refused(400, "truncated frame", resync=False) from None
        self.wire["bytes_in"] += len(header) + len(body)
        return PairColumns(
            _unpack("q", body, count), _unpack("q", body, count, 8 * count)
        )

    async def _serve_frame(self, head: bytes, reader) -> tuple[bytes, bool]:
        """One framed request → its reply frame, and whether to go on."""
        self.wire["frame_requests"] += 1
        try:
            distances = await self._answer(await self._read_frame(head, reader))
        except _Refused as exc:
            self._refuse(exc)
            message = str(exc).encode()
            return (
                _REPLY.pack(MAGIC, exc.code, len(message)) + message,
                exc.resync,
            )
        return _REPLY.pack(MAGIC, 0, len(distances)) + _pack("d", distances), True

    async def _read_line(self, head: bytes, reader) -> dict:
        """The JSON codec's decoder, as far as the request object."""
        try:
            line = head if head == b"\n" else head + await reader.readline()
        except ValueError:  # no newline within the reader's limit
            raise _Refused(
                400, f"request line exceeds {self.line_limit} bytes", resync=False
            ) from None
        self.wire["bytes_in"] += len(line)
        try:
            request = json.loads(line)
        except (ValueError, RecursionError):  # not JSON, or not UTF-8
            raise _Refused(400, "request is not valid JSON") from None
        if not isinstance(request, dict):
            raise _Refused(400, "request must be a JSON object")
        return request

    async def _serve_line(self, head: bytes, reader) -> tuple[bytes, bool]:
        """One JSON request line → its reply line, and whether to go on."""
        self.wire["json_requests"] += 1
        rid = None
        try:
            request = await self._read_line(head, reader)
            rid = request.get("id")
            op = request.get("op", "query")
            if op == "ping":
                return _json_line({"ok": True}, rid), True
            if op == "stats":
                return _json_line({"ok": True, "stats": self.stats()}, rid), True
            if op != "query":
                raise _Refused(400, f"unknown op {op!r}")
            distances = await self._answer(
                _columns_from_json(request.get("pairs"), self.n)
            )
        except _Refused as exc:
            self._refuse(exc)
            return _json_line(_error(exc.code, str(exc)), rid), exc.resync
        tolist = getattr(distances, "tolist", None)  # a float64 array
        if tolist is not None:
            distances = tolist()
        distances = [None if math.isinf(d) else d for d in distances]
        return _json_line({"ok": True, "distances": distances}, rid), True

    def stats(self) -> dict:
        """Wire, batcher, kernel and (when it has any) backend counters.

        ``kernel`` is :func:`repro.oracle.kernel.stats` of this process
        (batches a fork pool evaluated are counted in its workers) and,
        under ``view``, :func:`repro.oracle.kernel.view_info` of the
        served store's row cache.
        """
        stats = {
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
        backend_stats = getattr(self.backend, "stats", None)
        if callable(backend_stats):
            try:
                backend = backend_stats()
            except TypeError:
                backend = None
            if isinstance(backend, dict):
                stats["backend"] = backend
        return stats


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
        frame, anything else as a JSON line.  Either reply comes back
        as the same ``{"ok": ...}`` object; only a frame's distances
        hold ``inf`` where a line's hold ``None``.
        """
        pairs = payload.get("pairs")
        if isinstance(pairs, PairColumns):
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
            head = await self._reader.read(1)
            if not head:
                raise ConnectionError("server closed the connection")
            if head != MAGIC[:1]:
                return json.loads(head + await self._reader.readline())
            magic, status, length = _REPLY.unpack(
                head + await self._reader.readexactly(_REPLY.size - 1)
            )
            if magic != MAGIC:
                raise ConnectionError("reply is not a frame this client reads")
            body = await self._reader.readexactly(length if status else 8 * length)
        except asyncio.IncompleteReadError:
            raise ConnectionError("server closed the connection") from None
        if status:
            return _error(status, body.decode())
        return {"ok": True, "distances": list(struct.unpack(f"<{length}d", body))}

    async def query(self, pairs) -> list[float]:
        """Distances for ``pairs``; raises :class:`ServerError` on errors.

        Sent as a frame, so ``float('inf')`` for an unreachable pair
        arrives as itself.  Pairs that are not integers fitting int64
        raise ``ValueError`` before anything is sent.
        """
        response = await self.request({"pairs": PairColumns.from_pairs(pairs)})
        return _raise_for_error(response)["distances"]

    async def stats(self) -> dict:
        """The server's counters (wire, batcher and backend)."""
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
