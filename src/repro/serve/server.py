"""The asyncio distance server: newline-delimited JSON over TCP.

One :class:`DistanceServer` wraps any batch-capable backend — a
:class:`~repro.oracle.DistanceOracle` or the
:class:`~repro.oracle.parallel.ParallelOracle` that ``repro serve``
opens — behind an
:class:`~repro.serve.batcher.AdmissionBatcher`, so concurrent clients
are answered from coalesced kernel batches instead of one evaluator
call per request.

**Protocol** — one JSON object per line, in both directions:

* query: ``{"pairs": [[0, 5], [3, 9]], "id": 7}`` →
  ``{"ok": true, "id": 7, "distances": [2.0, null]}`` (``null``
  encodes an unreachable pair — JSON has no ``Infinity``; ``id`` is
  an optional client token echoed back verbatim);
* ``{"op": "ping"}`` → ``{"ok": true}``;
* ``{"op": "stats"}`` → ``{"ok": true, "stats": {...}}`` with batcher
  and backend counters;
* errors: ``{"ok": false, "code": 400 | 429 | 500 | 503,
  "error": "..."}`` — 400 for malformed requests (bad JSON, bad
  pairs, out-of-range vertices), 429 when admission backpressure
  rejects the request, 500 for evaluator failures, 503 during
  shutdown.

Requests are validated *before* admission, so a malformed request can
never poison the batch it would have ridden in.  Connections are
handled sequentially per line (responses come back in request order);
concurrency comes from many connections, which is exactly what the
admission window coalesces.
"""

from __future__ import annotations

import asyncio
import json
import math

from repro.serve.batcher import (
    DEFAULT_MAX_BATCH_PAIRS,
    DEFAULT_MAX_PENDING_PAIRS,
    DEFAULT_MAX_WAIT,
    AdmissionBatcher,
    ServeClosedError,
    ServeOverloadedError,
)

DEFAULT_HOST = "127.0.0.1"


class ServerError(RuntimeError):
    """A server-side error response, surfaced client-side.

    ``code`` carries the response's HTTP-style status (429 for
    backpressure rejections, 400 for malformed requests, ...).
    """

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _error(code: int, message: str, rid) -> dict:
    response = {"ok": False, "code": code, "error": message}
    if rid is not None:
        response["id"] = rid
    return response


def _validate_pairs(pairs, n: int) -> str | None:
    """Reject anything that is not a list of in-range [s, t] pairs."""
    if not isinstance(pairs, list):
        return "request needs a 'pairs' list of [source, target] pairs"
    for pair in pairs:
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in pair
            )
        ):
            return f"pair {pair!r} is not a [source, target] integer pair"
        s, t = pair
        if not (0 <= s < n and 0 <= t < n):
            return f"pair ({s}, {t}) out of range [0, {n})"
    return None


class DistanceServer:
    """Serve distance queries for one backend over asyncio TCP.

    ``backend`` needs two things: an ``n`` attribute (vertex count,
    for request validation) and a ``query_batch(pairs) -> list[float]``
    method; the admission knobs are forwarded to the underlying
    :class:`AdmissionBatcher`.  ``port=0`` binds an ephemeral port —
    read the real one back from :attr:`address` after :meth:`start`.
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
        self._server: asyncio.base_events.Server | None = None

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
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.address

    async def serve_forever(self) -> None:
        """Block serving until cancelled (``start`` must have run)."""
        if self._server is None:
            raise RuntimeError("server not started")
        await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting, then fail any still-pending requests."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.batcher.aclose()

    # -- request handling ----------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                response = await self._respond(line)
                writer.write(
                    json.dumps(response, separators=(",", ":")).encode()
                    + b"\n"
                )
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _respond(self, line: bytes) -> dict:
        try:
            request = json.loads(line)
        except json.JSONDecodeError:
            return _error(400, "request is not valid JSON", None)
        if not isinstance(request, dict):
            return _error(400, "request must be a JSON object", None)
        rid = request.get("id")
        op = request.get("op", "query")
        if op == "ping":
            return {"ok": True} if rid is None else {"ok": True, "id": rid}
        if op == "stats":
            return self._stats_response(rid)
        if op != "query":
            return _error(400, f"unknown op {op!r}", rid)
        pairs = request.get("pairs")
        problem = _validate_pairs(pairs, self.n)
        if problem is not None:
            return _error(400, problem, rid)
        try:
            distances = await self.batcher.submit(
                [(pair[0], pair[1]) for pair in pairs]
            )
        except ServeOverloadedError as exc:
            return _error(429, str(exc), rid)
        except ServeClosedError:
            return _error(503, "server shutting down", rid)
        except Exception as exc:  # evaluator failure
            return _error(500, f"{type(exc).__name__}: {exc}", rid)
        response = {
            "ok": True,
            "distances": [
                None if math.isinf(d) else d for d in distances
            ],
        }
        if rid is not None:
            response["id"] = rid
        return response

    def _stats_response(self, rid) -> dict:
        stats = {"n": self.n, "batcher": self.batcher.stats()}
        backend_stats = getattr(self.backend, "stats", None)
        if callable(backend_stats):
            try:
                backend = backend_stats()
            except TypeError:
                backend = None
            if isinstance(backend, dict):
                stats["backend"] = backend
        response = {"ok": True, "stats": stats}
        if rid is not None:
            response["id"] = rid
        return response


class DistanceClient:
    """Minimal asyncio client for the JSON-lines protocol."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "DistanceClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(self, payload: dict) -> dict:
        """One raw round trip: send a request object, read the reply."""
        self._writer.write(
            json.dumps(payload, separators=(",", ":")).encode() + b"\n"
        )
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    async def query(self, pairs) -> list[float]:
        """Distances for ``pairs``; raises :class:`ServerError` on errors.

        ``null`` distances decode back to ``float('inf')``, restoring
        the library convention for unreachable pairs.
        """
        response = await self.request(
            {"pairs": [[int(s), int(t)] for s, t in pairs]}
        )
        if not response.get("ok"):
            raise ServerError(
                int(response.get("code", 500)),
                str(response.get("error", "unknown server error")),
            )
        return [
            math.inf if d is None else float(d)
            for d in response["distances"]
        ]

    async def stats(self) -> dict:
        """The server's counters (batcher and backend)."""
        response = await self.request({"op": "stats"})
        if not response.get("ok"):
            raise ServerError(
                int(response.get("code", 500)),
                str(response.get("error", "unknown server error")),
            )
        return response["stats"]

    async def aclose(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


__all__ = (
    "DEFAULT_HOST",
    "DistanceClient",
    "DistanceServer",
    "ServerError",
)
