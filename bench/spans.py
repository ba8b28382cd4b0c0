"""In-memory span tracer used by the traced pass (``--trace 1``).

Spans are recorded *from bench's own files*: :meth:`Tracer.wrap`
replaces an attribute of an instance, class or module with a wrapper
that times the call, and :meth:`Tracer.unwrap_all` puts the originals
back, so the program's source is never edited and the untraced pass
runs the program exactly as shipped.

A span is ``(id, parent, name, start, end, request)``.  The parent is
the span open in the same execution context (a ``ContextVar``, so
interleaved asyncio tasks and executor threads each see their own
stack); a caller that knows better — the server side of a socket —
passes ``parent=``/``request=`` explicitly.  Spans stay in memory
until :meth:`write` dumps them as JSON lines.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from contextvars import ContextVar

_current: ContextVar[int | None] = ContextVar("bench_span", default=None)
_request: ContextVar[int | None] = ContextVar("bench_request", default=None)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    def new_request(self) -> int:
        return next(self._requests)

    @contextmanager
    def span(self, name: str, parent: int | None = None, request=None):
        """Record one span around the ``with`` body; yields the span id."""
        sid = next(self._ids)
        if parent is None:
            parent = _current.get()
        if request is None:
            request = _request.get()
        tok_c = _current.set(sid)
        tok_r = _request.set(request)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            _current.reset(tok_c)
            _request.reset(tok_r)
            self.spans.append((sid, parent, name, start, end, request))

    def record(self, name: str, start, end, parent, request) -> None:
        """Append a span whose interval the caller measured itself."""
        self.spans.append((next(self._ids), parent, name, start, end, request))

    @staticmethod
    def current_request() -> int | None:
        """The request id of the span open in this context, if any."""
        return _request.get()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``."""
        original = getattr(owner, attr)
        span = self.span

        if asyncio.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                with span(name):
                    return await original(*args, **kwargs)

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                with span(name):
                    return original(*args, **kwargs)

        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` until :meth:`unwrap_all`."""
        # An attribute the owner only inherited (instance from class,
        # class from base) is restored by deleting the shadow.
        shadow = attr not in vars(owner)
        original = None if shadow else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------
    def since(self, mark: int) -> list[tuple]:
        """Spans recorded after ``mark = len(tracer.spans)`` was taken."""
        return self.spans[mark:]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, request in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "request": request,
                        },
                        separators=(",", ":"),
                    )
                    + "\n"
                )


def durations(spans, name: str) -> list[float]:
    return [end - start for _, _, n, start, end, _ in spans if n == name]


def by_request(spans) -> dict[int, dict[str, tuple]]:
    """``request id -> {span name -> span}`` (last span of a name wins)."""
    out: dict[int, dict[str, tuple]] = defaultdict(dict)
    for span in spans:
        if span[5] is not None:
            out[span[5]][span[2]] = span
    return out


def children(spans) -> dict[int, list[tuple]]:
    out: dict[int, list[tuple]] = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            out[span[1]].append(span)
    return out


def span_cost(samples: int = 20_000) -> float:
    """Seconds one empty span costs (calibration for the report)."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with tracer.span("calibrate"):
            pass
    return (time.perf_counter() - start) / samples
