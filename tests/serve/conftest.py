"""Fixtures shared by every serve test."""

import asyncio
import gc

import pytest


@pytest.fixture(autouse=True)
def loop_reports_nothing(monkeypatch):
    """Fail a test during which an event loop's exception handler fired.

    That is where asyncio reports what no caller sees: a callback or a
    protocol method that raised, a future whose exception was never
    retrieved.  The handler still runs, so the report is printed too.
    """
    fired = []
    handle = asyncio.BaseEventLoop.call_exception_handler

    def call_exception_handler(loop, context):
        fired.append(context)
        handle(loop, context)

    monkeypatch.setattr(
        asyncio.BaseEventLoop, "call_exception_handler", call_exception_handler
    )
    yield
    gc.collect()  # an unretrieved exception is reported when its future dies
    assert not fired, fired
