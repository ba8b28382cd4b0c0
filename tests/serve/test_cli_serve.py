"""`repro serve` CLI: parser surface, error paths, and a live round trip."""

import asyncio
import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def index_file(tmp_path):
    graph = tmp_path / "g.txt"
    index = tmp_path / "g.idx"
    assert main(["generate", "ba", "-n", "300", "--density", "2",
                 "-o", str(graph)]) == 0
    assert main(["build", str(graph), "-o", str(index),
                 "--format", "v2"]) == 0
    return index


def test_parser_defaults():
    args = build_parser().parse_args(["serve", "g.idx"])
    assert args.host == "127.0.0.1"
    assert args.port == 0
    assert args.workers is None
    assert args.max_batch == 8192
    assert args.max_wait_ms == 2.0
    assert args.max_pending == 262144
    assert args.kernel == "auto"


def test_serve_missing_index(tmp_path, capsys):
    rc = main(["serve", str(tmp_path / "nope.idx")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_serve_rejects_bad_workers(index_file, capsys):
    rc = main(["serve", str(index_file), "--workers", "0"])
    assert rc == 2
    assert "workers must be >= 1" in capsys.readouterr().err


def _serve_and_ask(index_file, workers, requests):
    """Start ``repro serve``; returns its banner and one reply per request."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(index_file),
         "--workers", str(workers), "--max-wait-ms", "1"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    try:
        ready = proc.stdout.readline().strip()
        assert "serving" in ready, ready
        port = int(ready.split(" on ", 1)[1].split(" ", 1)[0].split(":")[1])

        async def round_trips():
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            replies = []
            for request in requests:
                writer.write(json.dumps(request).encode() + b"\n")
                await writer.drain()
                replies.append(json.loads(await reader.readline()))
            writer.close()
            await writer.wait_closed()
            return replies

        return ready, asyncio.run(
            asyncio.wait_for(round_trips(), timeout=10)
        )
    finally:
        proc.terminate()
        proc.wait(timeout=10)


def test_serve_round_trip(index_file):
    _, (reply,) = _serve_and_ask(
        index_file, 1, [{"pairs": [[3, 3], [0, 1]], "id": 9}]
    )
    assert reply["ok"] is True
    assert reply["id"] == 9
    assert reply["distances"][0] == 0.0


def test_serve_two_workers_answer_a_small_index_without_the_pool(index_file):
    # The router, not --workers, decides: this index is cache-resident
    # and the request 16 pairs, so nothing is forked and nothing fans out.
    pairs = [[i, i + 1] for i in range(16)]
    ready, (reply, stats) = _serve_and_ask(
        index_file, 2, [{"pairs": pairs}, {"op": "stats"}]
    )
    assert "(inline evaluation, batch <= 8192 pairs" in ready
    assert reply["ok"] is True and len(reply["distances"]) == 16
    assert stats["stats"]["backend"] == {"workers": 2}
