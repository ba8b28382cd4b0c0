"""Smoke test of the benchmark: ``python -m pytest bench/tests -q``.

Not part of the tier-1 ``testpaths``.  Every workload runs at the
``tiny`` scale (n = 500) in both passes and must emit every metric
``BENCHMARK.json`` declares for that pass, with its unit; the same seed
must reproduce the same inputs and a different seed different ones.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
CATALOG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in CATALOG["workloads"]]
WHY = {w["name"]: w["why"] for w in CATALOG["workloads"]}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def run_bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One tiny run: ``(last-line result, full report)``."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--trace", str(trace)]
    argv += ["--seconds", "0.5", "--scale", "tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads(
        (BENCH / "out" / f"report-{workload}-trace{trace}.json").read_text()
    )
    return result, report


@pytest.fixture(scope="module")
def runs():
    return {
        (w, trace): run_bench(w, seed=3, trace=trace)
        for w in WORKLOADS
        for trace in (0, 1)
    }


def test_catalog_names_and_units():
    metrics = CATALOG["end_to_end"] + CATALOG["per_layer"]
    names = [m["name"] for m in metrics] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", m["unit"]) for m in metrics)
    assert any(m["name"] == "setup_s" for m in CATALOG["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in CATALOG["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_is_emitted(runs, workload, trace):
    result, report = runs[workload, trace]
    tier = CATALOG["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in tier}
    for m in tier:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["absent_layers"] == []
    # workloads.py and BENCHMARK.json must tell the same story.
    assert report["why"] == WHY[workload]


def test_every_layer_metric_is_exercised_somewhere(runs):
    idle = set.intersection(*(set(runs[w, 1][1]["not_exercised"]) for w in WORKLOADS))
    assert idle == set()


def test_traced_serve_spans_nest(runs):
    trace = BENCH / "out" / "trace-serve-closed.jsonl"
    spans = [json.loads(line) for line in trace.read_text().splitlines()]
    by_id = {s["id"]: s for s in spans}
    chain = (
        "serve.batcher.evaluate_s",
        "serve.batcher.submit_s",
        "serve.client.request_s",
        "serve.client.query_s",
    )
    evaluated = [s for s in spans if s["name"] == chain[0]]
    assert evaluated
    for span in evaluated:
        for parent_name in chain[1:]:
            parent = by_id[span["parent"]]
            assert parent["name"] == parent_name
            assert parent["request"] == span["request"]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
            span = parent


def test_inputs_follow_the_seed(runs):
    for workload in WORKLOADS:
        first = runs[workload, 0][1]["input_sha256"]
        assert first == runs[workload, 1][1]["input_sha256"]
        other = run_bench(workload, seed=4, trace=0)[1]["input_sha256"]
        assert other["graph"] == first["graph"]  # topology is pinned
        changed = [k for k in first if other[k] != first[k]]
        assert changed, f"{workload}: a new seed changed no input"
