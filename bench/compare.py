#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``python3 bench/compare.py A B``.

``A`` and ``B`` are files written by ``bench/run.py --append FILE`` —
one full run report per line, any number of runs, workloads and seeds
per file.  For every bounded metric on every workload the table shows
both medians with their quartiles and a verdict:

``ok``          B's median is no worse than A's by more than the bound
``regressed``   it is worse by more than the bound
``unresolved``  A's own run-to-run spread (quartile distance over
                median) is wider than the bound, so the runs cannot say

Running it on two sets of runs of the *same* code is the A/A check.
Bounds come from ``BENCHMARK.json``; the user-visible numbers that only
one workload has (:data:`EXTRA_BOUNDS`) are judged the same way.
Only untraced runs (``--trace 0``) are compared.  Exit status 1 when
any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Workload-specific user-visible metrics and their regression bounds.
EXTRA_BOUNDS = {
    "core.dynamic.update_edges_per_s": 0.15,
    "oracle.cache.batch_pairs_per_s": 0.15,
    "serve.server.large_req_p99_ms": 0.25,
}


def load_runs(path) -> dict[tuple[str, str], list[float]]:
    """``(workload, metric) -> values`` over the untraced runs of a file."""
    out: dict[tuple[str, str], list[float]] = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            report = json.loads(line)
            if report["trace"]:
                continue
            for name, metric in report["measured"].items():
                out[report["workload"], name].append(metric["value"])
    return out


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, bound: float, better: str) -> str:
    q1, med, q3 = quartiles(a)
    if med and (q3 - q1) / abs(med) > bound:
        return "unresolved"
    worse = statistics.median(b) - med
    if better == "higher":
        worse = -worse
    return "regressed" if med and worse / abs(med) > bound else "ok"


def compare(path_a, path_b) -> list[tuple]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        catalog = json.load(fh)
    better = {
        m["name"]: m["better"] for m in catalog["end_to_end"] + catalog["per_layer"]
    }
    bounds = {m["name"]: m["bound"] for m in catalog["end_to_end"]} | EXTRA_BOUNDS
    runs_a, runs_b = load_runs(path_a), load_runs(path_b)
    rows = []
    for (workload, name), a in sorted(runs_a.items()):
        b = runs_b.get((workload, name))
        if name not in bounds or not b:
            continue
        rows.append(
            (
                name,
                workload,
                quartiles(a),
                quartiles(b),
                bounds[name],
                verdict(a, b, bounds[name], better[name]),
            )
        )
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    rows = compare(*argv)
    print(
        f"{'metric':34s} {'workload':16s} {'A q1/median/q3':>34s} "
        f"{'B q1/median/q3':>34s} {'bound':>6s} verdict"
    )
    for name, workload, a, b, bound, result in rows:
        fa = "/".join(f"{v:.5g}" for v in a)
        fb = "/".join(f"{v:.5g}" for v in b)
        print(f"{name:34s} {workload:16s} {fa:>34s} {fb:>34s} {bound:6.2f} {result}")
    return 1 if any(row[-1] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
