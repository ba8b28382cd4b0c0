#!/usr/bin/env python3
"""Append the latest reports to ``bench/history.jsonl``.

Run the benchmark (both ``--trace 0`` and ``--trace 1`` for every
workload), then ``python3 bench/history.py``: one JSON line is appended
holding the commit, the machine, and every metric of every report found
in ``bench/out/`` — the committed perf trajectory ROADMAP item 1 asks
for.  A single run on a shared machine is a data point, not a verdict;
use ``bench/compare.py`` over several runs before claiming anything.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def git(*args: str) -> str:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def src_lines() -> int:
    """Lines of program source — a first-class metric of this round."""
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in (ROOT / "src").rglob("*.py")
    )


def main() -> int:
    import numpy

    workloads: dict[str, dict[str, float]] = {}
    reports = sorted((BENCH_DIR / "out").glob("report-*.json"))
    if not reports:
        print("no reports under bench/out/; run bench/run.py first", file=sys.stderr)
        return 1
    for path in reports:
        report = json.loads(path.read_text(encoding="utf-8"))
        if not report["correct"]:
            print(f"{path.name}: run was not correct; not recorded", file=sys.stderr)
            return 1
        row = workloads.setdefault(report["workload"], {})
        for name, metric in report["measured"].items():
            # Untraced numbers win where both passes measured a metric.
            if name not in row or not report["trace"]:
                row[name] = metric["value"]
    entry = {
        "sha": git("rev-parse", "HEAD"),
        # Uncommitted changes on top of that commit (e.g. the PR itself).
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "date": datetime.date.today().isoformat(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": src_lines(),
        "workloads": workloads,
    }
    with open(BENCH_DIR / "history.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    print(f"recorded {len(reports)} reports for {entry['sha'][:12]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
