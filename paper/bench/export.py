"""Text, CSV and JSON output for the table/figure drivers and perf gates.

:func:`render_table` lays a driver's rows out as an aligned monospace
table for eyeballing against the paper; downstream analysis (plotting
Figure 8/9/10, regression-tracking Table 6) wants machine-readable
output.  Every driver result object can be passed to
:func:`write_csv` with its headers and rows, and perf-gate benchmarks
record their measurements with :func:`write_bench_json` — CI uploads
the resulting ``BENCH_*.json`` files as workflow artifacts, so the
perf trajectory is recorded per commit.
"""

from __future__ import annotations

import csv
import json
import platform
from pathlib import Path
from typing import Iterable, Sequence


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render ``rows`` under ``headers`` as an aligned monospace table.

    Cells are stringified with ``str``; ``None`` renders as ``—`` which
    mirrors the paper's convention for methods that failed to finish.
    """
    str_rows = [["—" if cell is None else str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}: {row!r}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells)).rstrip()

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt_row(list(headers)))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt_row(row) for row in str_rows)
    return "\n".join(lines)


def write_csv(
    path: str | Path,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> int:
    """Write ``rows`` under ``headers``; returns the number of rows.

    ``None`` cells are written as empty strings (the paper's "—").
    """
    path = Path(path)
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(headers))
        for row in rows:
            writer.writerow(["" if c is None else c for c in row])
            count += 1
    return count


def write_bench_json(name: str, payload: dict, directory=None) -> Path:
    """Record a benchmark measurement as ``BENCH_<name>.json``.

    ``payload`` is any JSON-serialisable mapping of measurements; an
    ``environment`` block (python version, platform, machine) is added
    so numbers from different runners aren't compared blindly.  Files
    land in ``directory`` (default: the working directory, which in CI
    is the checkout root the artifact-upload step globs).
    """
    path = Path(directory or ".") / f"BENCH_{name}.json"
    document = {
        "benchmark": name,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "machine": platform.machine(),
        },
        **payload,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
