#!/usr/bin/env python3
"""The layered benchmark: ``python3 bench/run.py --workload NAME ...``.

One command runs a workload, checks every answer it received against
ground truth, prints each metric by name with its unit, and ends with
one JSON line (``correct``, ``attempted``, ``failed``, ``metrics``).
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``
measured with tracing off; ``--trace 1`` runs the traced pass and
reports the per-layer metrics.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(ROOT / "src"))

try:
    import lifecycle
    import query
    import serve
    import surface
    import workloads
    from measure import Run, peak_rss_mb
    from spans import Tracer, span_cost
except ImportError as exc:  # a checkout without the program: nothing to run
    sys.exit(f"bench: cannot import the program under {ROOT / 'src'}: {exc}")


def load_catalog() -> dict:
    """``BENCHMARK.json`` — the one place metric names and units live."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, args, catalog: dict) -> dict:
    """Run one workload and return its full report."""
    scenarios = {
        "index-lifecycle": lifecycle.run,
        "query-resident": query.run,
        "query-large": query.run,
        "serve-closed": serve.run,
    }
    workdir = OUT_DIR / "work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(
        seed=args.seed,
        seconds=args.seconds,
        sizes=workloads.SCALES[args.scale],
        workdir=workdir,
        clients=min(os.cpu_count() or 1, 4),
        tracer=Tracer() if args.trace else None,
    )
    started = time.perf_counter()
    try:
        scenarios[name](run, name)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if "peak_rss_mb" not in run.values:
        run.put("peak_rss_mb", peak_rss_mb())
    if not run.calibrate.samples:
        run.calibrate_burst()
    run.put("bench.host.speed_factor", run.calibrate.factor)
    if run.tracer is not None:
        run.put("bench.trace.spans", len(run.tracer.spans))
        run.put("bench.trace.span_cost_us", span_cost() * 1e6)
        run.tracer.write(OUT_DIR / f"trace-{name}.jsonl")

    units = {m["name"]: m["unit"] for m in catalog["end_to_end"] + catalog["per_layer"]}
    unknown = sorted(set(run.values) - set(units))
    if unknown:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {unknown}")
    tier = "per_layer" if args.trace else "end_to_end"
    declared = [m["name"] for m in catalog[tier]]
    missing = [m for m in declared if m not in run.values]
    if missing and tier == "end_to_end":
        raise SystemExit(f"{name} did not measure {missing}")
    # A per-layer metric this workload does not exercise (another
    # workload's layer, or a layer the program no longer has) reads 0.
    metrics = {m: {"value": run.values.get(m, 0.0), "unit": units[m]} for m in declared}
    report = {
        "workload": name,
        "why": workloads.WORKLOADS[name].why,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "clients": run.clients,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "wall_s": time.perf_counter() - started,
        "input_sha256": run.inputs,
        "correct": run.failed == 0,
        "ops_attempted": run.attempted,
        "ops_failed": run.failed,
        "failures": run.failures,
        "absent_layers": list(surface.ABSENT),
        "not_exercised": missing,
        "measured": {
            m: {"value": v, "unit": units[m], "samples": run.samples.get(m)}
            for m, v in sorted(run.values.items())
        },
        "detail": run.detail,
        "result": {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": metrics,
        },
    }
    return report


def print_report(report: dict) -> None:
    print(
        f"# {report['workload']} (seed {report['seed']}, "
        f"trace {report['trace']}): {report['why']}"
    )
    for name, m in report["measured"].items():
        samples = f"  n={m['samples']}" if m["samples"] else ""
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}{samples}")
    print(
        f"ops_attempted {report['ops_attempted']}  "
        f"ops_failed {report['ops_failed']}  "
        f"absent_layers {report['absent_layers']}"
    )
    for failure in report["failures"]:
        print(f"FAILED: {failure}")


def main(argv=None) -> int:
    catalog = load_catalog()
    names = [w["name"] for w in catalog["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    seconds = float(catalog["run_seconds"])
    parser.add_argument("--seconds", type=float, default=seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny = the smoke test's n=500 inputs",
    )
    parser.add_argument(
        "--append",
        metavar="FILE",
        help="also append each full report to FILE as one JSON line "
        "(the input of bench/compare.py)",
    )
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    if not args.trace:
        # The gated pass runs on one core, the server subprocess too
        # (children inherit it): every phase needs at most one core's
        # worth of time, and a pinned run is at the mercy neither of the
        # scheduler's placement nor of how much of a second core a
        # shared host grants this minute.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    ok = True
    for name in names if args.workload == "all" else [args.workload]:
        report = run_workload(name, args, catalog)
        ok = ok and report["correct"]
        out = OUT_DIR / f"report-{name}-trace{args.trace}.json"
        out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
        if args.append:
            with open(args.append, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(report) + "\n")
        print_report(report)
        print(json.dumps(report["result"]), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
