"""Timing loops, order statistics and the per-run metric collector."""

from __future__ import annotations

import gc
import math
import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from spans import Tracer
from workloads import Sizes

_TICKS = os.sysconf("SC_CLK_TCK")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


#: Share of a run's samples taken as undisturbed (see :func:`quiet`).
QUIET = 0.1


def quiet(values) -> float:
    """The duration at the quietest tenth of a run's samples.

    On a shared host, interference only ever *adds* time, in bursts
    that last from milliseconds to minutes; the median of a run's
    samples therefore moves with how disturbed the run was (measured
    here: 11% run-to-run for a batch pass, 26% for a p99), while the
    10th percentile stays with the code (4% and 13%).  Nearest rank, so
    with ten samples or fewer this is the minimum.
    """
    return percentile(values, QUIET)


def top_percentile(count: int) -> float:
    """The highest of p99/p95/p90 with ten samples beyond it, else p50."""
    for q in (0.99, 0.95, 0.90):
        if count * (1 - q) >= 10:
            return q
    return 0.5


def timed(fn, *args):
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def repeat_for(seconds: float, min_count: int, fn, max_count=None) -> list[float]:
    """Call ``fn`` until ``seconds`` are used and ``min_count`` is met.

    A further call is only started when the previous call's duration
    still fits the budget, so a phase overruns by less than one call.
    Returns each call's duration.
    """
    out: list[float] = []
    start = time.perf_counter()
    while True:
        took, _ = timed(fn)
        out.append(took)
        if len(out) < min_count:
            continue
        if len(out) == max_count:
            return out
        if time.perf_counter() - start + took > seconds:
            return out


@dataclass
class Task:
    """One kind of measured unit for :func:`interleave`."""

    weight: float  # share of the window
    fn: object  # performs one unit and records its own samples
    min_count: int = 1
    max_count: int | None = None
    count: int = 0
    spent: float = 0.0


def interleave(seconds: float, tasks: list[Task]) -> None:
    """Run the tasks' units round-robin, by weight, for ``seconds``.

    Every metric's samples then span the whole window, so a slow
    second on a shared machine costs each metric a few samples
    instead of costing one metric most of its samples.  The window
    overruns by at most one unit, plus whatever ``min_count`` forces.
    """
    clock = time.perf_counter
    start = clock()
    while True:
        late = clock() - start >= seconds
        ready = [
            t
            for t in tasks
            if t.count != t.max_count and (not late or t.count < t.min_count)
        ]
        if not ready:
            return
        task = min(ready, key=lambda t: t.spent / t.weight)
        began = clock()
        task.fn()
        task.spent += clock() - began
        task.count += 1


class Calibration:
    """A fixed pure-Python kernel timed throughout a run.

    This host runs in speed modes that last for minutes and differ by
    about 20% for interpreter-bound code: the same pinned,
    single-threaded ``oracle.query`` loop reads 4.3 or 5.3 µs per call
    depending on when the run started — wider than any bound could
    tolerate.  A loop of plain dict work tracks those modes within
    about 2% (query latency over kernel time stayed in 3.55–3.70 across
    runs whose raw latency spanned 4.25–5.34 µs), so the in-process
    single-pair latencies are reported *at reference interpreter
    speed*: divided by ``factor`` = kernel time now / :data:`REFERENCE_S`.

    Only those metrics are scaled.  Measured on the same runs, scaling
    made numpy-bound batch rates no steadier and made syscall- and
    socket-bound times (set-up, the serve workload) *less* steady, so
    they stay as read.  The kernel touches nothing of the program, so a
    change to the program cannot move it.
    """

    #: Kernel time that defines factor 1.0 (typical of the 2-vCPU
    #: sandbox this benchmark was written on).
    REFERENCE_S = 0.0013

    def __init__(self) -> None:
        self.samples: list[float] = []

    def __call__(self) -> None:
        """Run the kernel once and keep its duration."""
        start = time.perf_counter()
        table: dict[int, int] = {}
        total = 0
        for i in range(20_000):
            table[i & 255] = i
            total += table.get(i & 127, 0)
        self.samples.append(time.perf_counter() - start)

    @property
    def factor(self) -> float:
        return quiet(self.samples) / self.REFERENCE_S


def settle() -> None:
    """Take the harness's own objects out of the garbage collector's way.

    The generated inputs are millions of small tuples; left tracked,
    every full collection the *program* triggers while it builds or
    answers would walk them, and the benchmark would be timing itself.
    """
    gc.collect()
    gc.freeze()


def time_calls(fn, pairs) -> list[float]:
    """Per-call durations of ``fn(s, t)`` over ``pairs``."""
    out = []
    clock = time.perf_counter
    for s, t in pairs:
        start = clock()
        fn(s, t)
        out.append(clock() - start)
    return out


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set of this process, or of ``pid`` via /proc."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds consumed so far by ``pid``."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


@dataclass
class Run:
    """Everything one workload run shares: knobs, sinks and counters."""

    seed: int
    seconds: float
    sizes: Sizes
    workdir: Path
    clients: int
    tracer: Tracer | None = None
    calibrate: Calibration = field(default_factory=Calibration)
    values: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    inputs: dict[str, str] = field(default_factory=dict)
    detail: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def put(self, name: str, value: float, samples: int | None = None) -> None:
        self.values[name] = float(value)
        if samples is not None:
            self.samples[name] = samples

    def put_median(self, name: str, values) -> None:
        self.put(name, median(values), len(values))

    def put_quiet(self, name: str, durations, scale: float = 1.0) -> None:
        self.put(name, quiet(durations) * scale, len(durations))

    def calibrate_burst(self, count: int = 40) -> None:
        """Sample the interpreter speed where no interleaving loop does."""
        for _ in range(count):
            self.calibrate()

    def put_latency(self, name: str, seconds: float, samples: int) -> None:
        """An in-process latency in µs, at reference interpreter speed."""
        self.detail[f"{name}.as_read"] = seconds * 1e6
        self.put(name, seconds * 1e6 / self.calibrate.factor, samples)

    def share(self, fraction: float) -> float:
        return self.seconds * fraction

    def ops(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, what: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(what)

    def check_equal(self, what: str, got, want) -> None:
        """Count ``len(want)`` verified answers; mismatches fail."""
        self.ops(len(want))
        bad = sum(1 for g, w in zip(got, want) if g != w)
        bad += abs(len(got) - len(want))
        if bad:
            self.fail(f"{what}: {bad} of {len(want)} answers differ", bad)
