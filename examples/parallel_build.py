"""Index construction across worker processes: ``jobs=N``.

``repro`` builds with one vectorized struct-of-arrays engine (numpy);
``jobs=N`` fans its candidate generation over N worker processes.  The
result is guaranteed bit-identical to the single-process build — the
same CSR label columns and the same iteration counters — so ``jobs`` is
purely a speed decision.  This script builds the same scale-free graph
both ways, checks the guarantee end to end, and prints the timings.

Run:  PYTHONPATH=src python examples/parallel_build.py
"""

import time

from repro import HopDoublingIndex
from repro.graphs.generators import ba_graph

N = 3_000


def build(jobs: int):
    t0 = time.perf_counter()
    index = HopDoublingIndex.build(graph, jobs=jobs)
    return index, time.perf_counter() - t0


graph = ba_graph(N, m=2, seed=42)
print(f"graph: {graph}")

serial, serial_seconds = build(jobs=1)
parallel, parallel_seconds = build(jobs=2)

for name, index, seconds in (
    ("1 job  ", serial, serial_seconds),
    ("2 jobs ", parallel, parallel_seconds),
):
    stats = index.stats()
    print(
        f"{name} {seconds:6.2f}s  "
        f"entries={stats.total_entries}  avg|label|={stats.avg_label_size:.1f}"
    )

# The guarantee: the same label columns and counters, whatever the jobs.
for column in ("out_offsets", "out_pivots", "out_dists"):
    assert bytes(getattr(parallel.labels, column)) == bytes(
        getattr(serial.labels, column)
    ), column
assert [
    (it.raw_generated, it.admitted, it.pruned) for it in parallel.iteration_stats
] == [(it.raw_generated, it.admitted, it.pruned) for it in serial.iteration_stats]

# And the same answers, spot-checked.
for s, t in [(0, 1), (5, 2_500), (17, 1_234), (2_999, 3)]:
    assert parallel.query(s, t) == serial.query(s, t)
print("bit-identical label columns, counters, and answers for 1 and 2 jobs")
