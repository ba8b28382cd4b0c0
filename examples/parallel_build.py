"""Fast index construction: the array engine and multiprocess builds.

``repro`` ships two construction backends behind one knob:

* ``engine="dict"`` — the reference per-entry implementation;
* ``engine="array"`` — vectorized struct-of-arrays joins (numpy),
  several times faster, with ``jobs=N`` fanning candidate generation
  over worker processes.

They are guaranteed to produce bit-identical indexes and iteration
counters, so picking an engine is purely a speed decision.  This
script builds the same scale-free graph three ways, checks the
guarantee end to end, and prints the timings.

Run:  PYTHONPATH=src python examples/parallel_build.py
"""

import time

from repro import HopDoublingIndex
from repro.graphs.generators import ba_graph

N = 3_000


def build(engine: str, jobs: int = 1):
    t0 = time.perf_counter()
    index = HopDoublingIndex.build(graph, engine=engine, jobs=jobs)
    return index, time.perf_counter() - t0


graph = ba_graph(N, m=2, seed=42)
print(f"graph: {graph}")

reference, dict_seconds = build("dict")
vectorized, array_seconds = build("array")
parallel, parallel_seconds = build("array", jobs=2)

for name, index, seconds in (
    ("dict engine      ", reference, dict_seconds),
    ("array engine     ", vectorized, array_seconds),
    ("array + 2 jobs   ", parallel, parallel_seconds),
):
    stats = index.stats()
    print(
        f"{name} {seconds:6.2f}s  "
        f"entries={stats.total_entries}  avg|label|={stats.avg_label_size:.1f}"
    )
print(f"array-engine speedup: {dict_seconds / array_seconds:.1f}x")

# The guarantee: same entries, same counters, whatever the engine.
assert vectorized.labels.to_index().out_labels == reference.labels.to_index().out_labels
assert parallel.labels.to_index().out_labels == reference.labels.to_index().out_labels
ref_counters = [
    (it.raw_generated, it.admitted, it.pruned)
    for it in reference.iteration_stats
]
for other in (vectorized, parallel):
    assert [
        (it.raw_generated, it.admitted, it.pruned)
        for it in other.iteration_stats
    ] == ref_counters

# And same answers, spot-checked against each other.
for s, t in [(0, 1), (5, 2_500), (17, 1_234), (2_999, 3)]:
    assert vectorized.query(s, t) == reference.query(s, t)
print("bit-identical labels, counters, and answers across all engines")
