"""External merge sort with Aggarwal-Vitter cost accounting.

Used by :class:`~paper.io_sim.external_labeling.ExternalLabelingBuilder`
between iterations ("prev (u→v) are sorted by u in file...").  The
implementation genuinely forms memory-sized runs and k-way merges them
— on the memory backend this is slower than calling ``list.sort`` but
it exercises and charges exactly the access pattern the paper costs:
run formation reads+writes everything once, then each merge pass does
so again with fan-in ``M/B``.
"""

from __future__ import annotations

import heapq
from typing import Callable

from paper.io_sim.blockfile import Entry
from paper.io_sim.diskmodel import DiskModel


def external_sort(
    entries: list[Entry],
    disk: DiskModel,
    key: Callable[[Entry], object] = lambda e: e[0],
) -> list[Entry]:
    """Sort ``entries`` with run-formation + k-way merge, charging I/O.

    Returns a new sorted list.  Inputs that fit in memory cost one
    read/write pair (run formation only, immediately final).
    """
    n = len(entries)
    if n == 0:
        return []
    memory = disk.memory_entries

    # Run formation: read everything, emit sorted runs of <= M entries.
    disk.charge_read(n)
    runs: list[list[Entry]] = []
    for lo in range(0, n, memory):
        runs.append(sorted(entries[lo : lo + memory], key=key))
    disk.charge_write(n)

    fan_in = max(2, memory // disk.block_entries)
    while len(runs) > 1:
        disk.charge_read(n)
        merged_runs: list[list[Entry]] = []
        for lo in range(0, len(runs), fan_in):
            group = runs[lo : lo + fan_in]
            merged_runs.append(list(heapq.merge(*group, key=key)))
        runs = merged_runs
        disk.charge_write(n)
    return runs[0]
