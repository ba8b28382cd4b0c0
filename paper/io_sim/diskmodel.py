"""The Aggarwal-Vitter I/O cost model used throughout Section 4.

Conventions (Section 4 of the paper, following [6]):

* ``M`` — main-memory capacity, measured in label entries;
* ``B`` — disk block capacity, in label entries, with ``1 << B <= M/2``;
* ``scan(N) = ceil(N / B)`` block transfers;
* sorting ``N`` entries costs ``2 * ceil(N/B) * (1 + passes)`` where
  ``passes = ceil(log_{M/B}(max(1, N/M)))`` (run formation + merge
  passes, each reading and writing the data once).

:class:`DiskModel` carries the parameters and accumulates counters; all
file operations in :mod:`paper.io_sim` charge against one model
instance, so an experiment can read off exactly how many block I/Os an
index build or a query burst incurred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

DEFAULT_MEMORY_ENTRIES = 4096
DEFAULT_BLOCK_ENTRIES = 64


@dataclass
class IOStats:
    """A snapshot of I/O counters (block transfers)."""

    reads: int = 0
    writes: int = 0

    @property
    def total(self) -> int:
        return self.reads + self.writes

    def __sub__(self, other: "IOStats") -> "IOStats":
        return IOStats(self.reads - other.reads, self.writes - other.writes)

    def __str__(self) -> str:
        return f"reads={self.reads} writes={self.writes} total={self.total}"


class DiskModel:
    """I/O parameters plus running counters.

    ``memory_entries`` is ``M`` and ``block_entries`` is ``B``, both in
    label entries (an entry is ~10 bytes under the paper's convention,
    so the defaults model a deliberately small 40 KB memory against
    640-byte blocks — scaled down with the benchmark graphs exactly
    like the datasets themselves are).
    """

    def __init__(
        self,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
        block_entries: int = DEFAULT_BLOCK_ENTRIES,
    ) -> None:
        if block_entries < 1:
            raise ValueError(f"block_entries must be >= 1, got {block_entries}")
        if memory_entries < 2 * block_entries:
            raise ValueError(
                "memory must hold at least two blocks "
                f"(M={memory_entries}, B={block_entries})"
            )
        self.memory_entries = memory_entries
        self.block_entries = block_entries
        self.stats = IOStats()

    # -- primitive charges ------------------------------------------------
    def blocks(self, num_entries: int) -> int:
        """Blocks needed for ``num_entries`` entries: ``ceil(N/B)``."""
        return -(-num_entries // self.block_entries) if num_entries > 0 else 0

    def charge_read(self, num_entries: int) -> int:
        """Charge a sequential read of ``num_entries``; return blocks."""
        b = self.blocks(num_entries)
        self.stats.reads += b
        return b

    def charge_write(self, num_entries: int) -> int:
        """Charge a sequential write of ``num_entries``; return blocks."""
        b = self.blocks(num_entries)
        self.stats.writes += b
        return b

    def charge_block_reads(self, num_blocks: int) -> None:
        """Charge ``num_blocks`` direct block reads (random access)."""
        self.stats.reads += num_blocks

    # -- composite charges ---------------------------------------------------
    def sort_passes(self, num_entries: int) -> int:
        """Merge passes needed to sort ``num_entries`` externally."""
        if num_entries <= self.memory_entries:
            return 0
        fan_in = max(2, self.memory_entries // self.block_entries)
        runs = math.ceil(num_entries / self.memory_entries)
        return max(1, math.ceil(math.log(runs, fan_in)))

    def charge_sort(self, num_entries: int) -> int:
        """Charge an external merge sort of ``num_entries`` entries.

        Run formation reads + writes everything once; every merge pass
        does the same.  In-memory-sized inputs cost one read + write
        (run formation only).  Returns total blocks charged.
        """
        if num_entries == 0:
            return 0
        passes = 1 + self.sort_passes(num_entries)
        per_pass = self.blocks(num_entries)
        self.stats.reads += per_pass * passes
        self.stats.writes += per_pass * passes
        return 2 * per_pass * passes

    # -- reporting ---------------------------------------------------------------
    def snapshot(self) -> IOStats:
        """Copy of the current counters (use deltas to meter a phase)."""
        return IOStats(self.stats.reads, self.stats.writes)

    def reset(self) -> None:
        """Zero the counters."""
        self.stats = IOStats()

    def __repr__(self) -> str:
        return (
            f"DiskModel(M={self.memory_entries}, B={self.block_entries}, "
            f"{self.stats})"
        )
