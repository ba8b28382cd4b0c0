"""Disk-resident query evaluation (the "Disk query time" of Table 6).

The paper's index is disk-based: answering ``dist(s, t)`` reads two
label lists — ``Lout(s)`` and ``Lin(t)`` — each stored contiguously, so
the cost is one seek plus ``ceil(|label| / B)`` sequential blocks per
side.  :class:`DiskResidentIndex` lays any frozen
:class:`~repro.core.labels.LabelStore` backend out that way, charges
exactly those blocks per query, and converts block counts into simulated
latency with a configurable per-block cost (defaults approximating the
paper's 7200 RPM SATA disk: ~5 ms for the seek-dominated first block,
~0.1 ms per additional sequential block).
"""

from __future__ import annotations

from paper.io_sim.diskmodel import DiskModel
from paper.labels import merge_join_distance
from repro.core.labels import LabelStore

# Latency defaults (seconds): seek + rotational delay for the first
# block of a label, then sequential streaming for the rest.
DEFAULT_SEEK_SECONDS = 5e-3
DEFAULT_BLOCK_SECONDS = 1e-4


class DiskResidentIndex:
    """Charges block reads for every query against a disk layout."""

    def __init__(
        self,
        index: LabelStore,
        disk: DiskModel | None = None,
        seek_seconds: float = DEFAULT_SEEK_SECONDS,
        block_seconds: float = DEFAULT_BLOCK_SECONDS,
    ) -> None:
        self.index = index
        self.disk = disk if disk is not None else DiskModel()
        self.seek_seconds = seek_seconds
        self.block_seconds = block_seconds
        self.queries = 0
        self.blocks_read = 0
        self.seeks = 0

    def query(self, s: int, t: int) -> float:
        """Exact distance, charging the two label reads."""
        self.queries += 1
        if s == t:
            return 0.0
        out_lab = self.index.out_label(s)
        in_lab = self.index.in_label(t)
        for lab in (out_lab, in_lab):
            blocks = max(1, self.disk.blocks(len(lab)))
            self.disk.charge_block_reads(blocks)
            self.blocks_read += blocks
            self.seeks += 1
        return merge_join_distance(out_lab, in_lab)

    # -- simulated latency -------------------------------------------------
    def simulated_seconds(self) -> float:
        """Total simulated disk time across all queries so far."""
        sequential = self.blocks_read - self.seeks
        return self.seeks * self.seek_seconds + sequential * self.block_seconds

    def avg_query_seconds(self) -> float:
        """Mean simulated disk time per query (the Table 6 column)."""
        if self.queries == 0:
            return 0.0
        return self.simulated_seconds() / self.queries

    def avg_blocks_per_query(self) -> float:
        """Mean blocks touched per query."""
        if self.queries == 0:
            return 0.0
        return self.blocks_read / self.queries

    def reset_counters(self) -> None:
        """Zero the per-query accounting (keeps the index)."""
        self.queries = 0
        self.blocks_read = 0
        self.seeks = 0
