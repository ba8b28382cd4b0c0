"""External-memory substrate (Section 4 of the paper), simulated.

The paper's machine had 4 GB RAM and a SATA disk; its contribution is
an index construction whose memory footprint is bounded by ``M`` and
whose disk traffic follows the Aggarwal-Vitter model
(``scan(N) = Θ(N/B)`` with block size ``B``).  This package rebuilds
that setting on top of counted block I/O:

* :class:`DiskModel` — the (M, B) cost model with read/write counters;
* :class:`EntryFile` — a sorted file of label entries, readable only
  through block-granular, counted operations (optionally backed by a
  real on-disk file);
* :func:`external_sort` — merge-sort cost accounting;
* :class:`ExternalLabelingBuilder` — Algorithm 2's blocked nested-loop
  candidate generation and the Section 4.2 pruning loops, producing an
  index *bit-identical* to the in-memory builders while reporting the
  I/O each iteration incurred;
* :class:`DiskResidentIndex` — disk-resident querying: each query
  charges the blocks of the two labels it touches, regenerating the
  "Disk query time" column of Table 6.
"""

from paper.io_sim.diskmodel import DiskModel, IOStats
from paper.io_sim.blockfile import EntryFile
from paper.io_sim.external_sort import external_sort
from paper.io_sim.external_labeling import (
    ExternalBuildResult,
    ExternalLabelingBuilder,
)
from paper.io_sim.disk_index import DiskResidentIndex

__all__ = [
    "DiskModel",
    "IOStats",
    "EntryFile",
    "external_sort",
    "ExternalBuildResult",
    "ExternalLabelingBuilder",
    "DiskResidentIndex",
]
