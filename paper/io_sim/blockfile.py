"""Block-granular label-entry files.

:class:`EntryFile` models one of the sorted entry files the paper's
Algorithm 2 juggles ("prev (u→v) are sorted by u in file", "old
(u2→u) sorted by u2", ...).  An entry is a 4-tuple
``(key, other, dist, hops)`` where ``key`` is the vertex the file is
sorted/grouped by.

All access paths charge the shared :class:`DiskModel`:

* :meth:`scan` — sequential read of the whole file;
* :meth:`range_scan` — read only the blocks overlapping a key range
  (binary-searched; this is the outer-loop "load the u-related label
  entries" of Algorithm 2);
* :meth:`chunks` — sequential read in buffer-sized pieces (the inner
  nested-loop of Algorithm 2 / Section 4.2);
* :meth:`replace_contents` — rewrite + re-sort (charged as an external
  sort when the data exceeds memory).

With ``backend="disk"`` the entries are actually kept in a binary file
on disk (struct-packed, re-read on every scan), proving the algorithms
only ever touch data through these counted operations; the default
``"memory"`` backend keeps the entries in a list, which is
behaviourally identical and much faster for benchmarks.
"""

from __future__ import annotations

import bisect
import struct
import tempfile
from pathlib import Path
from typing import Iterable, Iterator

from paper.io_sim.diskmodel import DiskModel

Entry = tuple[int, int, float, int]

_RECORD = struct.Struct("<iidi")


class _MemoryBackend:
    """Entries held in a Python list (default)."""

    def __init__(self) -> None:
        self._data: list[Entry] = []

    def write_all(self, entries: list[Entry]) -> None:
        self._data = list(entries)

    def read_all(self) -> list[Entry]:
        return self._data

    def read_slice(self, lo: int, hi: int) -> list[Entry]:
        return self._data[lo:hi]

    def __len__(self) -> int:
        return len(self._data)

    def close(self) -> None:
        self._data = []


class _DiskBackend:
    """Entries struct-packed into a real temporary file."""

    def __init__(self, directory: str | None = None) -> None:
        self._file = tempfile.NamedTemporaryFile(
            prefix="repro-entries-", suffix=".bin", dir=directory, delete=False
        )
        self._count = 0

    @property
    def path(self) -> Path:
        return Path(self._file.name)

    def write_all(self, entries: list[Entry]) -> None:
        self._file.seek(0)
        self._file.truncate()
        for e in entries:
            self._file.write(_RECORD.pack(*e))
        self._file.flush()
        self._count = len(entries)

    def read_all(self) -> list[Entry]:
        return self.read_slice(0, self._count)

    def read_slice(self, lo: int, hi: int) -> list[Entry]:
        lo = max(0, lo)
        hi = min(self._count, hi)
        if hi <= lo:
            return []
        self._file.seek(lo * _RECORD.size)
        raw = self._file.read((hi - lo) * _RECORD.size)
        out = []
        for off in range(0, len(raw), _RECORD.size):
            k, o, d, h = _RECORD.unpack_from(raw, off)
            out.append((k, o, d, h))
        return out

    def __len__(self) -> int:
        return self._count

    def close(self) -> None:
        name = self._file.name
        self._file.close()
        Path(name).unlink(missing_ok=True)


class EntryFile:
    """A sorted, block-read label-entry file with I/O accounting."""

    def __init__(
        self,
        name: str,
        disk: DiskModel,
        backend: str = "memory",
        backend_dir: str | None = None,
    ) -> None:
        self.name = name
        self.disk = disk
        if backend == "memory":
            self._backend: _MemoryBackend | _DiskBackend = _MemoryBackend()
        elif backend == "disk":
            self._backend = _DiskBackend(backend_dir)
        else:
            raise ValueError(f"unknown backend {backend!r}")
        self._keys: list[int] = []  # sorted keys for block-range location

    def __len__(self) -> int:
        return len(self._backend)

    # -- writing -----------------------------------------------------------
    def replace_contents(
        self, entries: Iterable[Entry], already_sorted: bool = False
    ) -> None:
        """Replace the file's contents, keeping it sorted by key.

        Charges an external sort when the data needs sorting and is
        larger than memory, otherwise a plain sequential write.
        """
        data = list(entries)
        if not already_sorted:
            data.sort(key=lambda e: e[0])
            if len(data) > self.disk.memory_entries:
                self.disk.charge_sort(len(data))
            else:
                self.disk.charge_write(len(data))
        else:
            self.disk.charge_write(len(data))
        self._backend.write_all(data)
        self._keys = [e[0] for e in data]

    # -- reading -----------------------------------------------------------
    def scan(self) -> list[Entry]:
        """Sequential read of the entire file (charged)."""
        self.disk.charge_read(len(self._backend))
        return self._backend.read_all()

    def chunks(self, chunk_entries: int) -> Iterator[list[Entry]]:
        """Sequential read in ``chunk_entries``-sized pieces (charged)."""
        if chunk_entries < 1:
            raise ValueError("chunk_entries must be >= 1")
        total = len(self._backend)
        for lo in range(0, total, chunk_entries):
            hi = min(total, lo + chunk_entries)
            self.disk.charge_read(hi - lo)
            yield self._backend.read_slice(lo, hi)

    def range_scan(self, key_lo: int, key_hi: int) -> list[Entry]:
        """Read every entry with ``key_lo <= key <= key_hi`` (charged).

        Only the blocks overlapping the range are charged, mirroring
        Algorithm 2's "load the u-related label entries into memory".
        """
        lo = bisect.bisect_left(self._keys, key_lo)
        hi = bisect.bisect_right(self._keys, key_hi)
        if hi <= lo:
            return []
        b = self.disk.block_entries
        first_block = lo // b
        last_block = (hi - 1) // b
        self.disk.charge_block_reads(last_block - first_block + 1)
        return self._backend.read_slice(lo, hi)

    def key_slice_bounds(self, key_lo: int, key_hi: int) -> tuple[int, int]:
        """Entry-index bounds of a key range (no charge; metadata only)."""
        return (
            bisect.bisect_left(self._keys, key_lo),
            bisect.bisect_right(self._keys, key_hi),
        )

    def close(self) -> None:
        """Release backing storage (deletes the temp file on disk mode)."""
        self._backend.close()
        self._keys = []

    def __repr__(self) -> str:
        return f"EntryFile({self.name!r}, {len(self)} entries)"
