"""Batched evaluation of distance queries over a label store.

A batch of ``(s, t)`` pairs goes through the vectorized numpy kernel
(:mod:`repro.oracle.kernel`) when the store exposes CSR arrays and the
batch has at least :data:`MIN_KERNEL_PAIRS` pairs; the kernel
evaluates each distinct pair of the batch once.  Otherwise each pair
is one ``store.query`` call.

Results are bit-identical to calling ``store.query`` per pair
whichever path runs: every path computes the same minimum over the
same float64 sums.  Which path runs is decided from the store type and
the batch size alone; there is nothing to configure.  A batch that
already *is* two int64 columns — a :class:`PairColumns`, which is what
the serve tier decodes every request into — goes to the kernel as it
stands.  No batch touches the oracle's result cache, which serves
single-pair queries only.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from repro.core.labels import LabelStore
from repro.oracle import kernel as _kernel

#: Below this many pairs a batch stays on the scalar path — the
#: kernel's fixed per-call cost (a few dozen numpy calls whatever the
#: size) is larger than a handful of dict probes.  Purely a perf
#: cutoff: both paths return bit-identical distances.  Measured as
#: ``query_batch`` of a ``PairColumns`` block on a warm mmapped index,
#: scalar / kernel in µs (2-vCPU x86 box, one pinned core):
#:
#:   pairs        1        2        3        4        5        8
#:   BA-10k v2    12 / 49  22 / 48  30 / 49  40 / 50  48 / 49   75 / 51
#:   GLP-70k v3   18 / 50  37 / 51  53 / 50  70 / 52  86 / 53  142 / 55
MIN_KERNEL_PAIRS = 4


def _use_kernel(store: LabelStore, num_pairs: int) -> bool:
    """Whether this batch goes to the kernel rather than the scalar path."""
    return num_pairs >= MIN_KERNEL_PAIRS and _kernel.supports(store)


class PairColumns:
    """A batch of ``(source, target)`` pairs held as two columns.

    ``sources[k]`` and ``targets[k]`` are pair ``k``, held as int64
    arrays — the form the kernel consumes and the wire carries, so a
    request decoded once is never rebuilt.  The block reads like the
    list of tuples it replaces (``len``, integer indexing, iteration),
    which keeps every scalar path working.
    """

    __slots__ = ("sources", "targets")

    def __init__(self, sources, targets) -> None:
        sources = np.asarray(sources, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if len(sources) != len(targets):
            raise ValueError(
                f"{len(sources)} sources against {len(targets)} targets"
            )
        self.sources = sources
        self.targets = targets

    @classmethod
    def from_pairs(cls, pairs) -> "PairColumns":
        """Columns of an iterable of ``(source, target)`` integer pairs.

        The one pairs-to-columns converter: the kernel's list path,
        the fork pool and the serve tier's client and JSON codec all
        go through it.  Raises ``ValueError`` on wrong arity and on
        values that do not convert to int64 (``None``, other objects,
        anything past int64).
        """
        if isinstance(pairs, cls):
            return pairs
        if not isinstance(pairs, (list, tuple)):
            pairs = list(pairs)
        try:
            arities = set(map(len, pairs)) - {2}
            if arities:
                raise ValueError(f"{arities.pop()} values in a pair")
            # ~2.8x faster than building the 2-D array, ~1.5x faster
            # than zipping the tuples into columns (1,024-20,000 pairs).
            flat = np.fromiter(
                chain.from_iterable(pairs), np.int64, 2 * len(pairs)
            ).reshape(-1, 2)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(
                f"pairs must be (source, target) int64 pairs: {exc}"
            ) from None
        return cls(flat[:, 0], flat[:, 1])

    @classmethod
    def concat(cls, blocks) -> "PairColumns":
        """One block holding every pair of ``blocks``, in order."""
        blocks = [cls.from_pairs(block) for block in blocks]
        return cls(
            np.concatenate([block.sources for block in blocks]),
            np.concatenate([block.targets for block in blocks]),
        )

    def first_outside(self, n: int) -> tuple[int, int] | None:
        """The first pair with a vertex outside ``[0, n)``, if any."""
        k = _kernel.first_outside(self.sources, self.targets, n)
        return None if k is None else self[k]

    def __len__(self) -> int:
        return len(self.sources)

    def __getitem__(self, k: int) -> tuple[int, int]:
        return int(self.sources[k]), int(self.targets[k])

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return zip(self.sources.tolist(), self.targets.tolist())

    def __repr__(self) -> str:
        return f"PairColumns({len(self)} pairs)"


def evaluate_batch(
    store: LabelStore, pairs: Iterable[tuple[int, int]]
) -> list[float]:
    """Distances for every pair, in input order.

    A list — except for :class:`PairColumns` answered by the kernel,
    which come back as the kernel's float64 array: the serve tier
    writes it to the socket as it is.
    """
    if not isinstance(pairs, PairColumns):
        pairs = list(pairs)
    if _use_kernel(store, len(pairs)):
        if isinstance(pairs, PairColumns):
            return _kernel.batch_eval_arrays(store, pairs.sources, pairs.targets)
        return _kernel.batch_eval(store, pairs)
    return [store.query(s, t) for s, t in PairColumns.from_pairs(pairs)]


def read_pair_file(path) -> list[tuple[int, int]]:
    """Parse a batch workload file: one ``s t`` pair of integer ids per
    line, read by the one text reader of :mod:`repro.graphs.io`.

    Raises ``ValueError`` on malformed lines.
    """
    from repro.graphs.io import read_records

    return read_records(path, "s t")
