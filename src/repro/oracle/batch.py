"""Batched evaluation of distance queries over a label store.

A batch of ``(s, t)`` pairs is answered in three steps:

1. **dedupe** — identical pairs (after orientation normalisation on
   undirected stores, where ``dist(s, t) == dist(t, s)``) are
   evaluated once and fanned back out to every position;
2. **cache probe** — pairs already in the shared LRU are answered
   without touching the store;
3. **evaluation** — the remaining pairs go through the vectorized
   numpy kernel (:mod:`repro.oracle.kernel`) when the store exposes
   CSR arrays and numpy is importable, or otherwise through grouped
   merge joins: pairs are grouped by source vertex so a store that
   implements ``query_group`` (the CSR backend) builds each source's
   pivot dict once and probes every target through it; stores without
   the hook fall back to per-pair ``query``.

Results are bit-identical to calling ``store.query`` per pair
whichever path runs: every path computes the same minimum over the
same float64 sums, and the cache only ever stores values produced by
one of them.  The ``kernel`` knob ("auto"/"on"/"off") exists so
benchmarks can pin a path; "auto" is right everywhere else.

A batch that already *is* two int64 columns — a :class:`PairColumns`,
which is what the serve tier decodes every request into — skips steps
1 and 2 when there is no cache and goes to the kernel as it stands;
so does a list of tuples when there is no cache.  The kernel does its
own step 1 on the columns (one sort, one compare pass), so neither
shortcut evaluates a repeated pair twice.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator

try:  # numpy is an optional dependency of the serving stack
    import numpy as np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    np = None

from repro.core.labels import LabelStore
from repro.oracle.cache import LRUCache

_MISS = object()

#: Accepted values of the ``kernel`` knob.
KERNEL_MODES = ("auto", "on", "off")

#: Below this many unique pairs "auto" stays on the scalar path — the
#: kernel's fixed per-call cost (array setup, a sort, a dozen numpy
#: calls whatever the size) is larger than a handful of dict probes.
#: Purely a perf cutoff: both paths return bit-identical distances.
MIN_KERNEL_PAIRS = 8


def _use_kernel(store: LabelStore, kernel: str, num_pairs: int) -> bool:
    """Resolve the ``kernel`` knob for this store and batch."""
    if kernel not in KERNEL_MODES:
        raise ValueError(
            f"kernel must be one of {KERNEL_MODES}, got {kernel!r}"
        )
    if kernel == "off":
        return False
    from repro.oracle import kernel as _kernel

    if kernel == "on":
        if not _kernel.supports(store):
            raise ValueError(
                "kernel='on' but this store has no vectorized path "
                "(numpy missing, or a tuple-list backend)"
            )
        return True
    return num_pairs >= MIN_KERNEL_PAIRS and _kernel.supports(store)


def pair_key(store: LabelStore, s: int, t: int) -> tuple[int, int]:
    """Canonical cache/dedupe key for a pair on this store.

    Undirected stores answer ``(s, t)`` and ``(t, s)`` identically, so
    both orientations share one key.
    """
    if not store.directed and s > t:
        return t, s
    return s, t


class PairColumns:
    """A batch of ``(source, target)`` pairs held as two columns.

    ``sources[k]`` and ``targets[k]`` are pair ``k``.  With numpy the
    columns are contiguous int64 arrays — the form the kernel consumes
    and the wire carries, so a request decoded once is never rebuilt —
    and without it whatever integer sequences were passed in.  The
    block reads like the list of tuples it replaces (``len``, integer
    indexing, iteration), which keeps every scalar path working.
    """

    __slots__ = ("sources", "targets")

    def __init__(self, sources, targets) -> None:
        if np is not None:
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

        Raises ``ValueError`` for anything else: wrong arity, values
        that are not integers or do not fit int64.
        """
        if isinstance(pairs, cls):
            return pairs
        try:
            columns = tuple(zip(*pairs, strict=True)) or ((), ())
            if len(columns) != 2:
                raise ValueError(f"{len(columns)} values per pair")
            return cls(*columns)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(
                f"pairs must be (source, target) int64 pairs: {exc}"
            ) from None

    @classmethod
    def concat(cls, blocks) -> "PairColumns":
        """One block holding every pair of ``blocks``, in order."""
        blocks = [cls.from_pairs(block) for block in blocks]
        sources = [block.sources for block in blocks]
        targets = [block.targets for block in blocks]
        if np is None:
            flat = chain.from_iterable
            return cls(list(flat(sources)), list(flat(targets)))
        return cls(np.concatenate(sources), np.concatenate(targets))

    def first_outside(self, n: int) -> tuple[int, int] | None:
        """The first pair with a vertex outside ``[0, n)``, if any."""
        if np is None:
            return next(
                (p for p in self if not (0 <= p[0] < n and 0 <= p[1] < n)),
                None,
            )
        S, T = self.sources, self.targets
        bad = (S < 0) | (S >= n) | (T < 0) | (T >= n)
        return self[int(bad.argmax())] if bad.any() else None

    def __len__(self) -> int:
        return len(self.sources)

    def __getitem__(self, k: int) -> tuple[int, int]:
        return int(self.sources[k]), int(self.targets[k])

    def __iter__(self) -> Iterator[tuple[int, int]]:
        if np is None:
            return zip(self.sources, self.targets)
        return zip(self.sources.tolist(), self.targets.tolist())

    def __repr__(self) -> str:
        return f"PairColumns({len(self)} pairs)"


def evaluate_batch(
    store: LabelStore,
    pairs: Iterable[tuple[int, int]],
    cache: LRUCache | None = None,
    kernel: str = "auto",
) -> list[float]:
    """Distances for every pair, in input order.

    A list — except for :class:`PairColumns` answered straight by the
    kernel (numpy present, no cache), which come back as the kernel's
    float64 array: the serve tier writes it to the socket as it is.
    """
    if (
        isinstance(pairs, PairColumns)
        and np is not None
        and cache is None
        and _use_kernel(store, kernel, len(pairs))
    ):
        from repro.oracle import kernel as _kernel

        return _kernel.batch_eval_arrays(store, pairs.sources, pairs.targets)
    pairs = list(pairs)
    if cache is None and _use_kernel(store, kernel, len(pairs)):
        # No cache to probe or fill: hand the raw batch straight to
        # the kernel, skipping the per-pair Python dedupe loop.  The
        # kernel sorts by (source, target) itself and evaluates each
        # distinct pair once, so repeats cost a compare, not a join.
        from repro.oracle import kernel as _kernel

        return _kernel.batch_eval(store, pairs)
    results: list[float] = [0.0] * len(pairs)
    # key -> positions in `pairs` still awaiting a distance.  The
    # cache is probed once per *unique* key so repeated pairs in one
    # batch count as a single miss, not one per occurrence.
    pending: dict[tuple[int, int], list[int]] = {}
    for pos, (s, t) in enumerate(pairs):
        key = pair_key(store, s, t)
        positions = pending.get(key)
        if positions is not None:
            positions.append(pos)
            continue
        if cache is not None:
            hit = cache.get(key, _MISS)
            if hit is not _MISS:
                results[pos] = hit
                continue
        pending[key] = [pos]

    if not pending:
        return results

    if _use_kernel(store, kernel, len(pending)):
        from repro.oracle import kernel as _kernel

        keys = list(pending)
        for key, d in zip(keys, _kernel.batch_eval(store, keys)):
            if cache is not None:
                cache.put(key, d)
            for pos in pending[key]:
                results[pos] = d
        return results

    by_source: dict[int, list[int]] = {}
    for s, t in pending:
        by_source.setdefault(s, []).append(t)

    query_group = getattr(store, "query_group", None)
    for s, targets in by_source.items():
        if query_group is not None:
            distances = query_group(s, targets)
        else:
            distances = [store.query(s, t) for t in targets]
        for t, d in zip(targets, distances):
            key = pair_key(store, s, t)
            if cache is not None:
                cache.put(key, d)
            for pos in pending[key]:
                results[pos] = d
    return results


def read_pair_file(path) -> list[tuple[int, int]]:
    """Parse a batch workload file: one ``s t`` pair per line.

    Blank lines and ``#``/``%`` comments (whole-line or inline) are
    skipped, and ``.gz`` paths are decompressed transparently, so
    workload files mix freely with edge-list tooling.  Raises
    ``ValueError`` on malformed lines.
    """
    from repro.graphs.io import _open_text

    out: list[tuple[int, int]] = []
    with _open_text(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].split("%", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 's t', got {line.strip()!r}"
                )
            try:
                out.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: expected 's t', got {line.strip()!r}"
                ) from exc
    return out
