"""Workload definitions and their seeded input generators.

A workload is one set of inputs plus the reason it exists.  Everything
random about the *traffic* — pair streams, endpoint popularity, replay
order of the held-out edges, request schedules, verification samples —
derives from the ``seed`` argument through :func:`rng`, so the same seed
always gives the same inputs (``input_sha256`` in the report proves it)
and a different seed gives different ones.

The graph *topology* of each workload is pinned (:data:`GRAPH_SEED`):
across generator seeds the label count of a 10k-vertex BA graph moves by
about +-9% and its build time by more, which is wider than every
regression bound in ``BENCHMARK.json`` — a benchmark whose index size
changes with the seed could not tell a 5% regression from a reseed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

#: Generator seed of every workload graph (see module docstring).
GRAPH_SEED = 7


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one scale; ``tiny`` exists for the smoke test."""

    lifecycle_build_n: int
    lifecycle_directed_n: int
    small_n: int  # BA graphs (resident, serve, update base)
    large_n: int
    held_out_edges: int
    update_batch: int
    batch_pairs: int
    batches: int
    cache_warm: int  # distinct Zipf batches before the cached phase
    cache_measured: int
    single_calls: int  # oracle.query calls per latency chunk
    single_chunks: int  # distinct chunks generated
    reads_after_write: int  # scalar reads timed after each update batch
    small_request: int
    large_request: int
    requests: int  # distinct requests per serve phase schedule
    shards: int
    verify_sources: int
    verify_targets: int
    min_builds: int
    min_segments: int
    min_passes: int


FULL = Sizes(
    lifecycle_build_n=20_000,
    lifecycle_directed_n=8_000,
    small_n=10_000,
    large_n=70_000,
    held_out_edges=1_000,
    update_batch=100,
    batch_pairs=20_000,
    batches=8,
    cache_warm=5,
    cache_measured=40,
    single_calls=4_000,
    single_chunks=50,
    reads_after_write=2_000,
    small_request=16,
    large_request=1_024,
    requests=256,
    shards=4,
    verify_sources=25,
    verify_targets=20,
    min_builds=3,
    min_segments=10,
    min_passes=20,
)

TINY = Sizes(
    lifecycle_build_n=500,
    lifecycle_directed_n=300,
    small_n=500,
    large_n=500,
    held_out_edges=40,
    update_batch=10,
    batch_pairs=500,
    batches=2,
    cache_warm=1,
    cache_measured=3,
    single_calls=500,
    single_chunks=2,
    reads_after_write=100,
    small_request=16,
    large_request=128,
    requests=16,
    shards=4,
    verify_sources=25,
    verify_targets=20,
    min_builds=1,
    min_segments=1,
    min_passes=2,
)

SCALES = {"full": FULL, "tiny": TINY}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "index-lifecycle",
            "write side: hybrid array build, pack/save/open v2+v3, and "
            "batched edge insertions beside reads (read-after-write)",
        ),
        Workload(
            "query-resident",
            "BA-10k v2 index that fits the cache and the dense-join table; "
            "uniform pairs, no result cache, no socket: the kernel alone",
        ),
        Workload(
            "query-large",
            "GLP-70k v3 index (int64 keys, sorted join, memory-bound) under "
            "Zipf endpoint popularity; exercises the LRU path and fan-out",
        ),
        Workload(
            "serve-closed",
            "BA-10k index behind the repro serve subprocess; closed loop of "
            "16-pair then 1,024-pair requests: JSON, asyncio and batcher",
        ),
    )
}


def rng(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, named stream)."""
    tag = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:4], "big")
    return np.random.default_rng([seed, tag])


def uniform_pairs(gen, n: int, count: int) -> list[tuple[int, int]]:
    """``count`` uniform pairs with ``s != t``."""
    s = gen.integers(0, n, size=count)
    t = (s + gen.integers(1, n, size=count)) % n
    return list(zip(s.tolist(), t.tolist()))


def zipf_pairs(gen, perm, count: int, a: float = 1.2) -> list[tuple[int, int]]:
    """``count`` pairs whose endpoints follow Zipf(a) popularity.

    Rank ``r`` maps to vertex ``perm[r - 1]`` — one fixed permutation
    per seed, so the popular vertices repeat across batches.
    """
    n = len(perm)
    out: list[tuple[int, int]] = []
    while len(out) < count:
        ranks = gen.zipf(a, size=3 * (count - len(out)) + 16)
        ranks = ranks[ranks <= n]
        half = len(ranks) // 2
        s = perm[ranks[:half] - 1]
        t = perm[ranks[half : 2 * half] - 1]
        keep = s != t
        out.extend(zip(s[keep].tolist(), t[keep].tolist()))
    return out[:count]


def held_out_stream(gen, edges, held: int):
    """Split a graph's edges into a base set and a replay stream.

    The *last* ``held`` edges of a BA graph are its most recent
    preferential attachments — genuine growth — and the seed decides
    the order they arrive in.
    """
    base, stream = edges[:-held], edges[-held:]
    order = gen.permutation(len(stream))
    return base, [stream[i] for i in order.tolist()]


def request_schedule(gen, n: int, size: int, count: int):
    """``count`` distinct requests of ``size`` uniform pairs each."""
    return [uniform_pairs(gen, n, size) for _ in range(count)]


def verify_sample(gen, n: int, sources: int, targets: int):
    """``sources`` BFS roots with ``targets`` destinations each."""
    roots = gen.choice(n, size=min(sources, n), replace=False).tolist()
    return [(root, gen.integers(0, n, size=targets).tolist()) for root in roots]


def digest(*parts) -> str:
    """SHA-256 over the generated inputs (lists of int tuples / ints)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(np.asarray(part, dtype=np.int64).tobytes())
    return h.hexdigest()
