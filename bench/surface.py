"""The one bench module that names ``repro`` APIs.

Every other file under ``bench/`` reaches the program through the
functions here, so a PR that renames, merges or deletes a layer edits
(at most) this file and never the workloads or the metric definitions.

Required layers are imported at module import: without them there is
nothing to measure, and ``run.py`` exits non-zero.  *Optional* layers —
the ones ROADMAP items 2-3 may delete (``ParallelOracle``, its
``route=`` knob, ``SharedMemoryFanout``, parallel ``jobs=`` builds) —
are resolved lazily: when one no longer imports or no longer accepts
the knob, the function returns ``None`` and the layer is appended to
:data:`ABSENT`, which the report prints as ``absent_layers``; the
metric reads 0 instead of failing the run.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from pathlib import Path

from repro import DistanceOracle, HopDoublingIndex, ShardedLabelStore
from repro.core.dynamic import DynamicHopDoublingIndex
from repro.core.flatstore import FlatLabelStore, load_store
from repro.core.quantized import QuantizedLabelStore
from repro.graphs import generators, traversal
from repro.graphs.digraph import Graph
from repro.oracle import kernel
from repro.serve import DistanceClient, DistanceServer

#: Optional layers that did not resolve in this checkout.
ABSENT: list[str] = []

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _absent(layer: str) -> None:
    if layer not in ABSENT:
        ABSENT.append(layer)


# -- graphs ------------------------------------------------------------------
def ba_graph(n: int, m: int, seed: int) -> Graph:
    return generators.ba_graph(n, m=m, seed=seed)


def glp_graph(n: int, seed: int, directed: bool = False) -> Graph:
    return generators.glp_graph(n, seed=seed, directed=directed)


def graph_from_edges(n: int, edges, directed: bool = False) -> Graph:
    return Graph.from_edges(n, edges, directed=directed)


def graph_edges(graph: Graph) -> list[tuple[int, int]]:
    return [(u, v) for u, v, _ in graph.edges()]


def bfs_distances(graph: Graph, source: int) -> list[float]:
    """Ground truth for the correctness gate (unweighted graphs)."""
    return traversal.bfs_distances(graph, source)


# -- build -------------------------------------------------------------------
def build_index(graph: Graph):
    """The paper-default hybrid build on the fastest engine present."""
    try:
        return HopDoublingIndex.build(graph, engine="array")
    except (TypeError, ValueError):
        return HopDoublingIndex.build(graph)


def build_index_jobs(graph: Graph, jobs: int):
    """The same build fanned over ``jobs`` processes, if still offered."""
    try:
        return HopDoublingIndex.build(graph, engine="array", jobs=jobs)
    except (TypeError, ValueError):
        _absent("core.parallel_build")
        return None


def iteration_rounds(index) -> list[dict]:
    """Per-round counters of a build done in this process."""
    return [
        {
            "mode": it.mode,
            "elapsed": it.elapsed,
            "raw_generated": it.raw_generated,
            "distinct_generated": it.distinct_generated,
            "admitted": it.admitted,
            "survived": it.survived,
        }
        for it in index.iteration_stats
    ]


# -- stores and files --------------------------------------------------------
def pack_v2(index):
    return FlatLabelStore.from_index(index.labels)


def pack_v3(index):
    return QuantizedLabelStore.from_index(index.labels)


def save_store(store, path) -> int:
    store.save(path)
    return os.path.getsize(path)


def open_store(path):
    """Memory-map an index file of either array format."""
    return load_store(path, prefer_flat=True, use_mmap=True)


def open_oracle(path, cache_size: int | None = 0):
    """Serve an index file; ``cache_size=None`` keeps the default LRU."""
    if cache_size is None:
        return DistanceOracle.open(path, use_mmap=True)
    return DistanceOracle.open(path, use_mmap=True, cache_size=cache_size)


def ensure_kernel_views(store) -> None:
    kernel.ensure_sides(store)


def entries(store) -> int:
    return store.total_entries(include_trivial=True)


def label_lengths(store):
    """Per-vertex out-label lengths (numpy), from the public offsets."""
    import numpy as np

    return np.diff(np.asarray(store.out_offsets, dtype=np.int64))


def kernel_working_set_bytes(store) -> int:
    """Bytes one kernel pass can touch: keys + dists + offsets per side.

    Computed from public store attributes with the kernel's documented
    key-width rule (int32 while ``n * n`` fits, else int64).
    """
    key_bytes = 4 if store.n * store.n <= 0x7FFFFFFF else 8
    sides = 2 if store.directed else 1
    per_entry = key_bytes + store.out_dists.itemsize
    return sides * (entries(store) * per_entry + 8 * (store.n + 1))


# -- sharding and fan-out ----------------------------------------------------
def split_shards(store, shards: int):
    return ShardedLabelStore.split(store, shards)


def save_shards(sharded, path, fmt: str) -> None:
    sharded.save(path, format=fmt)


def open_shard_dir(path, workers: int, route: str | None = None):
    """Open a shard directory for batch serving, result cache off.

    Tries ``repro.ParallelOracle`` (``route=None`` keeps its default
    routing), then a plain oracle over the mmapped sharded store.  A
    pinned ``route`` that the program no longer offers returns None.
    """
    try:
        from repro import ParallelOracle
    except ImportError:
        _absent("oracle.parallel")
        if route not in (None, "inline"):
            return None
        return DistanceOracle(ShardedLabelStore.load(path, use_mmap=True), cache_size=0)
    if route is None:
        return ParallelOracle(path, workers=workers, cache_size=0)
    try:
        return ParallelOracle(path, workers=workers, cache_size=0, route=route)
    except (TypeError, ValueError):
        _absent("oracle.parallel.route")
        return None


def warm_shard_oracle(oracle) -> None:
    warm = getattr(oracle, "warmup", None)
    if warm is not None:
        warm()


def routed_inline(oracle) -> float:
    """1.0 when the default routing kept every batch so far in-process."""
    hits = getattr(oracle, "shard_hits", None)
    return 0.0 if hits and sum(hits) else 1.0


def open_shm_fanout(path, workers: int):
    """Shared-memory fan-out over a shard directory, if still present."""
    try:
        from repro.serve import SharedMemoryFanout, fanout_available
    except ImportError:
        _absent("serve.shm")
        return None
    if not fanout_available():
        _absent("serve.shm")
        return None
    return SharedMemoryFanout(
        ShardedLabelStore.load(path, use_mmap=True), workers=workers
    )


def close_shm_fanout(fanout) -> None:
    store = fanout.store
    fanout.close()
    store.close()


# -- dynamic updates ---------------------------------------------------------
def dynamic_from_store(store, graph: Graph):
    return DynamicHopDoublingIndex.from_store(store, graph=graph)


# -- serve tier --------------------------------------------------------------
def serve_command(index_path) -> tuple[list[str], dict]:
    """argv and environment of the server subprocess (default knobs)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    argv = [sys.executable, "-m", "repro", "serve", str(index_path)]
    return argv + ["--port", "0", "--workers", "1"], env


async def connect_client(host: str, port: int):
    return await DistanceClient.connect(host, port)


def in_process_server(backend):
    """A ``DistanceServer`` on the caller's loop (traced pass only)."""
    return DistanceServer(backend, port=0)


async def wire_probe(host: str, port: int, pairs) -> tuple[int, int, list]:
    """One raw protocol exchange: bytes sent, bytes received, distances."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        payload = {"pairs": [[s, t] for s, t in pairs]}
        line = json.dumps(payload, separators=(",", ":")).encode() + b"\n"
        writer.write(line)
        await writer.drain()
        reply = await reader.readline()
    finally:
        writer.close()
        await writer.wait_closed()
    return len(line), len(reply), json.loads(reply)["distances"]


def trace_targets(store) -> dict[str, tuple[object, str]]:
    """``span name -> (owner, attribute)`` for module/class-level wraps.

    Instance-level wraps (``oracle.query_batch`` …) are named where the
    instance is created; these are the ones that need the program's
    module or class objects.
    """
    return {
        "oracle.kernel.batch_eval": (kernel, "batch_eval"),
        "oracle.kernel.eval_arrays_s": (kernel, "batch_eval_arrays"),
        "core.flatstore.scalar_query_s": (type(store), "query"),
    }
