"""``query-resident`` and ``query-large``: in-process reads of one index.

Both workloads run the same phases over different inputs (graph, file
format, pair distribution), which is the point: the same kernel and
oracle layers, once cache-resident with int32 keys and the dense join,
once memory-bound with int64 keys, the sorted join and v3 decode.

Untraced pass (``--trace 0``): batch rate with the result cache off,
single-pair latency and (large only) the default-LRU batch path under
Zipf traffic — one process, one busy core, phases interleaved.
Traced pass (``--trace 1``): a short untraced baseline, then the same
calls with spans around ``query_batch`` → ``kernel.batch_eval`` →
``kernel.batch_eval_arrays`` and ``oracle.query`` → ``store.query``,
then one timed look at every route over the shard directory (these
fork worker pools, which is why they stay out of the untraced pass).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

import numpy as np
import spans
import surface
import workloads
from measure import (
    Run,
    Task,
    interleave,
    median,
    percentile,
    quiet,
    repeat_for,
    settle,
    time_calls,
    timed,
    top_percentile,
)


@dataclass(frozen=True)
class QuerySpec:
    large: bool
    fmt: str  # index file format served


SPECS = {
    "query-resident": QuerySpec(large=False, fmt="v2"),
    "query-large": QuerySpec(large=True, fmt="v3"),
}


def _rate(pairs: int, seconds) -> float:
    return pairs / quiet(seconds)


def _cycle(items):
    """Endless round-robin over ``items``."""
    while True:
        yield from items


class _Inputs:
    def __init__(self, run: Run, spec: QuerySpec) -> None:
        sizes = run.sizes
        self.n = sizes.large_n if spec.large else sizes.small_n
        gen = workloads.rng(run.seed, "pairs")
        if spec.large:
            self.graph = surface.glp_graph(self.n, workloads.GRAPH_SEED)
            # Which vertices are popular is a property of the dataset,
            # pinned like the graph: a hub and a leaf at rank 1 differ
            # by tens of percent in work per pair.  The draws are seeded.
            popularity = workloads.rng(workloads.GRAPH_SEED, "popularity")
            perm = popularity.permutation(self.n)

            def draw(count):
                return workloads.zipf_pairs(gen, perm, count)

        else:
            self.graph = surface.ba_graph(self.n, 2, workloads.GRAPH_SEED)

            def draw(count):
                return workloads.uniform_pairs(gen, self.n, count)

        self.batches = [draw(sizes.batch_pairs) for _ in range(sizes.batches)]
        self.singles = [draw(sizes.single_calls) for _ in range(sizes.single_chunks)]
        cached = sizes.cache_warm + sizes.cache_measured if spec.large else 0
        self.cached = [draw(sizes.batch_pairs) for _ in range(cached)]
        self.verify = workloads.verify_sample(
            workloads.rng(run.seed, "verify"),
            self.n,
            sizes.verify_sources,
            sizes.verify_targets,
        )
        run.inputs["graph"] = workloads.digest(surface.graph_edges(self.graph))
        run.inputs["pairs"] = workloads.digest(
            *self.batches, *self.singles, *self.cached
        )
        run.inputs["verify"] = workloads.digest(
            [[root, *targets] for root, targets in self.verify]
        )
        settle()


class _Served:
    """One set-up: every serving object the measured phases need."""

    def __init__(self, run: Run, spec: QuerySpec, index_path, shard_dir):
        took = {}
        took["open"], self.oracle = timed(surface.open_oracle, index_path, 0)
        took["views"], _ = timed(surface.ensure_kernel_views, self.oracle.store)
        took["shard_load"], self.sharded = timed(
            surface.open_shard_dir, shard_dir, run.clients
        )
        took["shard_warm"], _ = timed(surface.warm_shard_oracle, self.sharded)
        self.cached = None
        if spec.large:
            took["open_cached"], self.cached = timed(
                surface.open_oracle, index_path, None
            )
        self.took = took
        self.seconds = sum(took.values())

    def close(self) -> None:
        for oracle in (self.oracle, self.sharded, self.cached):
            if oracle is not None:
                oracle.close()


def run(run: Run, name: str) -> None:
    spec = SPECS[name]
    sizes = run.sizes
    inputs = _Inputs(run, spec)

    # -- prepare: build the index and write the files served ---------------
    build_s, index = timed(surface.build_index, inputs.graph)
    run.ops()
    run.put("core.engine.build_s", build_s)
    pack = surface.pack_v3 if spec.fmt == "v3" else surface.pack_v2
    store = pack(index)
    index_path = run.workdir / f"index.{spec.fmt}"
    run.put("index_bytes", surface.save_store(store, index_path))
    shard_dir = run.workdir / "shards"
    split_s, sharded = timed(surface.split_shards, store, sizes.shards)
    save_s, _ = timed(surface.save_shards, sharded, shard_dir, spec.fmt)
    run.put("oracle.sharding.split_s", split_s)
    run.put("oracle.sharding.save_s", save_s)
    del index, store, sharded
    gc.collect()

    # -- set-up: from files on disk to ready to answer, several times ------
    setups: list[_Served] = []

    def set_up():
        if setups:
            setups[-1].close()
        setups.append(_Served(run, spec, index_path, shard_dir))

    repeat_for(1.0, 3, set_up, max_count=9)
    served = setups[-1]
    run.put_quiet("setup_s", [s.seconds for s in setups])
    run.put_quiet("oracle.sharding.load_s", [s.took["shard_load"] for s in setups])
    run.put_quiet("serve.shm.warmup_s", [s.took["shard_warm"] for s in setups])

    try:
        # Warm every path once outside the timed regions.
        want = served.oracle.query_batch(inputs.batches[0])
        served.sharded.query_batch(inputs.batches[0])
        if run.tracer is None:
            _measure(run, inputs, served)
        else:
            _measure_traced(run, inputs, served, shard_dir)
        _verify(run, inputs, served, index_path, want)
    finally:
        served.close()


def _batch_passes(oracle, batches, seconds: float, min_count: int):
    """Durations of ``query_batch`` passes cycling through ``batches``."""
    cycle = _cycle(batches)
    return repeat_for(seconds, min_count, lambda: oracle.query_batch(next(cycle)))


def _warm_cache(run: Run, served: _Served, inputs: _Inputs):
    """The cached phase's warm-up; returns its measured batches.

    Distinct Zipf batches after a warm-up, so hits come from repeats
    across batches, never from replaying a batch.
    """
    warm = run.sizes.cache_warm
    for batch in inputs.cached[:warm]:
        served.cached.query_batch(batch)
    return inputs.cached[warm:]


def _hit_rate(before, after) -> float:
    hits = after.hits - before.hits
    probes = hits + after.misses - before.misses
    return hits / probes if probes else 0.0


def _measure(run: Run, inputs: _Inputs, served: _Served) -> None:
    """Untraced pass: every phase interleaved across the whole window."""
    sizes = run.sizes
    pairs = sizes.batch_pairs
    q = top_percentile(sizes.single_calls)
    batches, singles = _cycle(inputs.batches), _cycle(inputs.singles)
    batch_s, cached_s, p50s, p99s = [], [], [], []

    def batch_pass():
        batch_s.append(timed(served.oracle.query_batch, next(batches))[0])

    def single_chunk():
        # Percentiles per chunk, then the quiet chunks: a slow moment on
        # the machine moves some chunks' tails, not the reported tail.
        lat = time_calls(served.oracle.query, next(singles))
        p50s.append(percentile(lat, 0.5))
        p99s.append(percentile(lat, q))

    tasks = [
        Task(0.36, batch_pass, sizes.min_passes),
        Task(0.36, single_chunk, sizes.min_passes),
        Task(0.08, run.calibrate, sizes.min_passes),
    ]
    if served.cached is not None:
        cached = iter(_warm_cache(run, served, inputs))
        before = served.cached.cache_info()

        def cached_pass():
            cached_s.append(timed(served.cached.query_batch, next(cached))[0])

        count = sizes.cache_measured
        tasks.append(Task(0.2, cached_pass, count, count))
    interleave(run.seconds, tasks)

    calls = len(p50s) * sizes.single_calls
    run.ops(calls)
    run.put("batch_pairs_per_s", _rate(pairs, batch_s), len(batch_s))
    run.put_latency("small_op_p50_us", quiet(p50s), calls)
    run.put_latency("small_op_p99_us", quiet(p99s), calls)
    if served.cached is not None:
        after = served.cached.cache_info()
        run.put("oracle.cache.batch_pairs_per_s", _rate(pairs, cached_s), len(cached_s))
        run.put("oracle.cache.hit_rate", _hit_rate(before, after))


def _measure_traced(run: Run, inputs: _Inputs, served: _Served, shard_dir):
    sizes = run.sizes
    pairs = sizes.batch_pairs
    oracle = served.oracle

    # Untraced baseline of the same batches, and the default routing.
    base = _batch_passes(oracle, inputs.batches, run.share(0.1), sizes.min_passes)
    run.put("batch_pairs_per_s", _rate(pairs, base), len(base))
    times = _batch_passes(
        served.sharded, inputs.batches, run.share(0.1), sizes.min_passes
    )
    run.put("oracle.parallel.batch_pairs_per_s", _rate(pairs, times), len(times))
    run.put("oracle.parallel.routed_inline", surface.routed_inline(served.sharded))

    _trace_batches(run, inputs, oracle)
    _trace_singles(run, inputs, oracle)
    if served.cached is not None:
        _trace_cached(run, inputs, served)

    # Shape of the work the kernel did, from the store's public arrays.
    lens = surface.label_lengths(oracle.store)
    flat = np.asarray(inputs.batches[0], dtype=np.int64)
    gathered = np.minimum(lens[flat[:, 0]], lens[flat[:, 1]])
    run.put("oracle.kernel.gathered_entries_per_pair", float(gathered.mean()))
    run.put(
        "oracle.kernel.working_set_bytes",
        surface.kernel_working_set_bytes(oracle.store),
    )
    _time_routes(run, inputs, shard_dir)


def _trace_batches(run: Run, inputs: _Inputs, oracle) -> None:
    """Spans: ``query_batch`` ⊇ ``batch_eval`` ⊇ ``batch_eval_arrays``.

    Traced and untraced passes alternate, so the overhead is the
    difference between like moments, not between two stretches of a
    drifting host.
    """
    tracer = run.tracer
    targets = surface.trace_targets(oracle.store)
    cycle = _cycle(inputs.batches)
    base, traced = [], []

    def untraced_pass():
        base.append(timed(oracle.query_batch, next(cycle))[0])

    def traced_pass():
        for name in ("oracle.kernel.batch_eval", "oracle.kernel.eval_arrays_s"):
            tracer.wrap(*targets[name], name)
        tracer.wrap(oracle, "query_batch", "oracle.batch.query_batch")
        traced.append(timed(oracle.query_batch, next(cycle))[0])
        tracer.unwrap_all()

    mark = len(tracer.spans)
    passes = run.sizes.min_passes
    interleave(
        run.share(0.25), [Task(1, untraced_pass, passes), Task(1, traced_pass, passes)]
    )
    recorded = tracer.since(mark)
    kids = spans.children(recorded)
    to_array, to_list, self_s, eval_s = [], [], [], []
    for span in recorded:
        if span[2] != "oracle.batch.query_batch":
            continue
        (outer,) = kids[span[0]]
        (inner,) = kids[outer[0]]
        # The gaps before and after the array kernel are the list →
        # array and array → list conversions around it.
        self_s.append((span[4] - span[3]) - (outer[4] - outer[3]))
        to_array.append(inner[3] - outer[3])
        to_list.append(outer[4] - inner[4])
        eval_s.append(inner[4] - inner[3])
    pairs = run.sizes.batch_pairs
    run.put("batch_pairs_per_s", _rate(pairs, base), len(base))
    run.put_quiet("oracle.batch.self_s", self_s)
    run.put_quiet("oracle.batch.to_array_s", to_array)
    run.put_quiet("oracle.kernel.eval_arrays_s", eval_s)
    run.put_quiet("oracle.batch.to_list_s", to_list)
    run.put("oracle.kernel.pairs_per_s", _rate(pairs, eval_s), len(eval_s))
    run.put("bench.trace.overhead_share", quiet(traced) / quiet(base) - 1)


def _trace_singles(run: Run, inputs: _Inputs, oracle) -> None:
    """Spans: ``oracle.query`` ⊇ ``store.query``, one chunk of calls."""
    tracer = run.tracer
    name = "core.flatstore.scalar_query_s"
    tracer.wrap(*surface.trace_targets(oracle.store)[name], name)
    tracer.wrap(oracle, "query", "oracle.oracle.query")
    mark = len(tracer.spans)
    for s, t in inputs.singles[0]:
        oracle.query(s, t)
    tracer.unwrap_all()
    recorded = tracer.since(mark)
    scalar = spans.durations(recorded, name)
    outer = spans.durations(recorded, "oracle.oracle.query")
    run.put_quiet(name, scalar)
    run.put("oracle.oracle.query_self_s", quiet(outer) - quiet(scalar), len(outer))
    run.ops(len(outer))


def _trace_cached(run: Run, inputs: _Inputs, served: _Served) -> None:
    """Default-LRU batches: what the dedupe and cache-probe loop costs."""
    tracer = run.tracer
    targets = surface.trace_targets(served.cached.store)
    name = "oracle.kernel.batch_eval"
    tracer.wrap(*targets[name], name)
    tracer.wrap(served.cached, "query_batch", "oracle.batch.cached_query_batch")
    measured = _warm_cache(run, served, inputs)
    before = served.cached.cache_info()
    mark = len(tracer.spans)
    times = [timed(served.cached.query_batch, batch)[0] for batch in measured]
    tracer.unwrap_all()
    after = served.cached.cache_info()
    recorded = tracer.since(mark)
    kids = spans.children(recorded)
    cached_self = [
        (span[4] - span[3]) - sum(k[4] - k[3] for k in kids[span[0]])
        for span in recorded
        if span[2] == "oracle.batch.cached_query_batch"
    ]
    run.put_quiet("oracle.batch.cached_self_s", cached_self)
    run.put(
        "oracle.cache.batch_pairs_per_s",
        _rate(run.sizes.batch_pairs, times),
        len(times),
    )
    run.put("oracle.cache.hit_rate", _hit_rate(before, after))
    dup = [1 - len(set(batch)) / len(batch) for batch in inputs.cached]
    run.put("oracle.cache.dup_share", median(dup), len(dup))


def _time_routes(run: Run, inputs: _Inputs, shard_dir) -> None:
    """One timed look at every way to serve the shard directory."""
    pairs = run.sizes.batch_pairs
    share = run.share(0.08)
    passes = max(2, run.sizes.min_passes // 2)
    for metric, route in (
        ("oracle.sharding.inline_pairs_per_s", "inline"),
        ("oracle.parallel.fanout_pairs_per_s", "fanout"),
    ):
        routed = surface.open_shard_dir(shard_dir, run.clients, route)
        if routed is None:
            continue
        try:
            surface.warm_shard_oracle(routed)
            routed.query_batch(inputs.batches[0])
            with run.tracer.span(metric):
                times = _batch_passes(routed, inputs.batches, share, passes)
            run.put(metric, _rate(pairs, times), len(times))
        finally:
            routed.close()
    fanout = surface.open_shm_fanout(shard_dir, run.clients)
    if fanout is None:
        return
    try:
        fanout.warmup()
        fanout.query_batch(inputs.batches[0])
        with run.tracer.span("serve.shm.fanout_pairs_per_s"):
            times = _batch_passes(fanout, inputs.batches, share, passes)
        run.put("serve.shm.fanout_pairs_per_s", _rate(pairs, times), len(times))
        columns = _cycle(
            [np.asarray(b, dtype=np.int64).T.copy() for b in inputs.batches]
        )
        with run.tracer.span("serve.shm.arrays_pairs_per_s"):
            times = repeat_for(
                share, passes, lambda: fanout.query_batch_arrays(*next(columns))
            )
        run.put("serve.shm.arrays_pairs_per_s", _rate(pairs, times), len(times))
        hits = fanout.stats()["shard_hits"]
        run.put("serve.shm.shard_hit_skew", max(hits) / (sum(hits) / len(hits)))
    finally:
        surface.close_shm_fanout(fanout)


def _verify(run: Run, inputs: _Inputs, served: _Served, index_path, want):
    """Correctness gate: BFS ground truth and bit-identity across surfaces."""
    batch = inputs.batches[0]
    cached = served.cached or surface.open_oracle(index_path, None)
    try:
        surfaces = {
            "query": lambda ps: [served.oracle.query(s, t) for s, t in ps],
            "query_batch": served.oracle.query_batch,
            "query_batch_cached": cached.query_batch,
            "sharded": served.sharded.query_batch,
        }
        for label, answer in surfaces.items():
            run.check_equal(f"{label} vs query_batch", answer(batch), want)
        for root, targets in inputs.verify:
            truth = surface.bfs_distances(inputs.graph, root)
            pairs = [(root, t) for t in targets]
            expect = [truth[t] for t in targets]
            for label, answer in surfaces.items():
                run.check_equal(f"{label} vs BFS", answer(pairs), expect)
    finally:
        if cached is not served.cached:
            cached.close()
