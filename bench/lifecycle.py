"""``index-lifecycle``: the write side — build, files, live updates.

Set-up *is* the paper's indexing cost here: generate a GLP graph, build
it with the hybrid array engine, pack and write the v3 file, map it
back and build the kernel views — repeated, quietest repeat reported as
``setup_s`` (``index_bytes`` is that v3 file).

The measured window then replays the held-out BA edges in batches
through ``from_store → insert_edges → pop_label_delta → apply_updates``,
each batch followed by one bulk read (the first ``query_batch`` after a
write pays for the kernel-view rebuild: that is ``batch_pairs_per_s``
here) and a run of scalar reads over the staged overlay (``small_op_*``).

Traced pass: the build read through its per-round counters, the
directed and ``jobs=C`` twins, every pack/save/open step, and one
replay with a span per call.
"""

from __future__ import annotations

from contextlib import nullcontext

import surface
import workloads
from measure import (
    Run,
    percentile,
    quiet,
    repeat_for,
    settle,
    time_calls,
    timed,
    top_percentile,
)


class _Inputs:
    def __init__(self, run: Run) -> None:
        sizes = run.sizes
        n = sizes.small_n
        edges = surface.graph_edges(surface.ba_graph(n, 2, workloads.GRAPH_SEED))
        self.base_edges, self.stream = workloads.held_out_stream(
            workloads.rng(run.seed, "stream"), edges, sizes.held_out_edges
        )
        self.base = surface.graph_from_edges(n, self.base_edges)
        gen = workloads.rng(run.seed, "pairs")
        self.batches = [
            workloads.uniform_pairs(gen, n, sizes.batch_pairs)
            for _ in range(sizes.batches)
        ]
        self.reads = workloads.uniform_pairs(gen, n, sizes.reads_after_write)
        vgen = workloads.rng(run.seed, "verify")
        self.verify = workloads.verify_sample(
            vgen, n, sizes.verify_sources, sizes.verify_targets
        )
        self.verify_build = workloads.verify_sample(
            vgen,
            sizes.lifecycle_build_n,
            sizes.verify_sources,
            sizes.verify_targets,
        )
        run.inputs["graph"] = workloads.digest(edges)
        run.inputs["stream"] = workloads.digest(self.stream)
        run.inputs["pairs"] = workloads.digest(*self.batches, self.reads)
        run.inputs["verify"] = workloads.digest(
            [[r, *ts] for r, ts in self.verify + self.verify_build]
        )
        settle()


class _Produced:
    """One set-up of the write side: from nothing to a servable index.

    Generate the graph, build, pack, write the v3 file, map it back and
    build the kernel views — everything a user pays before the first
    answer.  Each step's time is kept for the per-layer report.
    """

    def __init__(self, run: Run) -> None:
        took = {}
        took["generate"], self.graph = timed(
            surface.glp_graph, run.sizes.lifecycle_build_n, workloads.GRAPH_SEED
        )
        took["build"], self.index = timed(surface.build_index, self.graph)
        run.ops()
        self.path = run.workdir / "build.v3"
        took["pack_v3"], store = timed(surface.pack_v3, self.index)
        took["save_v3"], self.v3_bytes = timed(surface.save_store, store, self.path)
        took["open_v3"], store = timed(surface.open_store, self.path)
        took["views_v3"], _ = timed(surface.ensure_kernel_views, store)
        store.close()
        self.took = took


class _Replay:
    """One pass of the held-out stream over a freshly opened base index."""

    def __init__(self, run: Run, inputs: _Inputs, base_path) -> None:
        self.run = run
        self.inputs = inputs
        self.oracle = surface.open_oracle(base_path, 0)
        span = run.tracer.span if run.tracer else nullcontext
        with span("core.dynamic.from_store_s"):
            self.from_store_s, self.dyn = timed(
                surface.dynamic_from_store, self.oracle.store, inputs.base
            )
        self.oracle.query_batch(inputs.batches[0])  # builds the kernel views
        self.write_s: list[float] = []
        self.parts: dict[str, list[float]] = {
            "core.dynamic.insert_s": [],
            "core.dynamic.pop_delta_s": [],
            "oracle.oracle.apply_updates_s": [],
        }
        self.applied = 0
        self.delta_vertices: list[int] = []
        self.first_read_s: list[float] = []
        self.steady_read_s: list[float] = []
        self.p50s: list[float] = []
        self.p99s: list[float] = []

    @property
    def finished(self) -> bool:
        return self.applied >= len(self.inputs.stream)

    def step(self, steady_reads: bool = False) -> None:
        """Insert the next batch of edges, then read."""
        run, inputs, oracle, dyn = self.run, self.inputs, self.oracle, self.dyn
        span = run.tracer.span if run.tracer else nullcontext
        k = self.applied // run.sizes.update_batch
        edges = inputs.stream[self.applied :][: run.sizes.update_batch]
        with span("core.dynamic.insert_s"):
            insert_s, added = timed(dyn.insert_edges, edges)
        with span("core.dynamic.pop_delta_s"):
            pop_s, delta = timed(dyn.pop_label_delta)
        with span("oracle.oracle.apply_updates_s"):
            apply_s, _ = timed(oracle.apply_updates, delta)
        self.applied += len(edges)
        for key, took in zip(self.parts, (insert_s, pop_s, apply_s)):
            self.parts[key].append(took)
        self.write_s.append((insert_s + pop_s + apply_s) / len(edges))
        self.delta_vertices.append(len(delta.vertices()))
        run.ops()
        if added != len(edges):
            run.fail(f"update batch {k}: {added} of {len(edges)} inserted")
        batch = inputs.batches[k % len(inputs.batches)]
        with span("oracle.kernel.first_read_after_write"):
            self.first_read_s.append(timed(oracle.query_batch, batch)[0])
        if steady_reads:
            self.steady_read_s.append(timed(oracle.query_batch, batch)[0])
        lat = time_calls(oracle.query, inputs.reads)
        self.p50s.append(percentile(lat, 0.5))
        self.p99s.append(percentile(lat, top_percentile(len(lat))))
        run.ops(len(lat))

    def grown_graph(self):
        """The graph as grown so far: base edges plus the applied stream."""
        inputs = self.inputs
        edges = inputs.base_edges + inputs.stream[: self.applied]
        return surface.graph_from_edges(self.run.sizes.small_n, edges)

    def close(self) -> None:
        self.oracle.close()


def run(run: Run, name: str) -> None:
    sizes = run.sizes
    inputs = _Inputs(run)
    made, took = None, []
    for _ in range(sizes.min_builds):
        del made  # one built index in memory at a time
        made = _Produced(run)
        took.append(made.took)
    run.put_quiet("setup_s", [sum(t.values()) for t in took])
    run.put_quiet("core.engine.build_s", [t["build"] for t in took])
    run.put_quiet("graphs.generators.generate_s", [t["generate"] for t in took])
    run.put("index_bytes", made.v3_bytes)
    run.inputs["build_graph"] = workloads.digest(surface.graph_edges(made.graph))

    # The base index the updates start from (preparation, not measured).
    base_index = surface.build_index(inputs.base)
    run.ops()
    base_path = run.workdir / "base.v2"
    surface.save_store(surface.pack_v2(base_index), base_path)
    del base_index

    replays = [_Replay(run, inputs, base_path)]
    if run.tracer is None:

        def update_batch():
            if replays[-1].finished:
                replays[-1].close()
                replays.append(_Replay(run, inputs, base_path))
            replays[-1].step()
            run.calibrate_burst(5)

        repeat_for(run.seconds, max(1, sizes.min_passes // 2), update_batch)
    else:
        _traced_build(run, made)
        while not replays[0].finished:
            replays[0].step(steady_reads=True)
            run.calibrate_burst(5)
        _traced_update_layers(run, replays[0])

    try:
        pairs = sizes.batch_pairs
        first = [t for r in replays for t in r.first_read_s]
        run.put("batch_pairs_per_s", pairs / quiet(first), len(first))
        reads = len(first) * len(inputs.reads)
        run.put_latency("small_op_p50_us", _all(replays, "p50s"), reads)
        run.put_latency("small_op_p99_us", _all(replays, "p99s"), reads)
        write = [t for r in replays for t in r.write_s]
        run.put("core.dynamic.update_edges_per_s", 1 / quiet(write), len(write))
        _verify(run, inputs, replays[-1], made)
    finally:
        replays[-1].close()


def _all(replays, attr: str) -> float:
    return quiet([v for r in replays for v in getattr(r, attr)])


def _traced_build(run: Run, made: _Produced) -> None:
    """The set-up build read layer by layer, its twins, every file step."""
    index, build_s = made.index, made.took["build"]
    rounds = surface.iteration_rounds(index)
    step = sum(r["elapsed"] for r in rounds if r["mode"] == "step")
    double = sum(r["elapsed"] for r in rounds if r["mode"] == "double")
    admitted = sum(r["admitted"] for r in rounds)
    run.put("core.engine.step_rounds_s", step)
    run.put("core.engine.double_rounds_s", double)
    run.put("core.engine.finish_s", build_s - step - double)
    run.put("core.engine.rounds", len(rounds))
    run.put("core.engine.raw_candidates", sum(r["raw_generated"] for r in rounds))
    run.put("core.engine.candidates", sum(r["distinct_generated"] for r in rounds))
    run.put(
        "core.pruning.survivor_share",
        sum(r["survived"] for r in rounds) / admitted if admitted else 0.0,
    )

    directed = surface.glp_graph(
        run.sizes.lifecycle_directed_n, workloads.GRAPH_SEED, directed=True
    )
    directed_s, _ = timed(surface.build_index, directed)
    run.put("core.engine.build_directed_s", directed_s)
    run.ops()
    took, twin = timed(surface.build_index_jobs, made.graph, run.clients)
    if twin is not None:
        run.put("core.parallel_build.build_jobsC_s", took)
        run.ops()
    del twin

    v2_path = run.workdir / "build.v2"
    pack_s, flat = timed(surface.pack_v2, index)
    save_v2_s, v2_bytes = timed(surface.save_store, flat, v2_path)
    run.put("core.engine.entries", surface.entries(flat))
    run.put("core.flatstore.pack_s", pack_s)
    run.put("core.flatstore.save_v2_s", save_v2_s)
    took = made.took
    run.put("core.quantized.save_v3_s", took["pack_v3"] + took["save_v3"])
    run.put("core.flatstore.v2_bytes", v2_bytes)
    run.put("core.quantized.v3_bytes", made.v3_bytes)
    run.put("core.quantized.open_mmap_s", took["open_v3"])
    run.put("oracle.kernel.ensure_sides_v3_s", took["views_v3"])
    open_s, store = timed(surface.open_store, v2_path)
    views_s, _ = timed(surface.ensure_kernel_views, store)
    store.close()
    run.put("core.flatstore.open_mmap_s", open_s)
    run.put("oracle.kernel.ensure_sides_s", views_s)


def _traced_update_layers(run: Run, replay: _Replay) -> None:
    run.put("core.dynamic.from_store_s", replay.from_store_s)
    for key, values in replay.parts.items():
        run.put_quiet(key, values)
    run.put_median("core.dynamic.delta_vertices", replay.delta_vertices)
    rebuild = [
        first - steady
        for first, steady in zip(replay.first_read_s, replay.steady_read_s)
    ]
    run.put_quiet("oracle.kernel.view_rebuild_s", rebuild)

    # Tracing overhead on the one call both passes share, a steady
    # batch; traced and untraced calls alternate.
    oracle, batch = replay.oracle, replay.inputs.batches[0]
    targets = surface.trace_targets(oracle.store)
    name = "oracle.kernel.eval_arrays_s"
    base, traced = [], []
    for _ in range(max(2, run.sizes.min_passes // 2)):
        base.append(timed(oracle.query_batch, batch)[0])
        run.tracer.wrap(*targets[name], name)
        run.tracer.wrap(oracle, "query_batch", "oracle.batch.query_batch")
        traced.append(timed(oracle.query_batch, batch)[0])
        run.tracer.unwrap_all()
    run.put("bench.trace.overhead_share", quiet(traced) / quiet(base) - 1)


def _verify(run: Run, inputs: _Inputs, replay: _Replay, made: _Produced):
    """Exactness on the grown graph, and of the measured build."""
    oracle, dyn = replay.oracle, replay.dyn
    grown = replay.grown_graph()
    batch = inputs.batches[0]
    surfaces = {
        "query": lambda ps: [oracle.query(s, t) for s, t in ps],
        "query_batch": oracle.query_batch,
        "dynamic.query": lambda ps: [dyn.query(s, t) for s, t in ps],
    }
    want = oracle.query_batch(batch)
    for label, answer in surfaces.items():
        run.check_equal(f"{label} vs query_batch", answer(batch), want)
    for root, targets in inputs.verify:
        truth = surface.bfs_distances(grown, root)
        pairs = [(root, t) for t in targets]
        expect = [truth[t] for t in targets]
        for label, answer in surfaces.items():
            run.check_equal(f"{label} vs BFS (grown)", answer(pairs), expect)
    for root, targets in inputs.verify_build:
        truth = surface.bfs_distances(made.graph, root)
        got = [made.index.query(root, t) for t in targets]
        run.check_equal("build vs BFS", got, [truth[t] for t in targets])
