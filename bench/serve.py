"""``serve-closed``: a closed loop of clients against ``repro serve``.

The server is the shipped CLI in a subprocess with its default
admission knobs; the load is ``C`` connections in this process, each
strictly request → reply (a caller waits for its answer before asking
again, so a slower server is offered less load).  Phase ``small``
sends 16-pair requests (per-request overhead: JSON, asyncio, batcher),
phase ``large`` 1,024-pair requests (conversion and kernel cost).

The traced pass additionally hosts a ``DistanceServer`` *in this
process* so that client and server spans share one clock and nest:
``client.query ⊇ client.request ⊇ batcher.submit ⊇ evaluate ⊇
kernel.batch_eval_arrays``, one request id end to end.
"""

from __future__ import annotations

import asyncio
import subprocess
import time
from statistics import fmean

import spans
import surface
import workloads
from measure import (
    Run,
    cpu_seconds,
    median,
    peak_rss_mb,
    percentile,
    settle,
    timed,
    top_percentile,
)

HOST = "127.0.0.1"


class ServerProcess:
    """``python -m repro serve INDEX --port 0 --workers 1`` as a child."""

    def __init__(self, index_path) -> None:
        argv, env = surface.serve_command(index_path)
        self.proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True)
        banner = self.proc.stdout.readline()
        try:
            self.port = int(banner.split(f"{HOST}:")[1].split()[0])
        except (IndexError, ValueError):
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}") from None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Phase:
    """Latencies and rates of one request size, slice by slice.

    A phase reports the *median* slice, not ``measure.quiet``'s fastest:
    a request is some three hundred microseconds of interpreter, socket
    and context switch, and this kind of host runs that mix in a fast
    mode for a few seconds out of every minute (a quarter faster, most
    likely an idle sibling hardware thread).  The fastest slice tells
    whether such a burst fell into the run; the median slice does not
    (run to run, 6% against 16% for the median request).
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.slices: list[list[float]] = []
        self.pairs_per_s: list[float] = []

    def add(self, latencies: list[float], elapsed: float) -> None:
        self.slices.append(latencies)
        self.pairs_per_s.append(len(latencies) * self.size / elapsed)

    @property
    def requests(self) -> int:
        return sum(len(lat) for lat in self.slices)

    def per_slice(self, q: float) -> float:
        """Each slice's ``q`` percentile, at the median slice."""
        return median([percentile(lat, q) for lat in self.slices])

    @property
    def rate(self) -> float:
        """Pairs per second of the median slice."""
        return median(self.pairs_per_s)

    def pooled(self, q: float) -> float:
        return percentile([v for lat in self.slices for v in lat], q)


async def closed_loop(
    run: Run, clients, schedule, seconds: float, phase=None, answers=None
):
    """Drive every client request → reply for ``seconds`` (one slice).

    Each client sends its next request only when the previous reply
    has arrived.  Any error reply or dropped connection counts as a
    failed operation.  The slice is added to ``phase`` when given.
    """
    latencies: list[float] = []
    clock = time.perf_counter
    start = clock()
    stop = start + seconds

    async def worker(k: int, client) -> None:
        i = k
        while True:
            begin = clock()
            if begin >= stop:
                return
            try:
                got = await client.query(schedule[i % len(schedule)])
            except (RuntimeError, ConnectionError) as exc:
                run.ops()
                run.fail(f"request failed: {exc}")
                return
            latencies.append(clock() - begin)
            if answers is not None:
                answers[i % len(schedule)] = got
            i += len(clients)

    await asyncio.gather(*(worker(k, c) for k, c in enumerate(clients)))
    run.ops(len(latencies))
    if phase is not None:
        phase.add(latencies, clock() - start)


async def alternate(run: Run, clients, plan, seconds: float) -> None:
    """Alternate slices of several phases so each spans ``seconds``.

    ``plan`` is ``[(phase, schedule, share, answers)]``; a tenth of the
    window warms every phase up first and is dropped.
    """
    slices = run.sizes.min_segments
    for _, schedule, share, _ in plan:
        await closed_loop(run, clients, schedule, seconds * 0.1 * share)
    for _ in range(slices):
        for phase, schedule, share, answers in plan:
            each = seconds * 0.9 * share / slices
            await closed_loop(run, clients, schedule, each, phase, answers)


async def _start(run: Run, index_path):
    """One set-up: spawn the server, connect every client, first ping."""
    begin = time.perf_counter()
    server = ServerProcess(index_path)
    try:
        clients = [
            await surface.connect_client(HOST, server.port)
            for _ in range(run.clients)
        ]
        await clients[0].request({"op": "ping"})
    except BaseException:
        server.stop()
        raise
    return time.perf_counter() - begin, server, clients


async def _close(clients) -> None:
    for client in clients:
        await client.aclose()


def run(run: Run, name: str) -> None:
    sizes = run.sizes
    n = sizes.small_n
    graph = surface.ba_graph(n, 2, workloads.GRAPH_SEED)
    gen = workloads.rng(run.seed, "requests")
    count = sizes.requests
    small = workloads.request_schedule(gen, n, sizes.small_request, count)
    large = workloads.request_schedule(gen, n, sizes.large_request, count)
    verify = workloads.verify_sample(
        workloads.rng(run.seed, "verify"),
        n,
        sizes.verify_sources,
        sizes.verify_targets,
    )
    run.inputs["graph"] = workloads.digest(surface.graph_edges(graph))
    run.inputs["requests"] = workloads.digest(*small, *large)
    run.inputs["verify"] = workloads.digest([[r, *ts] for r, ts in verify])
    settle()

    build_s, index = timed(surface.build_index, graph)
    run.ops()
    run.put("core.engine.build_s", build_s)
    index_path = run.workdir / "index.v2"
    run.put("index_bytes", surface.save_store(surface.pack_v2(index), index_path))
    del index

    asyncio.run(_drive(run, graph, index_path, small, large, verify))


async def _drive(run: Run, graph, index_path, small, large, verify) -> None:
    starts = []
    server = clients = None
    for _ in range(5):
        if server is not None:
            await _close(clients)
            server.stop()
        took, server, clients = await _start(run, index_path)
        starts.append(took)
    run.put_median("setup_s", starts)
    run.put_median("cli.serve_start_s", starts)
    answers = {"small": {}, "large": {}}
    phases = Phase(len(small[0])), Phase(len(large[0]))
    try:
        traced = run.tracer is not None
        wall, cpu_client, cpu_server = (
            time.perf_counter(),
            time.process_time(),
            cpu_seconds(server.pid),
        )
        # One connection: client and server take turns, so together they
        # never need more than one core's worth of time and the numbers
        # do not depend on how much of a second core the host grants.
        # They share the run's one core as well.  On a core each, every
        # request woke two idle virtual CPUs, and what that costs on a
        # shared host moved the median request between 460 and 670 µs
        # from one half-second slice to the next (300 to 325 µs here).
        await alternate(
            run,
            clients[:1],
            [
                (phases[0], small, 0.5, answers["small"]),
                (phases[1], large, 0.5, answers["large"]),
            ],
            run.share(0.3 if traced else 1.0),
        )
        wall = time.perf_counter() - wall
        cpu_client = time.process_time() - cpu_client
        cpu_server = cpu_seconds(server.pid) - cpu_server
        run.put("serve.client.cpu_share", cpu_client / wall)
        run.put("serve.server.cpu_share", cpu_server / wall)
        _put_phases(run, *phases)
        if traced:
            await _server_layers(run, server, clients, small, large)
        run.put("peak_rss_mb", peak_rss_mb(server.pid))
        await _verify(
            run, graph, index_path, clients[0], (small, large), verify, answers
        )
    finally:
        await _close(clients)
        server.stop()
    if run.tracer is not None:
        await _traced_in_process(run, index_path, small, large)


def _put_phases(run: Run, small: Phase, large: Phase) -> None:
    q = top_percentile(min(len(lat) for lat in small.slices))
    run.put("small_op_p50_us", small.per_slice(0.5) * 1e6, small.requests)
    run.put("small_op_p99_us", small.per_slice(q) * 1e6, small.requests)
    run.put("batch_pairs_per_s", large.rate, len(large.slices))
    # A slice holds too few 1,024-pair requests for its own p99: pool.
    run.put(
        "serve.server.large_req_p99_ms",
        large.pooled(top_percentile(large.requests)) * 1e3,
        large.requests,
    )


async def _server_layers(run: Run, server, clients, small, large) -> None:
    """All C connections at once, and what the server says about it."""
    before = (await clients[0].stats())["batcher"]
    phases = Phase(len(small[0])), Phase(len(large[0]))
    await alternate(
        run,
        clients,
        [(phases[0], small, 0.5, None), (phases[1], large, 0.5, None)],
        run.share(0.2),
    )
    after = (await clients[0].stats())["batcher"]
    run.put(
        "serve.server.concurrent_pairs_per_s", phases[1].rate, len(phases[1].slices)
    )
    run.put(
        "serve.server.concurrent_small_p50_ms",
        phases[0].per_slice(0.5) * 1e3,
        phases[0].requests,
    )
    batches = after["batches_dispatched"] - before["batches_dispatched"]
    served = after["pairs_served"] - before["pairs_served"]
    run.put("serve.batcher.batches", batches)
    run.put("serve.batcher.mean_batch_pairs", served / batches if batches else 0.0)
    run.put("serve.batcher.max_batch_seen", after["max_batch_seen"])
    run.put("serve.batcher.rejected", after["requests_rejected"])

    pings = []
    for _ in range(200):
        start = time.perf_counter()
        await clients[0].request({"op": "ping"})
        pings.append(time.perf_counter() - start)
    run.put("serve.server.ping_p50_ms", median(pings) * 1e3, len(pings))
    sent, received, _ = await surface.wire_probe(HOST, server.port, large[0])
    run.put("serve.server.bytes_in_per_pair", sent / len(large[0]))
    run.put("serve.server.bytes_out_per_pair", received / len(large[0]))


class _TracedBackend:
    """The in-process server's evaluator, with a span per batch.

    A coalesced batch carries several requests; its interval is
    recorded once per request (that request's submit span as parent)
    so every request's chain is complete.  ``enabled=False`` is the
    untraced baseline: a plain pass-through.
    """

    def __init__(self, oracle, tracer, submitted) -> None:
        self.oracle = oracle
        self.n = oracle.n
        self.tracer = tracer
        self.submitted = submitted
        self.enabled = False

    def query_batch(self, pairs):
        if not self.enabled:
            return self.oracle.query_batch(pairs)
        owners = []
        pos = 0
        while pos < len(pairs):
            rid, parent, count = self.submitted[pairs[pos]]
            owners.append((rid, parent))
            pos += count
        name = "serve.batcher.evaluate_s"
        (rid, parent), rest = owners[0], owners[1:]
        with self.tracer.span(name, parent, rid):
            result = self.oracle.query_batch(pairs)
        start, end = self.tracer.spans[-1][3:5]
        for rid, parent in rest:
            self.tracer.record(name, start, end, parent, rid)
        return result


def _install_tracing(tracer, server, clients, backend, open_requests, submitted):
    """Patch spans around every layer of the in-process request path.

    ``tracer.unwrap_all()`` (plus ``backend.enabled = False``) removes
    them again, so traced and untraced slices can alternate.
    """
    submit = server.batcher.submit

    async def traced_submit(pairs):
        rid, parent = open_requests.pop(pairs[0])
        with tracer.span("serve.batcher.submit_s", parent, rid) as sid:
            submitted[pairs[0]] = (rid, sid, len(pairs))
            try:
                return await submit(pairs)
            finally:
                del submitted[pairs[0]]

    tracer.patch(server.batcher, "submit", traced_submit)
    for client in clients:
        _trace_client(tracer, client, open_requests)
    name = "oracle.kernel.eval_arrays_s"
    tracer.wrap(*surface.trace_targets(backend.oracle.store)[name], name)
    backend.enabled = True


def _trace_client(tracer, client, open_requests) -> None:
    """Spans around one client's ``query`` and ``request`` calls."""
    query, request = client.query, client.request

    async def traced_query(pairs):
        with tracer.span("serve.client.query_s", request=tracer.new_request()):
            return await query(pairs)

    async def traced_request(payload):
        with tracer.span("serve.client.request_s") as sid:
            # The server rebuilds the pair list, so the first pair is
            # what identifies this request on the other side.
            first = tuple(payload["pairs"][0])
            open_requests[first] = (tracer.current_request(), sid)
            return await request(payload)

    tracer.patch(client, "query", traced_query)
    tracer.patch(client, "request", traced_request)


async def _traced_in_process(run: Run, index_path, small, large) -> None:
    tracer = run.tracer
    oracle = surface.open_oracle(index_path, 0)
    open_requests: dict = {}
    submitted: dict = {}
    backend = _TracedBackend(oracle, tracer, submitted)
    server = surface.in_process_server(backend)
    host, port = await server.start()
    clients = [await surface.connect_client(host, port) for _ in range(run.clients)]
    base, traced = Phase(len(large[0])), Phase(len(large[0]))
    hooks = (tracer, server, clients, backend, open_requests, submitted)
    try:
        await closed_loop(run, clients, large, run.share(0.03))
        mark = len(tracer.spans)
        # Untraced and traced slices alternate: the overhead compares
        # like moments of a drifting host.
        for _ in range(run.sizes.min_segments):
            await closed_loop(run, clients, large, run.share(0.03), base)
            _install_tracing(*hooks)
            await closed_loop(run, clients, large, run.share(0.03), traced)
            tracer.unwrap_all()
            backend.enabled = False
        large_spans = tracer.since(mark)
        mark = len(tracer.spans)
        _install_tracing(*hooks)
        await closed_loop(run, clients, small, run.share(0.08))
        tracer.unwrap_all()
        small_spans = tracer.since(mark)
    finally:
        await _close(clients)
        await server.aclose()
        oracle.close()

    run.put("bench.trace.overhead_share", base.rate / traced.rate - 1)
    for prefix, recorded in (("", large_spans), ("small.", small_spans)):
        for key, value in _request_breakdown(recorded).items():
            if prefix:
                run.detail[f"{prefix}{key}"] = value
            else:
                run.put(key, value)


def _request_breakdown(recorded) -> dict[str, float]:
    """Mean seconds per request of each span and each self time."""
    kernel_of = {}
    kids = spans.children(recorded)
    for span in recorded:
        if span[2] == "serve.batcher.evaluate_s":
            inner = sum(k[4] - k[3] for k in kids.get(span[0], ()))
            key = (span[3], span[4])
            kernel_of[key] = max(kernel_of.get(key, 0.0), inner)
    names = (
        "serve.client.query_s",
        "serve.client.request_s",
        "serve.batcher.submit_s",
        "serve.batcher.evaluate_s",
    )
    rows = []
    for chain in spans.by_request(recorded).values():
        if all(name in chain for name in names):
            q, r, s, e = (chain[name] for name in names)
            rows.append(
                (
                    q[4] - q[3],
                    r[4] - r[3],
                    s[4] - s[3],
                    e[4] - e[3],
                    kernel_of[(e[3], e[4])],
                )
            )
    query, request, submit, evaluate, kern = map(fmean, zip(*rows))
    return {
        "serve.client.query_s": query,
        "serve.client.request_s": request,
        "serve.batcher.submit_s": submit,
        "serve.batcher.evaluate_s": evaluate,
        "oracle.kernel.eval_arrays_s": kern,
        "serve.client.convert_self_s": query - request,
        "serve.server.wire_self_s": request - submit,
        "serve.batcher.wait_self_s": submit - evaluate,
    }


async def _verify(run, graph, index_path, client, schedules, verify, answers):
    """Socket answers vs the in-process oracle vs BFS ground truth."""
    oracle = surface.open_oracle(index_path, 0)
    try:
        for label, schedule in zip(("small", "large"), schedules):
            for i, got in answers[label].items():
                want = oracle.query_batch(schedule[i])
                run.check_equal(f"socket {label} request {i}", got, want)
        batch = schedules[1][0]
        want = oracle.query_batch(batch)
        scalar = [oracle.query(s, t) for s, t in batch]
        run.check_equal("query vs query_batch", scalar, want)
        run.check_equal("socket vs query_batch", await client.query(batch), want)
        for root, targets in verify:
            truth = surface.bfs_distances(graph, root)
            pairs = [(root, t) for t in targets]
            expect = [truth[t] for t in targets]
            run.check_equal("socket vs BFS", await client.query(pairs), expect)
            run.check_equal("query_batch vs BFS", oracle.query_batch(pairs), expect)
    finally:
        oracle.close()
