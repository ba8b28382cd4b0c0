"""Command-line interface: ``python -m repro`` or the ``repro`` script.

Subcommands::

    repro build GRAPH -o INDEX [--directed] [--weighted] [--strategy S]
                               [--format {v1,v2,v3}]
                               [--engine {auto,array,dict}]
                               [--jobs N] [--force]
    repro query INDEX [S T ...] [--batch FILE] [--backend {flat,list}]
                               [--mmap]
    repro query --shards DIR [S T ...] [--batch FILE] [--workers N]
    repro convert INDEX -o OUTPUT [--format {v1,v2,v3}] [--stats]
                               [--force]
    repro shard INDEX -o DIR [--shards N] [--format {v2,v3}] [--force]
    repro serve INDEX|DIR [--host H] [--port P] [--workers N]
                               [--max-batch PAIRS] [--max-wait-ms MS]
                               [--max-pending PAIRS]
    repro update INDEX --edges FILE [-o OUT] [--shards DIR]
    repro stats GRAPH [--directed] [--weighted]
    repro generate MODEL -n N -o GRAPH [--density D] [--seed K]
                               [--directed]
    repro verify GRAPH INDEX [--directed] [--weighted] [--samples N]

``GRAPH`` files are text edge lists (``u v [w]`` per line, ``#``
comments); ``INDEX`` files use the library's binary label formats
(v1 per-entry structs, v2 flat-array blobs, v3 compact quantized
arrays — ``repro convert`` translates between them and ``--stats``
reports the size breakdown).  ``repro shard`` splits an index into a
directory of per-vertex-range v2 (or, with ``--format v3``, quantized)
files plus a manifest, which ``repro query --shards`` serves through a
:class:`~repro.oracle.ParallelOracle`.  ``repro update`` inserts edges
into a built index (or a shard directory) by incremental Hop-Doubling
label repair — no rebuild; a shard directory has only its changed
shards rewritten and their manifest checksums refreshed.  Queries are served through the
:class:`~repro.oracle.DistanceOracle` facade; ``--batch FILE``
evaluates one ``s t`` pair per line with the vectorized numpy kernel
on a v2/v3 store and per-pair queries otherwise.
``repro serve`` runs the asyncio distance server of
:mod:`repro.serve` over an index file or shard directory: concurrent
clients' requests coalesce into kernel batches under an admission
window, and the same :class:`~repro.oracle.ParallelOracle` decides per
batch between the inline kernel and forked workers sharing the label
arrays (see ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

import argparse
import sys

from repro.core.index import HopDoublingIndex
from repro.graphs.generators import ba_graph, er_graph, glp_graph
from repro.graphs.io import read_edge_list, write_edge_list
from repro.graphs.stats import summarize
from repro.utils.prettyprint import format_bytes, format_count
from repro.utils.timer import format_duration


def _print_round(it) -> None:
    """One stderr line per finished build round (``IterationStats``)."""
    print(
        f"round {it.iteration} ({it.mode}): "
        f"{it.distinct_generated} candidates, {it.admitted} admitted, "
        f"{it.survived} survived, {it.total_entries} entries, "
        f"{format_duration(it.elapsed)}",
        file=sys.stderr,
    )


def _cmd_build(args: argparse.Namespace) -> int:
    import os

    if os.path.exists(args.output) and not args.force:
        print(
            f"error: {args.output} already exists; pass --force to "
            "overwrite it",
            file=sys.stderr,
        )
        return 2
    from repro.core.engine import check_engine_options, resolve_engine

    try:
        check_engine_options(args.engine, args.jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    engine, jobs = resolve_engine(args.engine), args.jobs
    graph = read_edge_list(
        args.graph, directed=args.directed, weighted=args.weighted
    )
    print(f"loaded {graph}")
    try:
        index = HopDoublingIndex.build(
            graph,
            strategy=args.strategy,
            ranking=args.ranking,
            engine=engine,
            jobs=jobs,
            on_round=_print_round,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stats = index.stats()
    workers = f", {jobs} jobs" if jobs > 1 else ""
    print(
        f"built in {format_duration(index.build_result.build_seconds)} "
        f"({index.num_iterations} iterations, {engine} engine{workers}): "
        f"{format_count(stats.total_entries)} entries, "
        f"avg |label| {stats.avg_label_size:.1f}, "
        f"{format_bytes(index.size_in_bytes())}, "
        f"{format_count(stats.pendants)} pendants answered through "
        f"{format_count(stats.core_vertices)} core vertices"
    )
    index.save(args.output, format=args.format)
    print(f"index written to {args.output} (format {args.format})")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.oracle import DistanceOracle, ParallelOracle, read_pair_file

    # With --shards the INDEX positional must be omitted; argparse may
    # have captured the first vertex id there, so hand it back.
    if args.shards and args.index is not None:
        if _is_int(args.index):
            args.pair.insert(0, int(args.index))
            args.index = None
        else:
            print(
                "error: give either INDEX or --shards DIR, not both",
                file=sys.stderr,
            )
            return 2
    if not args.shards and args.index is None:
        print("error: provide an INDEX file or --shards DIR", file=sys.stderr)
        return 2
    # Validate the invocation before paying for the index load.
    if len(args.pair) % 2 != 0:
        print("error: provide an even number of vertex ids", file=sys.stderr)
        return 2
    if not args.pair and not args.batch:
        print("error: provide vertex pairs or --batch FILE", file=sys.stderr)
        return 2
    if args.shards and (args.mmap or args.backend != "flat"):
        print(
            "warning: --mmap and --backend are ignored with --shards "
            "(shard files are always memory-mapped flat stores)",
            file=sys.stderr,
        )
    elif args.mmap and args.backend == "list":
        print(
            "warning: --mmap has no effect with --backend list "
            "(tuple lists are materialized in memory)",
            file=sys.stderr,
        )
    batch_pairs = None
    if args.batch:
        try:
            batch_pairs = read_pair_file(args.batch)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        if args.shards:
            oracle = ParallelOracle(args.shards, workers=args.workers)
        else:
            oracle = DistanceOracle.open(
                args.index, backend=args.backend, use_mmap=args.mmap
            )
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if (
        not args.shards
        and args.mmap
        and args.backend == "flat"
        and not getattr(oracle.store, "is_mmapped", False)
    ):
        print(
            f"warning: --mmap not in effect for {args.index} (v1 file, or "
            "platform without zero-copy support); loaded into memory "
            "instead — see `repro convert` for format v2",
            file=sys.stderr,
        )
    try:
        for i in range(0, len(args.pair), 2):
            s, t = args.pair[i], args.pair[i + 1]
            d = oracle.query(s, t)
            shown = "unreachable" if d == float("inf") else f"{d:g}"
            print(f"dist({s}, {t}) = {shown}")
        if batch_pairs is not None:
            import time

            pairs = batch_pairs
            t0 = time.perf_counter()
            distances = oracle.query_batch(pairs)
            elapsed = time.perf_counter() - t0
            for (s, t), d in zip(pairs, distances):
                shown = "inf" if d == float("inf") else f"{d:g}"
                print(f"{s}\t{t}\t{shown}")
            rate = len(pairs) / elapsed if elapsed > 0 else float("inf")
            print(
                f"answered {len(pairs)} pairs in {format_duration(elapsed)} "
                f"({rate:,.0f} pairs/s)",
                file=sys.stderr,
            )
    except IndexError as exc:  # out-of-range vertex ids
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        oracle.close()
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    import os

    from repro.core.flatstore import load_store

    if os.path.exists(args.output) and not args.force:
        print(
            f"error: {args.output} already exists; pass --force to "
            "overwrite it",
            file=sys.stderr,
        )
        return 2
    try:
        out_store = load_store(args.index, prefer_flat=True)
        if args.format == "v1":
            out_store.to_index().save(args.output)
        else:
            out_store = out_store.encoded(args.format)
            out_store.save(args.output)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    src = os.path.getsize(args.index)
    dst = os.path.getsize(args.output)
    print(
        f"converted {args.index} ({format_bytes(src)}) -> "
        f"{args.output} ({format_bytes(dst)}, format {args.format})"
    )
    if args.stats:
        stats = out_store.stats()
        entries = out_store.total_entries(include_trivial=True)
        print(f"  vertices        {format_count(stats.num_vertices)}")
        print(
            f"  pendants        {format_count(stats.pendants)} "
            f"({stats.pendants / max(stats.num_vertices, 1):.1%}; core "
            f"{format_count(stats.core_vertices)})"
        )
        print(f"  entries         {format_count(entries)}")
        print(f"  avg |label|     {stats.avg_label_size:.1f}")
        if out_store.encoding == "v3":
            print(f"  pivot width     {out_store.pivot_width} B (delta)")
            dist_kind = "raw f64" if out_store.dist_width == 8 else "quantized"
            print(
                f"  dist width      {out_store.dist_width} B ({dist_kind})"
            )
        print(f"  bytes/entry     {dst / entries:.2f}")
        print(f"  size vs source  {dst / src:.1%}")
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    import os

    from repro.core.flatstore import load_store
    from repro.oracle import ShardedLabelStore
    from repro.oracle.sharding import SHARD_FILE_FORMATS

    try:
        store = load_store(args.index, prefer_flat=True)
        sharded = ShardedLabelStore.split(store, args.shards)
        manifest_path = sharded.save(
            args.output, overwrite=args.force, format=args.format
        )
    except FileExistsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    total = 0
    for i, (lo, hi) in enumerate(sharded.ranges):
        size = os.path.getsize(
            os.path.join(
                args.output, SHARD_FILE_FORMATS[args.format].format(i)
            )
        )
        total += size
        print(
            f"shard {i}: vertices [{lo}, {hi}) "
            f"({format_count(hi - lo)}), {format_bytes(size)}"
        )
    print(
        f"sharded {args.index} -> {args.output} "
        f"({args.shards} shards, format {args.format}, "
        f"{format_bytes(total)}, manifest {manifest_path.name})"
    )
    return 0


def _read_insert_edges(path) -> list[tuple[int, int, float]]:
    """Parse an insertion edge file: one ``u v [w]`` per line.

    Same conventions as the other text inputs: blank lines and
    ``#``/``%`` comments skipped, ``.gz`` decompressed transparently.
    Raises ``ValueError`` on malformed lines.
    """
    from repro.graphs.io import _open_text

    out: list[tuple[int, int, float]] = []
    with _open_text(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].split("%", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) not in (2, 3):
                raise ValueError(
                    f"{path}:{lineno}: expected 'u v [w]', got {line.strip()!r}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
                w = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: expected 'u v [w]', got {line.strip()!r}"
                ) from exc
            out.append((u, v, w))
    return out


def _cmd_update(args: argparse.Namespace) -> int:
    import os
    import time

    from repro.core.dynamic import DynamicHopDoublingIndex
    from repro.core.flatstore import load_store
    from repro.oracle import ShardedLabelStore

    try:
        edges = _read_insert_edges(args.edges)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not edges:
        print(f"error: {args.edges}: no edges to insert", file=sys.stderr)
        return 2
    is_dir = os.path.isdir(args.index)
    if is_dir and args.output:
        print(
            "error: a shard directory is reconciled in place; -o is only "
            "for single index files",
            file=sys.stderr,
        )
        return 2
    source_version = None
    try:
        if is_dir:
            store = ShardedLabelStore.load(args.index)
        else:
            with open(args.index, "rb") as fh:
                head = fh.read(5)
            source_version = head[4] if len(head) == 5 else None
            store = load_store(args.index, prefer_flat=True)
        if store.rank is None:
            print(
                f"error: {args.index} carries no ranking; rebuild the "
                "index (repro build records it) before updating",
                file=sys.stderr,
            )
            return 2
        dyn = DynamicHopDoublingIndex.from_store(store)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        added = dyn.insert_edges(edges)
    except (IndexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    repair_seconds = time.perf_counter() - t0
    delta = dyn.pop_label_delta()
    print(
        f"inserted {added} of {len(edges)} edges in "
        f"{format_duration(repair_seconds)}: "
        f"{format_count(len(delta.vertices()))} vertex labels changed"
    )
    try:
        if is_dir:
            store.apply_updates(delta)
            rewritten = store.reconcile(args.index)
            print(
                f"reconciled {args.index}: rewrote "
                f"{len(rewritten)}/{store.num_shards} shards "
                f"({', '.join(str(i) for i in rewritten) or 'none'})"
            )
        else:
            store.apply_updates(delta)
            target = args.output or args.index
            if source_version == 1:
                # Keep a v1 file in its own format: an update is not a
                # format upgrade (that is `repro convert`'s job).
                store.to_index().save(target)
            else:
                store.save(target)
            print(f"updated index written to {target}")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.shards:
        try:
            sharded = ShardedLabelStore.load(args.shards)
            sharded.apply_updates(delta)
            rewritten = sharded.reconcile(args.shards)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(
            f"reconciled {args.shards}: rewrote "
            f"{len(rewritten)}/{sharded.num_shards} shards "
            f"({', '.join(str(i) for i in rewritten) or 'none'})"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.oracle import ParallelOracle
    from repro.serve import DistanceServer

    try:
        oracle = ParallelOracle(args.index, workers=args.workers, cache_size=0)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Fork the workers (if any batch could use them) before the event
    # loop and its thread pool exist — the quiescent-parent moment.
    pooled = oracle.warmup()
    server = DistanceServer(
        oracle,
        host=args.host,
        port=args.port,
        max_batch_pairs=args.max_batch,
        max_wait=args.max_wait_ms / 1000.0,
        max_pending_pairs=args.max_pending,
    )

    async def run() -> None:
        host, port = await server.start()
        mode = (
            f"{oracle.workers} shm workers" if pooled
            else "inline evaluation"
        )
        print(
            f"serving {args.index} on {host}:{port} ({mode}, "
            f"batch <= {args.max_batch} pairs, "
            f"wait <= {args.max_wait_ms:g} ms)",
            flush=True,
        )
        try:
            await server.serve_forever()
        finally:
            await server.aclose()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        oracle.close()
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    graph = read_edge_list(
        args.graph, directed=args.directed, weighted=args.weighted
    )
    s = summarize(graph)
    print(f"|V|            {format_count(s.num_vertices)}")
    print(f"|E|            {format_count(s.num_edges)}")
    print(f"max degree     {format_count(s.max_degree)}")
    print(f"density        {s.density:.2f}")
    print(f"size           {format_bytes(s.size_bytes)}")
    print(f"rank exponent  {s.rank_exponent:.3f}  (scale-free: -1.0 .. -0.6)")
    print(f"expansion R    {s.expansion:.1f}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.model == "glp":
        m = max(0.3, args.density * (1.0 - 0.4695))
        graph = glp_graph(args.n, m=m, seed=args.seed, directed=args.directed)
    elif args.model == "ba":
        graph = ba_graph(
            args.n, m=max(1, int(args.density)), seed=args.seed,
            directed=args.directed,
        )
    elif args.model == "er":
        graph = er_graph(
            args.n, int(args.n * args.density), seed=args.seed,
            directed=args.directed,
        )
    else:  # pragma: no cover - argparse choices guard this
        raise AssertionError(args.model)
    write_edge_list(graph, args.output)
    print(f"wrote {graph} to {args.output}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    import os

    from repro.core.flatstore import load_store
    from repro.core.verify import verify_index

    graph = read_edge_list(
        args.graph, directed=args.directed, weighted=args.weighted
    )
    if os.path.isdir(args.index):
        from repro.oracle import ShardedLabelStore

        store = ShardedLabelStore.load(args.index)
    else:
        # The arrays as stored (v1: tuple lists), so the checks see the
        # file's rows and pendant section, not labels derived from them.
        store = load_store(args.index, prefer_flat=False)
    report = verify_index(graph, store, samples=args.samples)
    print(report)
    for violation in report.violations[:20]:
        print(f"  ! {violation}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hop Doubling Label Indexing (VLDB 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build an index from an edge list")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("-o", "--output", required=True, help="index output path")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--weighted", action="store_true")
    p.add_argument(
        "--strategy",
        choices=["hybrid", "stepping", "doubling"],
        default="hybrid",
        help="hop-growth schedule (default: hybrid — stepping until the "
        "frontier flattens, then doubling)",
    )
    p.add_argument(
        "--ranking",
        choices=["auto", "degree", "inout", "random", "betweenness"],
        default="auto",
        help="vertex importance order used for pruning (default: auto)",
    )
    p.add_argument(
        "--format",
        choices=["v1", "v2", "v3"],
        default="v1",
        help="index file format (default: v1 per-entry structs; v2 = "
        "flat-array blobs, v3 = compact quantized arrays)",
    )
    p.add_argument(
        "--engine",
        choices=["auto", "array", "dict"],
        default="auto",
        help="construction engine: vectorized arrays (auto) or the "
        "reference dict implementation; both produce bit-identical "
        "indexes",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for candidate generation "
        "(array engine only; default: 1)",
    )
    p.add_argument(
        "--force",
        action="store_true",
        help="overwrite an existing output file",
    )
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("query", help="query a built index")
    p.add_argument(
        "index",
        nargs="?",
        help="index file from `repro build` (omit with --shards)",
    )
    p.add_argument("pair", nargs="*", type=int, help="s t [s t ...]")
    p.add_argument(
        "--batch",
        metavar="FILE",
        help="evaluate one 's t' pair per line of FILE (batched path)",
    )
    p.add_argument(
        "--backend",
        choices=["flat", "list"],
        default="flat",
        help="in-memory label storage backend (default: flat CSR)",
    )
    p.add_argument(
        "--mmap",
        action="store_true",
        help="memory-map a v2/v3 index instead of reading it",
    )
    p.add_argument(
        "--shards",
        metavar="DIR",
        help="serve a shard directory (from `repro shard`) instead of "
        "a single index file",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="workers for --shards (default: all cores; large batches on "
        "an index past the cache-resident size fan out, the rest is "
        "answered inline)",
    )
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser(
        "convert", help="convert an index file between formats v1/v2/v3"
    )
    p.add_argument("index", help="index file in any format")
    p.add_argument("-o", "--output", required=True, help="converted output")
    p.add_argument(
        "--format",
        choices=["v1", "v2", "v3"],
        default="v2",
        help="target format (default: v2 flat-array; v3 = compact "
        "quantized arrays)",
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="report entry counts, encoding widths, and size ratios",
    )
    p.add_argument(
        "--force",
        action="store_true",
        help="overwrite an existing output file",
    )
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser(
        "shard",
        help="split an index into a sharded directory (v2 files + manifest)",
    )
    p.add_argument("index", help="index file in either format")
    p.add_argument(
        "-o", "--output", required=True, help="shard directory to create"
    )
    p.add_argument(
        "--shards",
        type=int,
        default=4,
        metavar="N",
        help="number of contiguous vertex-range shards (default: 4)",
    )
    p.add_argument(
        "--format",
        choices=["v2", "v3"],
        default="v2",
        help="per-shard file format (default: v2; v3 = compact "
        "quantized arrays)",
    )
    p.add_argument(
        "--force",
        action="store_true",
        help="replace an existing shard directory",
    )
    p.set_defaults(func=_cmd_shard)

    p = sub.add_parser(
        "serve",
        help="serve distance queries over asyncio TCP (binary frames "
        "and JSON lines on one port)",
        description="Serve distance queries over asyncio TCP.  One port "
        "speaks two codecs, told apart by a request's first byte: binary "
        "frames (what repro.serve.DistanceClient.query sends: int64 "
        "columns in, float64 distances out) and JSON lines, usable from "
        'nc: {"pairs": [[s, t], ...]}, {"op": "ping"}, {"op": "stats"}.  '
        "docs/FORMATS.md has the bytes.",
    )
    p.add_argument(
        "index",
        help="index file from `repro build`, or a `repro shard` directory",
    )
    p.add_argument(
        "--host",
        default="127.0.0.1",
        help="listen address (default: 127.0.0.1)",
    )
    p.add_argument(
        "--port",
        type=int,
        default=0,
        help="listen port (default: 0 = pick a free port and print it)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="shared-memory fan-out workers (default: all cores; 1, or "
        "a cache-resident index, serves inline with no fork)",
    )
    p.add_argument(
        "--max-batch",
        type=int,
        default=8192,
        metavar="PAIRS",
        help="admission window: dispatch a coalesced batch at this many "
        "pairs (default: 8192)",
    )
    p.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        metavar="MS",
        help="admission window: longest wait for batch companions while "
        "traffic keeps arriving (default: 2.0; a lone request never "
        "waits)",
    )
    p.add_argument(
        "--max-pending",
        type=int,
        default=262144,
        metavar="PAIRS",
        help="backpressure high-water mark: reject requests (code 429) "
        "past this many admitted-but-unanswered pairs (default: 262144)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "update",
        help="insert edges into a built index (incremental label repair)",
    )
    p.add_argument(
        "index",
        help="index file from `repro build`, or a `repro shard` directory "
        "(reconciled in place, only changed shards rewritten)",
    )
    p.add_argument(
        "--edges",
        required=True,
        metavar="FILE",
        help="edge list to insert: one 'u v [w]' per line",
    )
    p.add_argument(
        "-o",
        "--output",
        help="write the updated index here (default: in place, atomic)",
    )
    p.add_argument(
        "--shards",
        metavar="DIR",
        help="also reconcile this shard directory with the same updates",
    )
    p.set_defaults(func=_cmd_update)

    p = sub.add_parser("stats", help="profile a graph (scale-free checks)")
    p.add_argument("graph", help="edge-list file")
    p.add_argument("--directed", action="store_true")
    p.add_argument("--weighted", action="store_true")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("generate", help="generate a synthetic graph")
    p.add_argument("model", choices=["glp", "ba", "er"])
    p.add_argument("-n", type=int, required=True, help="number of vertices")
    p.add_argument("-o", "--output", required=True)
    p.add_argument(
        "--density",
        type=float,
        default=10.0,
        help="target edge density |E|/|V| (default: 10)",
    )
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    p.add_argument("--directed", action="store_true")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser(
        "verify", help="verify an index against its graph (exit 1 on failure)"
    )
    p.add_argument("graph", help="edge-list file")
    p.add_argument(
        "index",
        help="index file from `repro build`, or a `repro shard` directory",
    )
    p.add_argument("--directed", action="store_true")
    p.add_argument("--weighted", action="store_true")
    p.add_argument(
        "--samples",
        type=int,
        default=500,
        help="random pairs checked against exact search (default: 500)",
    )
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    # `query` takes both a variadic int positional and options; argparse
    # cannot backtrack into a zero-width positional once it has seen an
    # option (`query IDX --mmap 0 5` leaves `0 5` unparsed), and
    # parse_intermixed_args does not support subparsers.  Recover the
    # stranded vertex ids by hand so either argument order works.
    args, extra = parser.parse_known_args(argv)
    if extra:
        if getattr(args, "command", None) == "query" and all(
            _is_int(tok) for tok in extra
        ):
            args.pair.extend(int(tok) for tok in extra)
        else:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args.func(args)


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
