"""Command-line interface: ``python -m repro`` or the ``repro`` script.

Subcommands::

    repro build GRAPH -o INDEX [--directed] [--weighted] [--strategy S]
                               [--format {v2,v3}] [--force]
    repro query INDEX|DIR [S T ...] [--batch FILE]
    repro convert INDEX -o OUTPUT [--format {v2,v3}] [--stats] [--force]
    repro shard INDEX -o DIR [--shards N] [--format {v2,v3}] [--force]
    repro serve INDEX|DIR [--host H] [--port P] [--max-batch PAIRS]
                               [--max-wait-ms MS] [--max-pending PAIRS]
    repro update INDEX|DIR --edges FILE [-o OUT] [--shards DIR]
    repro stats GRAPH [--directed] [--weighted]
    repro generate MODEL -n N -o GRAPH [--density D] [--seed K]
                               [--directed]
    repro verify GRAPH INDEX|DIR [--directed] [--weighted] [--samples N]

Every text input — a ``GRAPH`` edge list (``u v [w]`` per line), a
``--batch`` file (``s t``) and an ``--edges`` file (``u v [w]``) — is
read by the one reader of :mod:`repro.graphs.io`: ``#``/``%``
comments and blank lines skipped, ``.gz`` read transparently, integer
vertex ids kept as written, so every command addresses the file's
ids.  ``INDEX`` files use the library's binary label formats.  Every
command that writes one writes v3 (compact arrays) unless ``--format
v2`` (int32 pivots, f64 distances) asks otherwise; every command reads
v1 (legacy per-entry structs), v2 and v3, and ``repro convert``
rewrites any of them as v2 or v3 (``--stats`` reports the size
breakdown).  ``repro shard`` splits an index into a directory of
per-vertex-range files plus a manifest (``DIR``); every command that
reads an index takes either.  ``repro update`` inserts edges into a
built index or shard directory by incremental Hop-Doubling label
repair — no rebuild — and writes the format it read; a shard directory
has only its changed shards rewritten and their manifest checksums
refreshed.  ``build``, ``convert`` and ``update -o`` refuse to replace
an existing file (``--force`` for the first two; ``update`` writes in
place without ``-o``).  ``repro query`` and ``repro serve`` open their
index the same way, memory-mapped, behind one
:class:`~repro.oracle.DistanceOracle` that answers every batch in the
calling process; ``--batch FILE`` evaluates its pairs with the
vectorized numpy kernel (per-pair queries below four pairs).  ``repro
serve`` runs the asyncio distance server of :mod:`repro.serve`:
concurrent clients' requests coalesce into kernel batches under an
admission window (see ``docs/ARCHITECTURE.md``).  A missing or corrupt
input, an invalid option value or an out-of-range vertex id is one
``error:`` line on stderr and exit status 2; ``verify`` exits 1 on
violations.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.core.index import HopDoublingIndex
from repro.graphs.generators import ba_graph, er_graph, glp_graph
from repro.graphs.io import read_edge_list, read_records, write_edge_list
from repro.graphs.stats import summarize
from repro.utils.prettyprint import format_bytes, format_count
from repro.utils.timer import format_duration

_FORCE = "pass --force to overwrite it"


def _print_round(it) -> None:
    """One stderr line per finished build round (``IterationStats``)."""
    print(
        f"round {it.iteration} ({it.mode}): "
        f"{it.distinct_generated} candidates, {it.admitted} admitted, "
        f"{it.survived} survived, {it.total_entries} entries, "
        f"{format_duration(it.elapsed)}",
        file=sys.stderr,
    )


def _check_output(path, overwrite: bool, hint: str) -> None:
    """The one existing-output guard of the commands that write a file.

    Refuses an existing ``path`` unless ``overwrite`` (``hint`` says how
    to get past it), and a ``path`` whose directory does not exist —
    both before the command does any work.
    """
    if os.path.exists(path) and not overwrite:
        raise FileExistsError(f"{path} already exists; {hint}")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise FileNotFoundError(f"{path}: no directory {parent}")


def _open_store(path, use_mmap: bool = False):
    """The label store of an index file (any version) or shard directory."""
    from repro.core.flatstore import load_store
    from repro.oracle import ShardedLabelStore

    if os.path.isfile(path):
        return load_store(path, use_mmap=use_mmap)
    return ShardedLabelStore.load(path, use_mmap=use_mmap)


def _open_oracle(args: argparse.Namespace):
    """The oracle ``query`` and ``serve`` answer from: the index file or
    shard directory memory-mapped, result cache off."""
    from repro.oracle import DistanceOracle

    return DistanceOracle(_open_store(args.index, use_mmap=True), cache_size=0)


def _cmd_build(args: argparse.Namespace) -> int:
    _check_output(args.output, args.force, _FORCE)
    graph = read_edge_list(
        args.graph, directed=args.directed, weighted=args.weighted
    )
    print(f"loaded {graph}")
    index = HopDoublingIndex.build(
        graph,
        strategy=args.strategy,
        ranking=args.ranking,
        on_round=_print_round,
    )
    stats = index.stats()
    print(
        f"built in {format_duration(index.build_result.build_seconds)} "
        f"({index.num_iterations} iterations): "
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
    from repro.oracle import read_pair_file

    # Validate the invocation before paying for the index load.
    if len(args.pair) % 2 != 0:
        print("error: provide an even number of vertex ids", file=sys.stderr)
        return 2
    if not args.pair and not args.batch:
        print("error: provide vertex pairs or --batch FILE", file=sys.stderr)
        return 2
    batch_pairs = read_pair_file(args.batch) if args.batch else None
    oracle = _open_oracle(args)
    try:
        for i in range(0, len(args.pair), 2):
            s, t = args.pair[i], args.pair[i + 1]
            d = oracle.query(s, t)
            shown = "unreachable" if d == float("inf") else f"{d:g}"
            print(f"dist({s}, {t}) = {shown}")
        if batch_pairs is not None:
            import time

            t0 = time.perf_counter()
            distances = oracle.query_batch(batch_pairs)
            elapsed = time.perf_counter() - t0
            for (s, t), d in zip(batch_pairs, distances):
                shown = "inf" if d == float("inf") else f"{d:g}"
                print(f"{s}\t{t}\t{shown}")
            rate = len(batch_pairs) / elapsed if elapsed > 0 else float("inf")
            print(
                f"answered {len(batch_pairs)} pairs in {format_duration(elapsed)} "
                f"({rate:,.0f} pairs/s)",
                file=sys.stderr,
            )
    finally:
        oracle.close()
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    from repro.core.flatstore import load_store

    _check_output(args.output, args.force, _FORCE)
    out_store = load_store(args.index).encoded(args.format)
    out_store.save(args.output)
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
            space = "rank positions" if out_store.ranked else "vertex ids"
            print(f"  pivot width     {out_store.pivot_width} B (delta; {space})")
            dist_kind = "raw f64" if out_store.dist_width == 8 else "quantized"
            print(
                f"  dist width      {out_store.dist_width} B ({dist_kind})"
            )
        print(f"  bytes/entry     {dst / entries:.2f}")
        print(f"  size vs source  {dst / src:.1%}")
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    from repro.core.flatstore import load_store
    from repro.oracle import ShardedLabelStore
    from repro.oracle.sharding import SHARD_FILE_FORMATS

    sharded = ShardedLabelStore.split(load_store(args.index), args.shards)
    manifest_path = sharded.save(
        args.output, overwrite=args.force, format=args.format
    )
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


def _cmd_update(args: argparse.Namespace) -> int:
    import time

    from repro.core.dynamic import DynamicHopDoublingIndex
    from repro.oracle import ShardedLabelStore

    edges = read_records(args.edges)
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
    if args.output:
        in_place = os.path.exists(args.output) and os.path.samefile(
            args.output, args.index
        )
        _check_output(args.output, in_place, "leave out -o to update in place")
    store = _open_store(args.index)
    if store.rank is None:
        print(
            f"error: {args.index} carries no ranking; rebuild the "
            "index (repro build records it) before updating",
            file=sys.stderr,
        )
        return 2
    dyn = DynamicHopDoublingIndex.from_store(store)
    t0 = time.perf_counter()
    added = dyn.insert_edges(edges)
    repair_seconds = time.perf_counter() - t0
    delta = dyn.pop_label_delta()
    print(
        f"inserted {added} of {len(edges)} edges in "
        f"{format_duration(repair_seconds)}: "
        f"{format_count(len(delta.vertices()))} vertex labels changed"
    )
    store.apply_updates(delta)
    if is_dir:
        _reconcile(store, args.index)
    else:
        target = args.output or args.index
        store.save(target)
        print(f"updated index written to {target} (format {store.encoding})")
    if args.shards:
        sharded = ShardedLabelStore.load(args.shards)
        sharded.apply_updates(delta)
        _reconcile(sharded, args.shards)
    return 0


def _reconcile(sharded, directory) -> None:
    """Rewrite the shards of ``directory`` that staged updates changed."""
    rewritten = sharded.reconcile(directory)
    print(
        f"reconciled {directory}: rewrote "
        f"{len(rewritten)}/{sharded.num_shards} shards "
        f"({', '.join(str(i) for i in rewritten) or 'none'})"
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import DistanceServer

    oracle = _open_oracle(args)
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
        print(
            f"serving {args.index} on {host}:{port} ("
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
    from repro.core.verify import verify_index

    graph = read_edge_list(
        args.graph, directed=args.directed, weighted=args.weighted
    )
    # The arrays as stored, so the checks see the file's rows and
    # pendant section, not labels derived from them.
    store = _open_store(args.index)
    report = verify_index(graph, store, samples=args.samples)
    print(report)
    for violation in report.violations[:20]:
        print(f"  ! {violation}")
    return 0 if report.ok else 1


def _add_format(p: argparse.ArgumentParser, what: str) -> None:
    """The ``--format`` option of every command that writes an index."""
    p.add_argument(
        "--format",
        choices=["v2", "v3"],
        default="v3",
        help=f"{what} format (default: v3 compact arrays; v2 = int32 "
        "pivots and f64 distances)",
    )


def _add_index(p: argparse.ArgumentParser) -> None:
    """The ``INDEX|DIR`` positional of every command that reads an index."""
    p.add_argument(
        "index",
        help="index file from `repro build`, or a `repro shard` directory",
    )


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
    _add_format(p, "index file")
    p.add_argument(
        "--force",
        action="store_true",
        help="overwrite an existing output file",
    )
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("query", help="query a built index")
    _add_index(p)
    p.add_argument("pair", nargs="*", type=int, help="s t [s t ...]")
    p.add_argument(
        "--batch",
        metavar="FILE",
        help="evaluate one 's t' pair per line of FILE (batched path)",
    )
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser(
        "convert", help="rewrite an index file (any version) as v2 or v3"
    )
    p.add_argument("index", help="index file in any format")
    p.add_argument("-o", "--output", required=True, help="converted output")
    _add_format(p, "target")
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
        help="split an index into a sharded directory (files + manifest)",
    )
    p.add_argument("index", help="index file in any format")
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
    _add_format(p, "per-shard file")
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
    _add_index(p)
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
    # Every batch is answered in this process.  Hidden, and 1 is its
    # only value: bench/surface.py::serve_command still passes
    # `--workers 1`, and the option goes when that argument does.
    p.add_argument(
        "--workers", type=int, choices=[1], default=1, help=argparse.SUPPRESS
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
    _add_index(p)
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
    _add_index(p)
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
    # option (`query IDX --batch F 0 5` leaves `0 5` unparsed), and
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
    # The one error boundary: a missing or unreadable file, a corrupt
    # index, an invalid option value or an out-of-range vertex id is
    # one `error:` line and exit 2, never a traceback.
    try:
        return args.func(args)
    except (OSError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
