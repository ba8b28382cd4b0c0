"""Storage-backend microbenchmark: tuple lists vs CSR flat arrays.

The same 2-hop labels laid out as contiguous arrays instead of one
tuple per entry.  This file measures both backends on the same index
over a 10k-vertex Barabasi-Albert graph and gates what the flat store
is *for*, all of it deterministic: bit-identical distances, 12 bytes
per entry plus offsets, and a memory-mapped load that does not walk
the labels (a legacy v1 file's read must).  The scalar ``query``
rates of the two backends are measured interleaved and **exported**
(``BENCH_store_throughput.json``, with the per-repeat spread of their
ratio) but not gated: the
tuple-list side chases ~400k heap tuples, so the ratio follows the
allocator and the host (1.2-2.5 on one box at one commit), not the
store.  Batch throughput, the number serving depends on, is gated in
``test_query_throughput.py``.

The index is built with the PLL baseline (canonical 2-hop labeling —
identical entries to the HopDb builders on unweighted graphs, see
``test_index_size_ordering`` — and ~8x faster to construct, which
keeps this file quick).
"""

from __future__ import annotations

import statistics
import time

import pytest

from paper.baselines.pll import build_pll
from paper.bench.export import write_bench_json
from paper.bench.metrics import interleaved_rates
from paper.bench.workloads import random_pairs
from paper.labels import to_store
from repro.core.flatstore import FlatLabelStore, load_store
from repro.graphs.generators import ba_graph
from repro.oracle import DistanceOracle
from tests.reference.v1_writer import write_v1

NUM_VERTICES = 10_000
NUM_PAIRS = 2_000


@pytest.fixture(scope="module")
def stores():
    graph = ba_graph(NUM_VERTICES, m=2, seed=1)
    index, _ = build_pll(graph)
    return index, to_store(index)


@pytest.fixture(scope="module")
def pairs():
    return random_pairs(NUM_VERTICES, NUM_PAIRS, seed=77)


def _pair_loop(query):
    """Wrap a per-pair callable as a whole-workload run for the timer."""

    def run(pairs):
        for s, t in pairs:
            query(s, t)

    return run


def test_list_store_throughput(benchmark, stores, pairs):
    """Baseline: merge join over per-vertex tuple lists."""
    index, _ = stores
    query = index.query

    def run():
        for s, t in pairs:
            query(s, t)

    benchmark(run)
    micros = benchmark.stats.stats.mean * 1e6 / len(pairs)
    assert micros < 1000.0


def test_flat_store_throughput(benchmark, stores, pairs):
    """CSR flat arrays with dict-probe evaluation."""
    _, flat = stores
    query = flat.query

    def run():
        for s, t in pairs:
            query(s, t)

    benchmark(run)
    micros = benchmark.stats.stats.mean * 1e6 / len(pairs)
    assert micros < 1000.0


def test_oracle_batch_throughput(benchmark, stores, pairs):
    """The serving path: grouped merge joins through the oracle."""
    _, flat = stores
    oracle = DistanceOracle(flat, cache_size=0)

    result = benchmark(lambda: oracle.query_batch(pairs))
    index, _ = stores
    assert result == [index.query(s, t) for s, t in pairs]


def test_flat_store_gates_and_export(stores, pairs, tmp_path):
    """What the flat store is for, gated; the scalar rates, exported."""
    index, flat = stores
    entries = flat.total_entries(include_trivial=True)
    assert entries == index.total_entries(include_trivial=True)
    # i32 pivot + f64 distance per entry, i64 offsets: no per-entry object.
    assert flat.storage_bytes() == 12 * entries + 8 * (NUM_VERTICES + 1)

    write_v1(index, tmp_path / "labels.idx")
    flat.save(tmp_path / "labels.idx2")
    start = time.perf_counter()
    loaded = load_store(tmp_path / "labels.idx")
    v1_load_seconds = time.perf_counter() - start
    start = time.perf_counter()
    mapped = FlatLabelStore.load(tmp_path / "labels.idx2", use_mmap=True)
    mmap_load_seconds = time.perf_counter() - start
    try:
        assert mapped.is_mmapped
        probe = pairs[:200]
        assert [mapped.query(s, t) for s, t in probe] == [
            loaded.query(s, t) for s, t in probe
        ]
    finally:
        mapped.close()
    # A handful of casts against a walk of every v1 label.
    assert mmap_load_seconds < v1_load_seconds

    runs = [_pair_loop(index.query), _pair_loop(flat.query)]
    rounds = [interleaved_rates(runs, pairs, repeats=1) for _ in range(9)]
    list_rate = max(rate for rate, _ in rounds)
    flat_rate = max(rate for _, rate in rounds)
    ratios = [flat_r / list_r for list_r, flat_r in rounds]
    write_bench_json(
        "store_throughput",
        {
            "num_vertices": NUM_VERTICES,
            "num_pairs": NUM_PAIRS,
            "entries": entries,
            "storage_bytes_per_entry": round(flat.storage_bytes() / entries, 3),
            "v1_load_seconds": round(v1_load_seconds, 4),
            "mmap_load_seconds": round(mmap_load_seconds, 6),
            "list_rate": round(list_rate),
            "flat_rate": round(flat_rate),
            "flat_vs_list_ratio": round(flat_rate / list_rate, 3),
            "ratio_per_repeat_quartiles": [
                round(q, 3) for q in statistics.quantiles(ratios, n=4)
            ],
        },
    )


def test_backends_bit_identical(stores, pairs):
    """Both backends and the batch path answer every pair identically."""
    index, flat = stores
    expected = [index.query(s, t) for s, t in pairs]
    assert [flat.query(s, t) for s, t in pairs] == expected
    oracle = DistanceOracle(flat)
    assert oracle.query_batch(pairs) == expected
