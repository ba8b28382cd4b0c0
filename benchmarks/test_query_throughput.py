"""Batch-query benchmark: the vectorized kernel vs the scalar probe path.

The tentpole claim of the kernel (:mod:`repro.oracle.kernel`) is that
an entire batch answered with numpy array passes beats the per-pair
Python probe loop by a wide margin while returning bit-identical
distances; the companion claim of binary format v3 is that the same
labels fit in half (in practice about a quarter) of the v2 bytes and
query at full kernel speed straight from the compact arrays.  This
file builds one index over the standard 10k-vertex Barabasi-Albert
graph and enforces:

* **bit-identical answers** between the scalar path, the kernel over
  the v2 store, and the kernel over the mmap-loaded v3 store;
* the **>= 3x kernel throughput floor** over the scalar batch path
  (measured ~10x on CPython 3.11);
* the **<= 50% v3 file-size ceiling** relative to the v2 file
  (measured ~25% on this index: 2-byte delta pivots + 1-byte
  quantized distances vs 4-byte pivots + 8-byte floats).

A second batch draws its endpoints from a Zipf popularity ranking —
the traffic a scale-free graph gets — so about half its pairs repeat
another: the kernel must answer it identically while evaluating the
distinct pairs only (checked on its own counters, not on a timing).

The kernel fills its row cache the first time a batch names a vertex,
so the first pass over a freshly opened store is timed next to the
steady passes (``first_touch_pairs_per_s``): the cost moved from open
to first use stays on record.

Every run records its measurements in ``BENCH_query_throughput.json``
(uploaded as a CI artifact), so the throughput trajectory is visible
per commit.
"""

from __future__ import annotations

import time

import pytest

from repro.baselines.pll import build_pll
from repro.bench.export import write_bench_json
from repro.bench.metrics import interleaved_rates
from repro.bench.workloads import random_pairs
from repro.core.flatstore import FlatLabelStore
from repro.core.quantized import QuantizedLabelStore
from repro.graphs.generators import ba_graph
from repro.oracle import DistanceOracle, kernel

np = pytest.importorskip(
    "numpy", reason="the vectorized query kernel requires numpy"
)

NUM_VERTICES = 10_000
NUM_PAIRS = 20_000
#: Acceptance floor for the kernel vs the scalar batch path.  The
#: hub-table kernel measures ~8-10x; 3.0 is the criterion with
#: headroom for machine noise.
MIN_KERNEL_SPEEDUP = 3.0
#: Acceptance ceiling for the v3 file size relative to v2.
MAX_V3_SIZE_RATIO = 0.5


@pytest.fixture(scope="module")
def assets(tmp_path_factory):
    """One PLL index saved as v2 and v3, plus the serving stores."""
    graph = ba_graph(NUM_VERTICES, m=2, seed=1)
    index, _ = build_pll(graph)
    flat = FlatLabelStore.from_index(index)
    root = tmp_path_factory.mktemp("query-bench")
    v2_path = root / "index.idx2"
    v3_path = root / "index.idx3"
    flat.save(v2_path)
    QuantizedLabelStore.from_flat(flat).save(v3_path)
    quantized = QuantizedLabelStore.load(v3_path, use_mmap=True)
    yield flat, quantized, v2_path, v3_path
    quantized.close()


@pytest.fixture(scope="module")
def pairs():
    return random_pairs(NUM_VERTICES, NUM_PAIRS, seed=77)


@pytest.fixture(scope="module")
def zipf_pairs():
    """``NUM_PAIRS`` pairs whose endpoints follow Zipf(1.2) popularity."""
    gen = np.random.default_rng(77)
    popular = gen.permutation(NUM_VERTICES)
    ranks = gen.zipf(1.2, size=8 * NUM_PAIRS)
    ends = popular[ranks[ranks <= NUM_VERTICES][: 2 * NUM_PAIRS] - 1]
    return list(zip(ends[:NUM_PAIRS].tolist(), ends[NUM_PAIRS:].tolist()))


def distinct_evaluations(pairs) -> int:
    """Pairs the kernel evaluates on an undirected store: the ``s != t``
    ones, a pair and its mirror counting once (orientation puts both
    the same way round)."""
    return len({(min(s, t), max(s, t)) for s, t in pairs if s != t})


def test_kernel_answers_bit_identical(assets, pairs):
    """Scalar path, v2 kernel, and mmapped-v3 kernel agree everywhere."""
    flat, quantized, _, _ = assets
    expected = DistanceOracle(flat, cache_size=0,
                              kernel="off").query_batch(pairs)
    assert DistanceOracle(flat, cache_size=0,
                          kernel="on").query_batch(pairs) == expected
    assert DistanceOracle(quantized, cache_size=0,
                          kernel="on").query_batch(pairs) == expected


def test_zipf_batch_evaluates_distinct_pairs_only(assets, zipf_pairs):
    """Repeated pairs cost nothing, and change no answer."""
    flat, quantized, _, _ = assets
    assert len(zipf_pairs) == NUM_PAIRS
    oracle = DistanceOracle(quantized, cache_size=0, kernel="on")
    before = kernel.stats()
    got = oracle.query_batch(zipf_pairs)
    after = kernel.stats()
    assert got == DistanceOracle(
        flat, cache_size=0, kernel="off"
    ).query_batch(zipf_pairs)
    distinct = after["distinct_pairs"] - before["distinct_pairs"]
    assert distinct == distinct_evaluations(zipf_pairs)
    assert distinct < 0.75 * NUM_PAIRS
    # Rows are filled once per vertex named, not once per pair, and
    # the join gathers tails only: the hub table holds the rest of
    # every label, so well under half of what the labels would cost.
    named = {v for pair in zipf_pairs for v in pair if pair[0] != pair[1]}
    assert after["rows_filled"] - before["rows_filled"] <= len(named)
    size = np.diff(np.asarray(quantized.out_offsets, dtype=np.int64))
    whole_labels = sum(
        int(min(size[s], size[t]))
        for s, t in {(min(p), max(p)) for p in zipf_pairs if p[0] != p[1]}
    )
    gathered = after["gathered_entries"] - before["gathered_entries"]
    assert 0 < gathered < 0.5 * whole_labels


def test_scalar_batch_throughput(benchmark, assets, pairs):
    """Baseline: the per-pair dict-probe loop (kernel pinned off)."""
    flat, _, _, _ = assets
    oracle = DistanceOracle(flat, cache_size=0, kernel="off")
    benchmark(lambda: oracle.query_batch(pairs))


def test_kernel_batch_throughput(benchmark, assets, pairs):
    """The vectorized kernel over the v2 CSR arrays."""
    flat, _, _, _ = assets
    oracle = DistanceOracle(flat, cache_size=0, kernel="on")
    result = benchmark(lambda: oracle.query_batch(pairs))
    assert result == [flat.query(s, t) for s, t in pairs]


def test_kernel_v3_batch_throughput(benchmark, assets, pairs):
    """The vectorized kernel straight over the mmapped v3 arrays."""
    _, quantized, _, _ = assets
    oracle = DistanceOracle(quantized, cache_size=0, kernel="on")
    benchmark(lambda: oracle.query_batch(pairs))


def test_v3_size_ceiling(assets):
    """The acceptance criterion: v3 files <= 50% of the v2 bytes."""
    _, quantized, v2_path, v3_path = assets
    ratio = v3_path.stat().st_size / v2_path.stat().st_size
    assert ratio <= MAX_V3_SIZE_RATIO, (
        f"v3 file is {ratio:.1%} of v2 ({v3_path.stat().st_size:,} vs "
        f"{v2_path.stat().st_size:,} bytes) — above the "
        f"{MAX_V3_SIZE_RATIO:.0%} ceiling"
    )
    assert quantized.is_quantized


def test_kernel_throughput_floor_and_export(assets, pairs, zipf_pairs):
    """The acceptance criterion: kernel >= 3x the scalar batch path.

    Measures all three serving configurations interleaved, asserts the
    floor on the v2 kernel, and exports every rate (plus the v3
    kernel's rate on the Zipf batch and on the first pass over a
    freshly opened store, the share of the Zipf batch that is
    distinct work, and the on-disk size comparison) to
    ``BENCH_query_throughput.json``.
    """
    flat, quantized, v2_path, v3_path = assets
    scalar = DistanceOracle(flat, cache_size=0, kernel="off")
    kernel_v2 = DistanceOracle(flat, cache_size=0, kernel="on")
    kernel_v3 = DistanceOracle(quantized, cache_size=0, kernel="on")
    scalar_rate, v2_rate, v3_rate = interleaved_rates(
        [scalar.query_batch, kernel_v2.query_batch, kernel_v3.query_batch],
        pairs,
        repeats=7,
    )
    (zipf_rate,) = interleaved_rates(
        [kernel_v3.query_batch], zipf_pairs, repeats=7
    )
    # The same batch against a store nothing has touched yet: hub
    # columns chosen and every named row filled inside the timed call.
    fresh = QuantizedLabelStore.load(v3_path, use_mmap=True)
    try:
        start = time.perf_counter()
        first = DistanceOracle(fresh, cache_size=0, kernel="on").query_batch(
            pairs
        )
        first_touch_rate = NUM_PAIRS / (time.perf_counter() - start)
        assert first == kernel_v3.query_batch(pairs)
    finally:
        fresh.close()
    speedup = v2_rate / scalar_rate
    v2_size = v2_path.stat().st_size
    v3_size = v3_path.stat().st_size
    write_bench_json(
        "query_throughput",
        {
            "num_vertices": NUM_VERTICES,
            "num_pairs": NUM_PAIRS,
            "kernel": "numpy",
            "scalar_pairs_per_sec": round(scalar_rate),
            "kernel_v2_pairs_per_sec": round(v2_rate),
            "kernel_v3_pairs_per_sec": round(v3_rate),
            "kernel_speedup": round(speedup, 3),
            "kernel_v3_speedup": round(v3_rate / scalar_rate, 3),
            "zipf_pairs_per_s": round(zipf_rate),
            "first_touch_pairs_per_s": round(first_touch_rate),
            "distinct_share": round(
                distinct_evaluations(zipf_pairs) / NUM_PAIRS, 4
            ),
            "floor": MIN_KERNEL_SPEEDUP,
            "v2_file_bytes": v2_size,
            "v3_file_bytes": v3_size,
            "v3_size_ratio": round(v3_size / v2_size, 4),
            "v3_pivot_width": quantized.pivot_width,
            "v3_dist_width": quantized.dist_width,
        },
    )
    assert speedup >= MIN_KERNEL_SPEEDUP, (
        f"kernel {v2_rate:,.0f} pairs/s vs scalar {scalar_rate:,.0f} "
        f"pairs/s — {speedup:.2f}x is below the {MIN_KERNEL_SPEEDUP}x floor"
    )
