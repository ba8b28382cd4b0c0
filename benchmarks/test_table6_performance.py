"""Table 6 — performance comparison of BIDIJ / IS-Label / PLL / HopDb.

Regenerates the paper's main table on the quick-profile scaled
datasets and asserts its *shape* claims:

* HopDb's index is never larger than IS-Label's and matches PLL's on
  unweighted graphs (canonical labeling identity);
* label queries beat online bidirectional search by a wide margin;
* the disk-resident query touches only the two label lists.

Run ``python -m paper table6 --profile full`` for the whole
27-row table.
"""

from __future__ import annotations

import pytest

from paper.baselines.bidij import BidirectionalSearchOracle
from paper.baselines.islabel import build_islabel
from paper.baselines.pll import build_pll
from paper.bench.datasets import load_dataset, profile_names
from paper.io_sim.disk_index import DiskResidentIndex
from paper.io_sim.diskmodel import DiskModel

QUICK = profile_names("quick")


@pytest.mark.parametrize("name", QUICK)
def test_hopdb_query_throughput(benchmark, built_indexes, query_workload, name):
    """The 'Memory query time' column for HopDb."""
    graph, result = built_indexes(name)
    index = result.index
    pairs = query_workload(graph.num_vertices)

    def run():
        q = index.query
        for s, t in pairs:
            q(s, t)

    benchmark(run)
    # Shape assertion: thousands of queries per second even in Python.
    micros = benchmark.stats.stats.mean * 1e6 / len(pairs)
    assert micros < 1000.0


@pytest.mark.parametrize("name", ["enron", "slashdot"])
def test_bidij_query_cost(benchmark, built_indexes, query_workload, name):
    """The BIDIJ column: online search is orders of magnitude slower."""
    graph, result = built_indexes(name)
    oracle = BidirectionalSearchOracle(graph)
    pairs = query_workload(graph.num_vertices, count=30)

    def run():
        for s, t in pairs:
            oracle.query(s, t)

    benchmark(run)
    per_query_bidij = benchmark.stats.stats.mean / len(pairs)
    # Compare with the label index on identical pairs.
    import time

    index = result.index
    t0 = time.perf_counter()
    for _ in range(10):
        for s, t in pairs:
            index.query(s, t)
    per_query_label = (time.perf_counter() - t0) / (10 * len(pairs))
    assert per_query_bidij > 2.0 * per_query_label


@pytest.mark.parametrize("name", ["enron", "cat", "syn5"])
def test_index_size_ordering(benchmark, built_indexes, name):
    """Index-size columns: HopDb == PLL (unweighted), <= IS-Label."""
    graph, result = built_indexes(name)

    def measure():
        pll, _ = build_pll(graph)
        isl = build_islabel(graph)
        return pll, isl

    pll, isl = benchmark.pedantic(measure, rounds=1, iterations=1)
    hop_entries = result.index.total_entries()
    assert hop_entries == pll.total_entries()
    assert hop_entries <= isl.labels.total_entries()
    assert result.index.size_in_bytes() <= isl.size_in_bytes()


@pytest.mark.parametrize("name", ["enron", "wikieng"])
def test_disk_query_blocks(benchmark, built_indexes, query_workload, name):
    """The 'Disk query time' column: two label reads per query."""
    graph, result = built_indexes(name)
    disk_index = DiskResidentIndex(result.index, DiskModel(block_entries=64))
    pairs = query_workload(graph.num_vertices, count=200)

    def run():
        disk_index.reset_counters()
        for s, t in pairs:
            disk_index.query(s, t)
        return disk_index.avg_blocks_per_query()

    blocks = benchmark(run)
    assert 2.0 <= blocks < 64.0
    # Simulated latency lands in the paper's disk-query territory
    # (milliseconds, dominated by the two seeks).
    assert 0.001 < disk_index.avg_query_seconds() < 0.1


@pytest.mark.parametrize("name", ["enron"])
def test_hopdb_external_build(benchmark, name):
    """The 'Indexing time' column for the external HopDb build."""
    from paper.io_sim.external_labeling import ExternalLabelingBuilder

    graph = load_dataset(name)

    def build():
        return ExternalLabelingBuilder(graph, DiskModel()).build()

    result = benchmark.pedantic(build, rounds=1, iterations=1)
    assert result.total_io.total > 0
    assert result.index.total_entries() > 0
