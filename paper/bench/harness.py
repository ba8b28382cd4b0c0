"""Shared method runners for the table drivers.

One :class:`MethodResult` per (dataset, method) cell group of Table 6:
index size, indexing time, in-memory query time, simulated disk query
time, plus I/O counts for the external build.  Methods that exceed the
per-method budget come back as ``None`` — rendered "—", matching how
the paper reports methods that could not finish within 24 hours.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from paper.baselines.bidij import BidirectionalSearchOracle
from paper.baselines.islabel import build_islabel
from paper.baselines.pll import build_pll
from paper.bench.datasets import DatasetSpec, dataset_by_name, load_dataset
from paper.bench.metrics import QueryTiming, run_with_budget, time_queries
from paper.bench.workloads import random_pairs
from paper.io_sim.disk_index import DiskResidentIndex
from paper.io_sim.diskmodel import DiskModel
from paper.io_sim.external_labeling import ExternalLabelingBuilder
from paper.labels import to_store
from repro.graphs.digraph import Graph
from repro.graphs.stats import GraphSummary, summarize
from repro.oracle import DistanceOracle

#: Default per-method wall-clock budget (seconds); override with
#: REPRO_BUDGET.  The paper's analogue was a 24-hour cutoff.
DEFAULT_BUDGET = 45.0

#: Query workload size (the paper times 1000 random queries).
DEFAULT_NUM_QUERIES = 500

#: BIDIJ gets a smaller workload — it is orders of magnitude slower.
BIDIJ_QUERY_CAP = 60


def method_budget() -> float | None:
    """The per-method build budget (None disables)."""
    raw = os.environ.get("REPRO_BUDGET", str(DEFAULT_BUDGET))
    value = float(raw)
    return None if value <= 0 else value


@dataclass
class MethodResult:
    """Measured costs of one method on one dataset."""

    name: str
    index_bytes: int
    build_seconds: float
    query: QueryTiming | None = None
    disk_query_ms: float | None = None
    io_blocks: int | None = None
    iterations: int | None = None

    @property
    def query_micros(self) -> float | None:
        return self.query.avg_micros if self.query else None


@dataclass
class DatasetResult:
    """All methods' results on one dataset, plus the graph profile."""

    spec: DatasetSpec
    summary: GraphSummary
    methods: dict[str, MethodResult | None] = field(default_factory=dict)

    def get(self, name: str) -> MethodResult | None:
        return self.methods.get(name)


def _serving_query(index):
    """The measured query callable for a 2-hop label index.

    Memory query time is timed the way queries are actually served:
    through the oracle over the CSR store, cache disabled so every
    pair pays the real merge-join cost.  Both 2-hop methods (HopDb
    and PLL) go through this same path so their comparison stays
    apples-to-apples; IS-Label keeps its bespoke two-level evaluator
    and BIDIJ is the online-search contrast.
    """
    oracle = DistanceOracle(to_store(index), cache_size=0)
    return oracle.query


def _run_hopdb(
    graph: Graph, pairs, budget: float | None
) -> MethodResult | None:
    disk = DiskModel()

    def build():
        return ExternalLabelingBuilder(graph, disk, strategy="hybrid").build()

    result = run_with_budget(build, budget)
    if result is None:
        return None
    timing = time_queries(_serving_query(result.index), pairs)
    disk_idx = DiskResidentIndex(result.index, DiskModel())
    for s, t in pairs[:100]:
        disk_idx.query(s, t)
    return MethodResult(
        name="hopdb",
        index_bytes=result.index.size_in_bytes(),
        build_seconds=result.build_seconds,
        query=timing,
        disk_query_ms=disk_idx.avg_query_seconds() * 1e3,
        io_blocks=result.total_io.total,
        iterations=result.num_iterations,
    )


def _run_pll(graph: Graph, pairs, budget: float | None) -> MethodResult | None:
    result = run_with_budget(lambda: build_pll(graph), budget)
    if result is None:
        return None
    index, build_seconds = result
    timing = time_queries(_serving_query(index), pairs)
    return MethodResult(
        name="pll",
        index_bytes=index.size_in_bytes(),
        build_seconds=build_seconds,
        query=timing,
    )


def _run_islabel(
    graph: Graph, pairs, budget: float | None
) -> MethodResult | None:
    isl = run_with_budget(lambda: build_islabel(graph), budget)
    if isl is None:
        return None
    timing = time_queries(isl.query, pairs)
    disk_idx = DiskResidentIndex(isl.labels, DiskModel())
    for s, t in pairs[:100]:
        disk_idx.query(s, t)
    return MethodResult(
        name="islabel",
        index_bytes=isl.size_in_bytes(),
        build_seconds=isl.build_seconds,
        query=timing,
        disk_query_ms=disk_idx.avg_query_seconds() * 1e3,
    )


def _run_bidij(graph: Graph, pairs, budget: float | None) -> MethodResult | None:
    oracle = BidirectionalSearchOracle(graph)
    subset = pairs[:BIDIJ_QUERY_CAP]

    def run():
        return time_queries(oracle.query, subset)

    timing = run_with_budget(run, budget)
    if timing is None:
        return None
    return MethodResult(
        name="bidij",
        index_bytes=0,
        build_seconds=0.0,
        query=timing,
    )


_RUNNERS = {
    "bidij": _run_bidij,
    "islabel": _run_islabel,
    "pll": _run_pll,
    "hopdb": _run_hopdb,
}


def run_dataset(
    name: str,
    methods: tuple[str, ...] = ("bidij", "islabel", "pll", "hopdb"),
    num_queries: int = DEFAULT_NUM_QUERIES,
    budget: float | None = None,
) -> DatasetResult:
    """Run the requested methods on one catalog dataset."""
    spec = dataset_by_name(name)
    graph = load_dataset(name)
    if budget is None:
        budget = method_budget()
    pairs = random_pairs(graph.num_vertices, num_queries, seed=spec.seed + 13)
    result = DatasetResult(spec=spec, summary=summarize(graph))
    for method in methods:
        runner = _RUNNERS.get(method)
        if runner is None:
            raise ValueError(f"unknown method {method!r}; one of {sorted(_RUNNERS)}")
        result.methods[method] = runner(graph, pairs, budget)
    return result
