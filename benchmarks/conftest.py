"""Shared fixtures for the paper-artifact benchmarks.

Index builds are expensive relative to queries, so built artifacts are
cached per session; the `benchmark` fixture then measures the cheap,
repeatable operation (query batches) or a single-shot build via
``benchmark.pedantic``.

Dataset scale is controlled by ``REPRO_SCALE`` (default 1) and method
build budgets by ``REPRO_BUDGET`` (seconds, default 45).
"""

from __future__ import annotations

import pytest

from paper.bench.datasets import load_dataset
from paper.bench.workloads import random_pairs
from repro.core.hybrid import make_builder


@pytest.fixture(scope="session")
def built_indexes():
    """Hybrid HopDb indexes for the quick-profile datasets, built once."""
    cache = {}

    def get(name: str):
        if name not in cache:
            graph = load_dataset(name)
            cache[name] = (graph, make_builder(graph, "hybrid").build())
        return cache[name]

    return get


@pytest.fixture(scope="session")
def query_workload():
    """Deterministic query pairs for a given graph size."""

    def make(num_vertices: int, count: int = 500, seed: int = 77):
        return random_pairs(num_vertices, count, seed=seed)

    return make
