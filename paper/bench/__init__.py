"""Benchmark harness regenerating the paper's evaluation (Section 8).

Layout:

* :mod:`paper.bench.datasets` — deterministic scaled stand-ins for the
  paper's 27 graphs (see DESIGN.md, substitutions);
* :mod:`paper.bench.workloads` — query-pair generators;
* :mod:`paper.bench.metrics` — timing helpers and method budgets;
* :mod:`paper.bench.harness` — shared method runners;
* ``table6`` / ``table7`` / ``table8`` / ``figure8`` / ``figure9`` /
  ``figure10`` — one driver per paper artifact, each printing rows or
  series shaped like the original and returning structured results for
  the pytest-benchmark front-ends under ``benchmarks/``.
"""

from paper.bench.datasets import (
    DATASETS,
    DatasetSpec,
    dataset_by_name,
    load_dataset,
    profile_names,
)
from paper.bench.workloads import random_pairs, reachable_pairs, stratified_pairs
from paper.bench.metrics import QueryTiming, time_queries

__all__ = [
    "DATASETS",
    "DatasetSpec",
    "dataset_by_name",
    "load_dataset",
    "profile_names",
    "random_pairs",
    "reachable_pairs",
    "stratified_pairs",
    "QueryTiming",
    "time_queries",
]
