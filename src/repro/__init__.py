"""repro — Hop Doubling Label Indexing (VLDB 2014) reproduction.

A production-quality reimplementation of

    Jiang, Fu, Wong, Xu:
    "Hop Doubling Label Indexing for Point-to-Point Distance Querying
    on Scale-Free Networks", PVLDB 7(12), 2014 (arXiv:1403.0779).

Quick start::

    from repro import HopDoublingIndex
    from repro.graphs import glp_graph

    graph = glp_graph(5_000, seed=42)         # scale-free synthetic graph
    index = HopDoublingIndex.build(graph)     # paper-default hybrid build
    index.query(17, 3021)                     # exact shortest-path distance

Subpackages
-----------
``repro.graphs``     graph containers, generators, I/O, statistics
``repro.core``       the labeling algorithms (hop-doubling / stepping /
                     hybrid), pruning, label stores, dynamic updates
``repro.oracle``     the batched DistanceOracle serving layer
``repro.serve``      the asyncio distance server and client

The paper's Section 8 tables and figures, its baselines and its
external-memory simulation are a separate, uninstalled reproduction kit
(``paper/`` in the source repository) built on this package.
"""

from repro.core.flatstore import FlatLabelStore
from repro.core.index import HopDoublingIndex
from repro.core.labels import INF, LabelStore
from repro.graphs.digraph import Graph
from repro.oracle import DistanceOracle, ShardedLabelStore

__version__ = "1.2.0"

__all__ = [
    "HopDoublingIndex",
    "LabelStore",
    "FlatLabelStore",
    "DistanceOracle",
    "ShardedLabelStore",
    "Graph",
    "INF",
    "__version__",
]
