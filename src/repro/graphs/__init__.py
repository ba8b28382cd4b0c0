"""Graph substrate: containers, builders, I/O, generators, statistics.

Everything in :mod:`repro.core` operates on the :class:`~repro.graphs.Graph`
container defined here.  The container is deliberately static (immutable
after construction) because the paper targets *static* graphs: the index
is built once and queried many times.
"""

from repro.graphs.digraph import Graph
from repro.graphs.builder import GraphBuilder
from repro.graphs.io import (
    read_edge_list,
    write_edge_list,
    read_binary,
    write_binary,
)
from repro.graphs.generators import (
    ba_graph,
    configuration_model_graph,
    er_graph,
    glp_graph,
    grid_graph,
    path_graph,
    star_graph,
    complete_graph,
    cycle_graph,
)
from repro.graphs.stats import (
    GraphSummary,
    degree_histogram,
    expansion_factor,
    hop_diameter,
    rank_exponent,
    summarize,
)
from repro.graphs.traversal import (
    INF,
    bfs_distances,
    bidirectional_bfs,
    bidirectional_dijkstra,
    dijkstra_distances,
)
from repro.graphs.transform import (
    largest_connected_component,
    permute_vertices,
    to_undirected,
    reverse_graph,
)

__all__ = [
    "Graph",
    "GraphBuilder",
    "read_edge_list",
    "write_edge_list",
    "read_binary",
    "write_binary",
    "ba_graph",
    "configuration_model_graph",
    "er_graph",
    "glp_graph",
    "grid_graph",
    "path_graph",
    "star_graph",
    "complete_graph",
    "cycle_graph",
    "GraphSummary",
    "degree_histogram",
    "expansion_factor",
    "hop_diameter",
    "rank_exponent",
    "summarize",
    "INF",
    "bfs_distances",
    "bidirectional_bfs",
    "bidirectional_dijkstra",
    "dijkstra_distances",
    "largest_connected_component",
    "permute_vertices",
    "to_undirected",
    "reverse_graph",
]
