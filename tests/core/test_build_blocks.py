"""Blocked candidate generation is invisible in the output.

A round runs the rules over blocks of ``prev`` entries and folds each
block into a running minimum per pair (``rules.GENERATE_BLOCK_CANDIDATES``
sizes the blocks).  Here the block size is cut to a few candidates, so
blocks split an owner's candidates, and every build must still write the
v2 and v3 bytes and report the per-round counters of a build whose one
block covers the whole round — for both rule sets and all three
schedules, on undirected, directed, weights 1-9 and fractional-weight
graphs, and on hypothesis draws.  Edge insertions repair through the
same reduction and must leave the same labels and the same delta.

The pruning test's hub table is invisible in the same way: whatever
its column count (one, the default, every vertex) and whichever way
its crossover goes, a build writes the bytes and reports the counters
of a build whose every prune call joins each pivot as a row (zero hub
columns), and a repair leaves the same labels.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from repro.core import arraystate, rules
from repro.core.dynamic import DynamicHopDoublingIndex
from repro.core.index import HopDoublingIndex
from repro.graphs.digraph import Graph
from repro.graphs.generators import glp_graph
from tests.conftest import graph_strategy
from tests.reference.label_lists import label_lists

#: One block per round, whatever its size.
WHOLE_ROUND = 1 << 60
#: Blocks of a handful of candidates: an owner's fan-out spans several.
SMALL_BLOCKS = (1, 3, 7)


def _reweighted(graph: Graph, weight) -> Graph:
    edges = [(u, v, weight()) for u, v, _ in graph.edges()]
    return Graph.from_edges(
        graph.num_vertices, edges, directed=graph.directed, weighted=True
    )


def _graph(name: str) -> Graph:
    rng = random.Random(13)
    if name == "undirected":
        return glp_graph(160, m=2, seed=4)
    if name == "directed":
        return glp_graph(160, seed=4, directed=True)
    if name == "weights-1-9":
        return _reweighted(glp_graph(160, m=2, seed=4), lambda: rng.randint(1, 9))
    if name == "fractional":
        return _reweighted(
            glp_graph(160, m=2, seed=4), lambda: rng.randint(1, 12) / 4
        )
    if name == "weights-1-100":
        return _reweighted(glp_graph(160, m=2, seed=4), lambda: rng.randint(1, 100))
    raise KeyError(name)


GRAPHS = ("undirected", "directed", "weights-1-9", "fractional")


def _counters(index) -> list[tuple]:
    return [
        (
            it.iteration,
            it.mode,
            it.raw_generated,
            it.distinct_generated,
            it.admitted,
            it.pruned,
            it.survived,
            it.total_entries,
            it.prev_size,
        )
        for it in index.iteration_stats
    ]


def _output(graph, tmp_path, **kwargs):
    """File bytes per encoding and the round counters of one build."""
    index = HopDoublingIndex.build(graph, **kwargs)
    files = {}
    for fmt in ("v2", "v3"):
        path = tmp_path / f"index.{fmt}"
        index.save(path, format=fmt)
        files[fmt] = path.read_bytes()
        path.unlink()
    return files, _counters(index)


@pytest.fixture
def block_size(monkeypatch):
    """Set the generation block size for the rest of the test."""

    def set_size(size: int) -> None:
        monkeypatch.setattr(rules, "GENERATE_BLOCK_CANDIDATES", size)

    return set_size


@pytest.fixture
def split_owners(monkeypatch):
    """Record, per reduced block, the sources of its candidates; returns
    a check that some source's candidates landed in two blocks of one
    round (so the blocks really split an owner's fan-out)."""
    blocks: list[tuple] = []  # (batch, sources); holding the batch keeps ids unique
    add = rules.CandidateBatch.add

    def spy(self, a, b, dist, hops):
        blocks.append((self, frozenset(a.tolist())))
        return add(self, a, b, dist, hops)

    monkeypatch.setattr(rules.CandidateBatch, "add", spy)

    def split() -> bool:
        seen: dict[tuple, int] = {}
        for k, (batch, sources) in enumerate(blocks):
            for source in sources:
                if seen.setdefault((id(batch), source), k) != k:
                    return True
        return False

    return split


@pytest.mark.parametrize("name", GRAPHS)
@pytest.mark.parametrize(
    "options",
    [
        {},  # hybrid: the paper's default schedule
        {"strategy": "doubling"},
        {"strategy": "stepping", "rule_set": "full"},
        {"strategy": "doubling", "rule_set": "full"},
    ],
    ids=["hybrid", "doubling", "stepping-full", "doubling-full"],
)
def test_small_blocks_write_the_same_files(
    name, options, block_size, split_owners, tmp_path
):
    graph = _graph(name)
    block_size(WHOLE_ROUND)
    want = _output(graph, tmp_path, **options)
    assert not split_owners()
    for size in SMALL_BLOCKS:
        block_size(size)
        assert _output(graph, tmp_path, **options) == want, size
    assert split_owners()


@settings(max_examples=30, deadline=None)
@given(
    graph=graph_strategy(max_n=30, max_m=80, fractional=True, pendants=True)
)
def test_small_blocks_on_drawn_graphs(graph, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("blocks")
    with pytest.MonkeyPatch.context() as patch:
        for strategy in ("hybrid", "doubling"):
            patch.setattr(rules, "GENERATE_BLOCK_CANDIDATES", WHOLE_ROUND)
            want = _output(graph, tmp_path, strategy=strategy)
            patch.setattr(rules, "GENERATE_BLOCK_CANDIDATES", 2)
            assert _output(graph, tmp_path, strategy=strategy) == want


@pytest.mark.parametrize("name", GRAPHS)
def test_small_blocks_repair_the_same_labels(name, block_size):
    """``insert_edges`` repairs with the full rules through the same
    blocked reduction: same labels, same delta."""
    graph = _graph(name)
    rng = random.Random(8)
    n = graph.num_vertices
    edges = []
    while len(edges) < 15:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not graph.has_edge(u, v):
            edges.append((u, v, rng.randint(1, 9)) if graph.weighted else (u, v))
    store = HopDoublingIndex.build(graph).labels

    def repaired(size):
        block_size(size)
        dyn = DynamicHopDoublingIndex.from_store(store, graph=graph)
        dyn.insert_edges(edges)
        delta = dyn.pop_label_delta()
        return label_lists(dyn.snapshot()), delta.out, delta.inn

    want = repaired(WHOLE_ROUND)
    for size in SMALL_BLOCKS:
        assert repaired(size) == want, size


#: Hub settings of the pruning test, ``(columns, rows per entry)``:
#: one column, the default, more columns than vertices — each with the
#: table built on every call — and the default with it never built.
HUB_SETTINGS = [
    (1, 0.0),
    (arraystate.PRUNE_HUB_COLUMNS, 0.0),
    (1 << 30, 0.0),
    (arraystate.PRUNE_HUB_COLUMNS, float("inf")),
]
#: The reference: every prune call runs with zero hub columns.
NO_HUBS = (0, 0.0)


@pytest.fixture
def hubs(monkeypatch):
    """Set the hub columns and crossover for the rest of the test;
    returns the list of prune calls that joined a hub table (their pair
    counts), emptied by each setting."""
    calls: list[int] = []
    hub_min = arraystate.hub_min

    def spy(out_table, in_table, S, T):
        calls.append(len(S))
        return hub_min(out_table, in_table, S, T)

    monkeypatch.setattr(arraystate, "hub_min", spy)

    def set_hubs(setting) -> list[int]:
        columns, rows_per_entry = setting
        monkeypatch.setattr(arraystate, "PRUNE_HUB_COLUMNS", columns)
        monkeypatch.setattr(arraystate, "PRUNE_HUB_ROWS_PER_ENTRY", rows_per_entry)
        calls.clear()
        return calls

    return set_hubs


@pytest.mark.parametrize("name", GRAPHS)
@pytest.mark.parametrize(
    "options",
    [{}, {"strategy": "doubling"}],
    ids=["hybrid", "doubling"],
)
def test_hub_table_writes_the_same_files(name, options, hubs, tmp_path):
    graph = _graph(name)
    hubs(NO_HUBS)
    want = _output(graph, tmp_path, **options)
    for setting in HUB_SETTINGS:
        calls = hubs(setting)
        assert _output(graph, tmp_path, **options) == want, setting
        # Whole distances up to 63 fit a cell: the hub part ran.
        if setting[1] == 0.0 and name != "fractional":
            assert calls, setting
        if setting[1] == float("inf"):
            assert not calls


def test_heavy_hub_entries_take_the_zero_column_path(hubs, tmp_path):
    """Weights up to 100 put entries above a cell's 63 on the hubs:
    every call runs with zero hub columns and writes the same files."""
    graph = _graph("weights-1-100")
    hubs(NO_HUBS)
    want = _output(graph, tmp_path)
    for setting in HUB_SETTINGS:
        calls = hubs(setting)
        assert _output(graph, tmp_path) == want, setting
        assert not calls, setting


@settings(max_examples=30, deadline=None)
@given(
    graph=graph_strategy(max_n=30, max_m=80, fractional=True, pendants=True)
)
def test_hub_table_on_drawn_graphs(graph, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("hubs")
    with pytest.MonkeyPatch.context() as patch:

        def output(setting):
            columns, rows_per_entry = setting
            patch.setattr(arraystate, "PRUNE_HUB_COLUMNS", columns)
            patch.setattr(arraystate, "PRUNE_HUB_ROWS_PER_ENTRY", rows_per_entry)
            return _output(graph, tmp_path)

        want = output(NO_HUBS)
        for setting in HUB_SETTINGS:
            assert output(setting) == want, setting


@pytest.mark.parametrize("name", GRAPHS)
def test_hub_table_repairs_the_same_labels(name, hubs):
    """``insert_edges`` prunes through the same test: same labels,
    same delta, whatever the hub setting."""
    graph = _graph(name)
    rng = random.Random(8)
    n = graph.num_vertices
    edges = []
    while len(edges) < 15:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not graph.has_edge(u, v):
            edges.append((u, v, rng.randint(1, 9)) if graph.weighted else (u, v))
    store = HopDoublingIndex.build(graph).labels

    def repaired(setting):
        hubs(setting)
        dyn = DynamicHopDoublingIndex.from_store(store, graph=graph)
        dyn.insert_edges(edges)
        delta = dyn.pop_label_delta()
        return label_lists(dyn.snapshot()), delta.out, delta.inn

    want = repaired(NO_HUBS)
    for setting in HUB_SETTINGS:
        assert repaired(setting) == want, setting
