"""Tests for the vectorized batch query kernel.

The contract under test is simple and strict: for any store the kernel
supports, any batch, whatever its row cache holds and either join
strategy, the answers are bit-identical to the scalar reference path
(the shared probe helpers in :mod:`repro.core.flatstore`).  A v3
store's own ``query`` reads the kernel's rows, so it is never the
reference here: the v2 store of the same labels is.
"""

import random
import sys
import threading
from array import array
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import HopDoublingIndex
from repro.core.dynamic import DynamicHopDoublingIndex
from repro.core.flatstore import FlatLabelStore
from repro.core.hybrid import HybridBuilder
from repro.core.labels import LabelDelta
from repro.graphs.digraph import Graph
from repro.graphs.generators import glp_graph
from repro.oracle import (
    DistanceOracle,
    ShardedLabelStore,
    evaluate_batch,
)
from repro.oracle import kernel
from repro.oracle.batch import MIN_KERNEL_PAIRS
from tests.conftest import random_graph
from tests.reference.label_lists import as_label_index


#: The smallest batch the kernel groups (sorts, dedupes, joins by
#: source) rather than joining pair by pair.
GROUPED = kernel._PAIRWISE_BELOW


def grouped(pairs):
    """``pairs`` repeated until the kernel groups them: at least
    :data:`GROUPED` of them with ``s != t``."""
    live = sum(s != t for s, t in pairs)
    return pairs * -(-GROUPED // live) if live else pairs


def build_flat(n=120, seed=3, directed=False):
    g = glp_graph(n, seed=seed, directed=directed)
    return FlatLabelStore.from_index(HybridBuilder(g).build().index)


def batch(n, count, seed, include_special=True):
    rng = random.Random(seed)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]
    if include_special:
        pairs += [(0, 0), (n - 1, n - 1)]      # s == t
        pairs += pairs[:5]                      # duplicates
    return pairs


@pytest.fixture(scope="module", params=[False, True], ids=["undir", "dir"])
def flat(request):
    return build_flat(directed=request.param)


def work(call):
    """What ``call()`` returns, and what it added to ``kernel.stats()``."""
    before = kernel.stats()
    result = call()
    after = kernel.stats()
    delta = {
        key: after[key] - before[key] for key in after if key != "joins"
    }
    delta["joins"] = {
        kind: count - before["joins"][kind]
        for kind, count in after["joins"].items()
        if count != before["joins"][kind]
    }
    return result, delta


def synth_store(lo, hi, special):
    """Vertices ``lo..hi`` with one-entry labels, ``special`` ones given.

    Cheap to make large: what fills the int32 key range of a join is
    the number of source rows times the vertex count, not label sizes.
    """
    offsets = array("q", [0])
    pivots = array("i")
    dists = array("d")
    for v in range(lo, hi):
        for p, d in special.get(v, [(v, 0.0)]):
            pivots.append(p)
            dists.append(d)
        offsets.append(len(pivots))
    return FlatLabelStore(
        hi - lo, False, offsets, pivots, dists, offsets, pivots, dists
    )


class TestSupports:
    def test_flat_and_quantized_supported(self, flat):
        assert kernel.supports(flat)
        assert kernel.supports(flat.encoded("v3"))
        assert kernel.supports(ShardedLabelStore.split(flat, 3))

    def test_tuple_list_not_supported(self, flat):
        assert not kernel.supports(as_label_index(flat))


class TestBitIdentity:
    def test_flat_matches_scalar(self, flat):
        pairs = batch(flat.n, 1500, seed=11)
        expected = [flat.query(s, t) for s, t in pairs]
        assert kernel.batch_eval(flat, pairs) == expected

    def test_quantized_matches_scalar(self, flat):
        q = flat.encoded("v3")
        pairs = batch(flat.n, 1500, seed=12)
        assert kernel.batch_eval(q, pairs) == [
            flat.query(s, t) for s, t in pairs
        ]

    def test_sharded_matches_scalar(self, flat):
        sharded = ShardedLabelStore.split(flat, 4)
        pairs = batch(flat.n, 1500, seed=13)
        assert kernel.batch_eval(sharded, pairs) == [
            flat.query(s, t) for s, t in pairs
        ]

    def test_sharded_quantized_shards(self, flat, tmp_path):
        ShardedLabelStore.split(flat, 3).save(tmp_path / "s", format="v3")
        sharded = ShardedLabelStore.load(tmp_path / "s")
        assert all(s.encoding == "v3" for s in sharded.shards)
        pairs = batch(flat.n, 800, seed=14)
        assert kernel.batch_eval(sharded, pairs) == [
            flat.query(s, t) for s, t in pairs
        ]

    def test_both_join_kinds_match(self, flat, monkeypatch):
        # A grouped batch whose tails would not pay for walking the
        # probe table is binary-searched, a larger one goes through it.
        few = grouped(batch(flat.n, 40, seed=15, include_special=False))
        many = batch(flat.n, 1500, seed=15)
        for pairs, join, cost in (
            (few, "local_sorted", 10**6), (many, "local_table", 8)
        ):
            monkeypatch.setattr(kernel, "_TABLE_BLOCK_ENTRIES", cost)
            got, did = work(lambda: kernel.batch_eval(flat, pairs))
            assert got == [flat.query(s, t) for s, t in pairs]
            assert did["joins"] == {join: 1}

    @pytest.mark.parametrize(
        "seed", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]
    )
    def test_random_graphs(self, seed):
        g = random_graph(seed, max_n=60)
        flat = FlatLabelStore.from_index(HybridBuilder(g).build().index)
        q = flat.encoded("v3")
        pairs = [(s, t) for s in range(g.num_vertices)
                 for t in range(g.num_vertices)]
        expected = [flat.query(s, t) for s, t in pairs]
        assert kernel.batch_eval(flat, pairs) == expected
        assert kernel.batch_eval(q, pairs) == expected

    def test_shards_of_a_large_index_join_once(self):
        # Past n * n = 2^31 a shard directory still takes one join per
        # batch: cross-shard pairs, their mirrors and same-shard pairs
        # are rows of the same view.
        n = 92_682
        split = 1_000
        s, t = 5, 50_000
        special = {
            s: [(0, 1.0), (s, 0.0)],
            t: [(0, 1.0), (t, 0.0)],
        }
        sharded = ShardedLabelStore(
            [synth_store(0, split, special),
             synth_store(split, n, special)],
            [(0, split), (split, n)],
        )
        pairs = grouped([(s, t), (t, s), (s, 7), (t, t), (t, 60_000), (t, s)])
        got, did = work(lambda: kernel.batch_eval(sharded, pairs))
        assert got == [sharded.query(a, b) for a, b in pairs]
        assert got[:2] == [2.0, 2.0]
        assert did["joins"] == {"local_sorted": 1}
        live = len(pairs) * 5 // 6
        assert (did["pairs"], did["distinct_pairs"]) == (live, 3)
        assert did["rows_filled"] == 4

    def test_unreachable_pairs_inf(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)], directed=False)
        flat = FlatLabelStore.from_index(HybridBuilder(g).build().index)
        assert kernel.batch_eval(flat, [(0, 2), (1, 3), (0, 1)]) == [
            float("inf"), float("inf"), 1.0,
        ]

    def test_empty_batch(self, flat):
        assert kernel.batch_eval(flat, []) == []

    def test_out_of_range_raises(self, flat):
        with pytest.raises(IndexError, match="out of range"):
            kernel.batch_eval(flat, [(0, flat.n)])
        with pytest.raises(IndexError, match="out of range"):
            kernel.batch_eval(flat, [(-1, 0)])


class TestInputColumns:
    def test_int32_columns_answer_like_int64(self):
        # Regression: (S - T) * base and S * base + T wrapped in int32
        # before reaching the key dtype, silently pairing the wrong
        # labels on any index whose n * n passes 2^31.
        n = 92_682
        hub = 3
        special = {
            v: [(hub, float(v % 7 + 1)), (v, 0.0)]
            for v in range(40_000, 40_200)
        }
        store = synth_store(0, n, special)
        rng = random.Random(5)
        vs = [rng.randrange(40_000, 40_200) for _ in range(400)]
        S64 = np.array(vs[:200], dtype=np.int64)
        T64 = np.array(vs[200:], dtype=np.int64)
        want = [store.query(s, t) for s, t in zip(vs[:200], vs[200:])]
        assert any(0 < d < float("inf") for d in want)
        assert kernel.batch_eval_arrays(store, S64, T64).tolist() == want
        for dtype in (np.int32, np.uint32):
            got = kernel.batch_eval_arrays(
                store, S64.astype(dtype), T64.astype(dtype)
            )
            assert got.tolist() == want

    @pytest.mark.parametrize(
        "pairs, error",
        [
            ([(1, 2), (3,)], ValueError),            # ragged
            ([(1, 2), (3, 4, 5)], ValueError),
            ([(1, 2, 3), (4,)], ValueError),         # sums to 2 per pair
            ([(1,), (2,)], ValueError),              # one column
            ([1, 2], ValueError),                    # not pairs at all
            ([("a", 1)], ValueError),
            ([(None, 1)], ValueError),
            ([(2**70, 1)], ValueError),
            ([(1, 2, 9), (3, 4, 9)], ValueError),    # three columns
        ],
    )
    def test_pair_lists_that_are_not_pairs_fail(self, flat, pairs, error):
        # The one pairs -> columns converter (PairColumns.from_pairs)
        # refuses them all alike.
        with pytest.raises(error, match="int64 pairs"):
            kernel.batch_eval(flat, pairs)

    def test_pair_lists_read_as_before(self, flat):
        # Lists for tuples, numpy integers and whole floats read as the
        # integer pairs they hold.
        want = kernel.batch_eval(flat, [(1, 2), (3, 4)])
        assert kernel.batch_eval(flat, [[1, 2], [3, 4]]) == want
        assert kernel.batch_eval(
            flat, [(np.int64(1), np.int32(2)), (3.0, 4)]
        ) == want

    def test_mismatched_columns_rejected(self, flat):
        with pytest.raises(ValueError, match="1-D and equal length"):
            kernel.batch_eval_arrays(flat, np.arange(3), np.arange(4))
        with pytest.raises(ValueError, match="1-D and equal length"):
            kernel.batch_eval_arrays(
                flat, np.zeros((2, 2), int), np.zeros((2, 2), int)
            )


@pytest.fixture(scope="module")
def served():
    """Every store kind the kernel serves, over one graph per direction."""
    made = {}
    for directed in (False, True):
        flat = build_flat(n=90, seed=5, directed=directed)
        made[directed] = {
            "v2": flat,
            "v3": flat.encoded("v3"),
            "sharded": ShardedLabelStore.split(flat, 3),
        }
    return made


def tail_sizes(store):
    """Per-vertex tail length (``[out, in]``): entries without a column.

    The columns are pivots in the file's space; a rank-space store's
    labels read back as vertex ids, so its columns are mapped too.
    """
    kernel.ensure_sides(store)
    hubs = store._view.hubs
    if store.ranked:
        hubs = store.rank_space().vertex[hubs]
    hubs = set(hubs.tolist())
    return [
        [sum(p not in hubs for p, _ in label(v)) for v in range(store.n)]
        for label in (store.out_label, store.in_label)
    ]


def oriented(store, pairs):
    """The distinct pairs a store evaluates.

    Each ``s != t`` pair as it stands on a directed store; on an
    undirected one with its longer tail first (the larger vertex when
    they tie), as the kernel puts it — so a pair and its mirror are one.
    """
    live = {(s, t) for s, t in pairs if s != t}
    if store.directed:
        return live
    size = tail_sizes(store)[0]
    return {
        (t, s) if (size[t], t) > (size[s], s) else (s, t) for s, t in live
    }


def forget_view(store):
    """Drop the store's row cache: the next batch starts from nothing."""
    store._view = None


@st.composite
def duplicate_heavy_batches(draw, n=90):
    """(distinct pairs, batch): repeats and mirrors in a drawn share."""
    vertex = st.integers(0, n - 1)
    distinct = draw(st.lists(st.tuples(vertex, vertex), min_size=1,
                             max_size=12, unique=True))
    picks = draw(st.lists(
        st.tuples(st.integers(0, len(distinct) - 1), st.booleans()),
        min_size=1, max_size=60,
    ))
    return [(distinct[k][::-1] if mirror else distinct[k])
            for k, mirror in picks]


KINDS = ("v2", "v3", "sharded")


class TestDistinctWork:
    """Each distinct piece of work is done once, with the same answers."""

    @settings(max_examples=60, deadline=None)
    @given(pairs=duplicate_heavy_batches(), directed=st.booleans(),
           kind=st.sampled_from(KINDS))
    def test_differential_with_duplicates(self, served, pairs, directed, kind):
        store, scalar = served[directed][kind], served[directed]["v2"]
        pairs = grouped(pairs)
        got, did = work(lambda: kernel.batch_eval(store, pairs))
        assert got == [scalar.query(s, t) for s, t in pairs]
        assert did["pairs"] == len([p for p in pairs if p[0] != p[1]])
        assert did["distinct_pairs"] == len(oriented(store, pairs))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("directed", [False, True], ids=["undir", "dir"])
    def test_one_pair_repeated_and_mirrored(self, served, directed, kind):
        store, scalar = served[directed][kind], served[directed]["v2"]
        s, t = 3, 71
        same = [(s, t)] * GROUPED
        got, did = work(lambda: kernel.batch_eval(store, same))
        assert got == [scalar.query(s, t)] * GROUPED
        assert (did["pairs"], did["distinct_pairs"]) == (GROUPED, 1)

        mirrored = [(s, t), (t, s)] * (GROUPED // 2)
        got, did = work(lambda: kernel.batch_eval(store, mirrored))
        assert got == [scalar.query(s, t), scalar.query(t, s)] * (GROUPED // 2)
        assert did["distinct_pairs"] == (2 if directed else 1)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("directed", [False, True], ids=["undir", "dir"])
    def test_zipf_like_batch_reports_its_sharing(self, served, directed, kind):
        # Half the batch repeats eleven popular pairs: the counters
        # show the kernel gathered for the distinct ones only, and
        # only what the hub table does not hold.
        store, scalar = served[directed][kind], served[directed]["v2"]
        hot = [(k, 80 - k) for k in range(11)]
        pairs = batch(store.n, 600, seed=31, include_special=False)
        pairs += [hot[k % 11] for k in range(600)]
        random.Random(1).shuffle(pairs)
        got, did = work(lambda: kernel.batch_eval(store, pairs))
        assert got == [scalar.query(s, t) for s, t in pairs]
        assert did["pairs"] >= GROUPED
        assert did["distinct_pairs"] <= did["pairs"] - 589
        distinct = oriented(store, pairs)
        assert did["distinct_pairs"] == len(distinct)
        assert store._view.hubs.size > 0
        in_tail = tail_sizes(store)[1]
        assert did["gathered_entries"] == sum(in_tail[t] for _, t in distinct)
        assert did["gathered_entries"] < sum(
            len(store.in_label(t)) for _, t in distinct
        )
        # One gathered row per distinct source, however many pairs and
        # repeats leave from it.
        assert did["source_rows"] == len({s for s, _ in distinct})


def unreachable_pair(store):
    """Some ``(s, t)`` the store cannot connect, or None."""
    return next(
        ((s, t) for s in range(store.n) for t in range(store.n)
         if store.query(s, t) == float("inf")),
        None,
    )


@pytest.fixture(scope="module")
def every_store():
    """``kind -> (store, unreachable pair)`` for the crossover differential."""
    edges = [(u, v) for u, v, _ in glp_graph(120, seed=9).edges()]
    edges += [(v, v + 1) for v in range(120, 129)]  # a second component
    g = Graph.from_edges(130, edges, directed=False)
    flat = FlatLabelStore.from_index(HybridBuilder(g).build().index)
    staged = FlatLabelStore.from_index(flat)
    dyn = DynamicHopDoublingIndex.from_store(staged, graph=g)
    dyn.insert_edges([(0, 77), (5, 119), (40, 41)])
    staged.apply_updates(dyn.pop_label_delta())
    rng = random.Random(0)
    weighted = Graph.from_edges(  # vertex 120 stays isolated
        121,
        [(rng.randrange(120), rng.randrange(120), float(rng.choice([1, 2, 40])))
         for _ in range(360)],
        directed=False, weighted=True,
    )
    # Forty blocks of eight vertices, each labelled with pivots of its
    # own block: pairs share several pivots, yet no pivot is in more
    # than 1 in 32 labels.
    blocks = {}
    for v in range(320):
        block = range(v - v % 8, v - v % 8 + 8)
        pivots = sorted({v, *rng.sample(block, 4)})
        blocks[v] = [(p, float(p != v and rng.randint(1, 9))) for p in pivots]
    stores = {
        "v2": flat,
        "v3": flat.encoded("v3"),
        "sharded": ShardedLabelStore.split(flat, 3),
        "directed": build_flat(n=120, seed=3, directed=True),
        "pendants": FlatLabelStore.from_index(HopDoublingIndex.build(g).labels),
        "staged": staged,
        "retiring": FlatLabelStore.from_index(
            HybridBuilder(weighted).build().index
        ),
        "no_hubs": synth_store(0, 320, blocks),
    }
    assert stores["pendants"].hang is not None
    assert stores["staged"].has_pending_updates
    retiring = stores["retiring"]
    kernel.ensure_sides(retiring)
    chosen = retiring._view.hubs.size
    kernel.batch_eval(retiring, all_pairs(121))
    assert retiring._view.hubs.size < chosen
    forget_view(retiring)  # the tests retire the columns again
    kernel.ensure_sides(stores["no_hubs"])
    assert kernel.view_info(stores["no_hubs"])["hub_columns"] == 0
    # A v3 store's own query reads the rows under test: its v2 twin
    # answers for it.
    scalars = {kind: flat if kind == "v3" else store for kind, store in stores.items()}
    return {
        kind: (store, scalars[kind], unreachable_pair(scalars[kind]))
        for kind, store in stores.items()
    }


def evaluated_batch(store, size, seed, far):
    """``size`` pairs the kernel evaluates — ``far`` (unreachable),
    mirrors and repeats among them — shuffled with three ``s == t``
    pairs it answers without evaluating."""
    rng = random.Random(seed)
    parent = getattr(store, "parent", None)
    root = (lambda v: v) if parent is None else (lambda v: parent[v])
    live = [far] if far else []
    while len(live) < size:
        roll = rng.random()
        if live and roll < 0.2:
            live.append(rng.choice(live))
        elif live and roll < 0.4:
            live.append(rng.choice(live)[::-1])
        else:
            s, t = rng.randrange(store.n), rng.randrange(store.n)
            if root(s) != root(t):  # else: siblings, read without a join
                live.append((s, t))
    pairs = live[:size] + [(v, v) for v in rng.sample(range(store.n), 3)]
    rng.shuffle(pairs)
    return pairs


class TestPairwise:
    """Below the crossover pairs are joined one by one, above it
    grouped: either way every store answers like ``store.query``."""

    @pytest.mark.parametrize(
        "size",
        [1, 2, MIN_KERNEL_PAIRS, GROUPED - 1, GROUPED, GROUPED + 1],
    )
    @pytest.mark.parametrize(
        "kind",
        ["v2", "v3", "sharded", "directed", "pendants", "staged",
         "retiring", "no_hubs"],
    )
    def test_matches_query_around_the_crossover(self, every_store, kind, size):
        store, scalar, far = every_store[kind]
        assert far is not None
        pairs = evaluated_batch(store, size, seed=size, far=far)
        got, did = work(lambda: kernel.batch_eval(store, pairs))
        assert got == [scalar.query(s, t) for s, t in pairs]
        assert did["pairs"] == size
        if size < GROUPED:
            assert did["joins"] == {"pairwise": 1}
            assert did["distinct_pairs"] == did["source_rows"] == size
        else:
            assert "pairwise" not in did["joins"]
            assert did["distinct_pairs"] < size

    @pytest.mark.parametrize("kind", ["v3", "directed", "pendants", "no_hubs"])
    def test_keys_past_int32_answer_alike(self, every_store, kind, monkeypatch):
        store, scalar, far = every_store[kind]
        pairs = evaluated_batch(store, 300, seed=5, far=far)
        want = [scalar.query(s, t) for s, t in pairs]
        # Keys of 300 pairs x 130 vertices no longer fit: int64 ones.
        monkeypatch.setattr(kernel, "_INT32_MAX", 1000)
        got, did = work(lambda: kernel.batch_eval(store, pairs))
        assert got == want and did["joins"] == {"pairwise": 1}


class TestRowChunks:
    """The join's int32 row chunks and both matchers, on small graphs.

    Lowering the int32 limit makes a chunk hold a few rows, exactly as
    23,170 rows fill one on a 92,682-vertex index with the real limit.
    """

    @staticmethod
    @contextmanager
    def chunked(rows_per_chunk, table):
        """Patch the kernel so a chunk holds ``rows_per_chunk`` rows of
        90-wide keys; yields the join kind that must then serve."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernel, "_INT32_MAX", 90 * rows_per_chunk)
            if table:
                # Two rows per table block, and no batch too small.
                patch.setattr(kernel, "_LOCAL_TABLE_ELEMS", 2 * 90)
                patch.setattr(kernel, "_TABLE_BLOCK_ENTRIES", 0)
            yield "local_table" if table else "local_sorted"

    @pytest.mark.parametrize("table", [False, True], ids=["sorted", "table"])
    @pytest.mark.parametrize("rows_per_chunk", [29, 5, 1])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("directed", [False, True], ids=["undir", "dir"])
    def test_chunked_join_matches_scalar(
        self, served, directed, kind, rows_per_chunk, table
    ):
        store, scalar = served[directed][kind], served[directed]["v2"]
        pairs = batch(90, 1400, seed=41)
        with self.chunked(rows_per_chunk, table) as join:
            got, did = work(lambda: kernel.batch_eval(store, pairs))
        assert got == [scalar.query(s, t) for s, t in pairs]
        assert set(did["joins"]) == {join}
        assert did["distinct_pairs"] < did["pairs"]
        assert did["source_rows"] == len(
            {s for s, _ in oriented(store, pairs)}
        )

    @settings(max_examples=40, deadline=None)
    @given(pairs=duplicate_heavy_batches(), table=st.booleans(),
           rows_per_chunk=st.sampled_from([29, 3]),
           kind=st.sampled_from(KINDS))
    def test_differential_chunked(
        self, served, pairs, table, rows_per_chunk, kind
    ):
        store, scalar = served[False][kind], served[False]["v2"]
        pairs = grouped(pairs)
        with self.chunked(rows_per_chunk, table):
            got = kernel.batch_eval(store, pairs)
        assert got == [scalar.query(s, t) for s, t in pairs]

    def test_rows_chunked_at_the_real_int32_range(self):
        # 92,682-wide keys: 23,170 rows fill int32, so 60,000 distinct
        # sources take three chunks.  Every vertex from 30,000 up
        # shares one hub — a column, so the table finds it whatever
        # chunk the pair's tails are joined in.
        n = 92_682
        assert kernel._INT32_MAX // n < 30_000
        hub = 11
        special = {
            v: [(hub, float(v % 5 + 1)), (v, 0.0)]
            for v in range(30_000, n)
        }
        store = synth_store(0, n, special)
        S = np.arange(30_000, 90_000, dtype=np.int64)
        T = S + 1
        T[::7] = 100  # no common pivot: unreachable
        got, did = work(lambda: kernel.batch_eval_arrays(store, S, T))
        assert store._view.hubs.tolist() == [hub]
        assert did["source_rows"] > 2 * (kernel._INT32_MAX // n)
        assert set(did["joins"]) == {"local_sorted"}
        probe = range(0, len(S), 97)
        assert [got[k] for k in probe] == [
            store.query(int(S[k]), int(T[k])) for k in probe
        ]
        reachable = np.isfinite(got)
        assert reachable.sum() > 40_000 and (~reachable).sum() > 8_000


def star_with_a_far_leaf(far):
    """Hub 0 one step from 100 leaves and ``far`` from the last one."""
    edges = [(0, v, 1.0) for v in range(1, 100)] + [(0, 100, far)]
    g = Graph.from_edges(101, edges, directed=False, weighted=True)
    return FlatLabelStore.from_index(HybridBuilder(g).build().index)


def all_pairs(n):
    return [(s, t) for s in range(n) for t in range(n)]


def table_cells(store):
    """Every cell of the filled rows of the store's hub table."""
    rows = store._view.out
    return rows.table[rows.filled]


class TestRowCache:
    """What the cache holds, when it is refilled, and what never enters."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("directed", [False, True], ids=["undir", "dir"])
    def test_updates_refill_only_the_staged_rows(self, directed, kind):
        g = glp_graph(90, seed=5, directed=directed)
        flat = FlatLabelStore.from_index(HybridBuilder(g).build().index)
        store = {
            "v2": lambda: flat,
            "v3": lambda: flat.encoded("v3"),
            "sharded": lambda: ShardedLabelStore.split(flat, 3),
        }[kind]()
        dyn = DynamicHopDoublingIndex.from_store(flat, graph=g)
        pairs = all_pairs(90)
        sides = 2 if directed else 1
        got, did = work(lambda: kernel.batch_eval(store, pairs))
        assert got == [dyn.query(s, t) for s, t in pairs]
        assert did["rows_filled"] == 90 * sides
        rng = random.Random(7)
        for _ in range(3):
            dyn.insert_edges(
                [(rng.randrange(90), rng.randrange(90)) for _ in range(4)]
            )
            delta = dyn.pop_label_delta()
            # Every row is resident: the apply refills the staged ones
            # from the delta's columns, and the batch after fills none.
            _, applied = work(lambda: store.apply_updates(delta))
            assert 0 < applied["rows_filled"] == len(delta) < 90 * sides
            got, did = work(lambda: kernel.batch_eval(store, pairs))
            assert got == [dyn.query(s, t) for s, t in pairs]
            assert did["rows_filled"] == 0
            assert kernel.view_info(store)["rows_resident"] == 90 * sides
        # A second view built over the overlay reads the same labels.
        forget_view(store)
        assert kernel.batch_eval(store, pairs) == got

    @pytest.mark.parametrize("size", [8, GROUPED], ids=["pairwise", "grouped"])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("directed", [False, True], ids=["undir", "dir"])
    def test_repeated_missing_vertices_fill_once(self, directed, kind, size):
        # Every end is named many times, out of order and in both
        # columns: each missing row is filled once per side.
        flat = build_flat(n=120, seed=9, directed=directed)
        store = {
            "v2": lambda: flat,
            "v3": lambda: flat.encoded("v3"),
            "sharded": lambda: ShardedLabelStore.split(flat, 3),
        }[kind]()
        ends = [97, 5, 41, 5, 97, 63, 41, 5, 119]
        pairs = [
            (ends[k % 9], ends[(4 * k + 1) % 9]) for k in range(3 * size)
        ]
        pairs = [(s, t) for s, t in pairs if s != t][:size]
        sources, targets = {s for s, _ in pairs}, {t for _, t in pairs}
        got, did = work(lambda: kernel.batch_eval(store, pairs))
        assert got == [flat.query(s, t) for s, t in pairs]
        if directed:
            assert did["rows_filled"] == len(sources) + len(targets)
        else:
            assert did["rows_filled"] == len(sources | targets)

    def test_fractional_distances_stay_in_the_tails(self):
        edges = [(0, v, 0.5) for v in range(1, 60)]
        edges += [(v, v + 1, 1.25) for v in range(1, 59)]
        g = Graph.from_edges(60, edges, directed=False, weighted=True)
        flat = FlatLabelStore.from_index(HybridBuilder(g).build().index)
        for store in (flat, flat.encoded("v3")):
            kernel.ensure_sides(store)
            assert 0 in store._view.hubs  # common, until a label is read
            pairs = all_pairs(60)
            assert kernel.batch_eval(store, pairs) == [
                flat.query(s, t) for s, t in pairs
            ]
            assert 0 not in store._view.hubs
            assert (table_cells(store) == kernel.NO_ENTRY).all()

    def test_a_distance_too_large_for_a_cell_retires_its_column(self):
        for far in (63.0, 64.0, 300.0):
            store = star_with_a_far_leaf(far)
            near = all_pairs(50)
            got, did = work(lambda: kernel.batch_eval(store, near))
            assert got == [store.query(s, t) for s, t in near]
            assert did["rows_filled"] == 50
            assert 0 in store._view.hubs
            pairs = all_pairs(101)
            got, did = work(lambda: kernel.batch_eval(store, pairs))
            assert got == [store.query(s, t) for s, t in pairs]
            assert got[pairs.index((1, 100))] == far + 1
            fits = far <= kernel.MAX_CELL
            assert (0 in store._view.hubs) == fits
            # Retiring the column empties the cache: the rows filled
            # with it are filled again without it.
            assert did["rows_filled"] == (51 if fits else 101)
            cells = table_cells(store)
            assert cells[cells != kernel.NO_ENTRY].max(initial=0) == (
                far if fits else 0
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_columns_retired_between_batches(self, seed):
        # Integer weights up to 40 put some distances on either side of
        # a cell's range, and the batches arrive in pieces: a column is
        # retired with part of the cache already filled through it.
        rng = random.Random(seed)
        n = 120
        edges = [(rng.randrange(n), rng.randrange(n),
                  float(rng.choice([1, 2, 40]))) for _ in range(3 * n)]
        directed = seed % 2 == 1
        g = Graph.from_edges(n, edges, directed=directed, weighted=True)
        flat = FlatLabelStore.from_index(HybridBuilder(g).build().index)
        pairs = batch(n, 1200, seed=seed)
        retired = 0
        for store in (flat, flat.encoded("v3"),
                      ShardedLabelStore.split(flat, 3)):
            for lo in range(0, len(pairs), 20):
                piece = pairs[lo : lo + 20]
                if lo:
                    columns = store._view.hubs.size
                assert kernel.batch_eval(store, piece) == [
                    flat.query(s, t) for s, t in piece
                ]
                retired += lo > 0 and store._view.hubs.size < columns
        assert retired

    def test_no_pivot_common_enough_for_a_column(self):
        store = synth_store(0, 100, {7: [(3, 2.0), (7, 0.0)],
                                     9: [(3, 1.0), (9, 0.0)]})
        pairs = [(7, 9), (9, 7), (7, 3), (1, 2), (4, 4)] * 3
        assert kernel.batch_eval(store, pairs) == [
            store.query(s, t) for s, t in pairs
        ]
        assert kernel.view_info(store)["hub_columns"] == 0
        assert kernel.batch_eval(store, pairs)[:5] == [
            3.0, 3.0, 2.0, float("inf"), 0.0,
        ]

    def test_full_arena_empties_the_cache(self, flat):
        store = FlatLabelStore.from_index(flat)
        pairs = all_pairs(store.n)
        want = kernel.batch_eval(store, pairs)
        restated = LabelDelta.from_labels(
            store.n, store.directed,
            {v: store.out_label(v) for v in range(0, store.n, 2)},
            {v: store.in_label(v) for v in range(0, store.n, 2)},
        )
        resets = 0
        for _ in range(12):
            # Every round leaves half the tails behind as garbage.
            _, applied = work(lambda: store.apply_updates(restated))
            got, did = work(lambda: kernel.batch_eval(store, pairs))
            assert got == want
            info = kernel.view_info(store)
            if info["arena_resets"] > resets:
                resets = info["arena_resets"]
                assert did["rows_filled"] == info["rows_resident"]
            else:
                assert applied["rows_filled"] == len(restated)
                assert did["rows_filled"] == 0
        assert resets >= 1

    def test_v3_rows_are_decoded_on_first_touch_only(self, flat):
        q = flat.encoded("v3")
        first = batch(q.n, 40, seed=51, include_special=False)
        second = batch(q.n, 40, seed=52, include_special=False)
        sides = 2 if q.directed else 1
        _, did = work(lambda: kernel.batch_eval(q, first))
        touched = {v for pair in first for v in pair}
        assert 0 < did["rows_filled"] <= sides * len(touched)
        assert kernel.view_info(q)["rows_resident"] == did["rows_filled"]
        _, did = work(lambda: kernel.batch_eval(q, first))
        assert did["rows_filled"] == 0
        _, did = work(lambda: kernel.batch_eval(q, second))
        new = {v for pair in second for v in pair} - touched
        assert did["rows_filled"] <= sides * len(new)

    def test_view_info_before_the_first_batch(self, flat):
        store = FlatLabelStore.from_index(flat)
        assert kernel.view_info(store) is None
        kernel.ensure_sides(store)
        info = kernel.view_info(store)
        assert info["hub_columns"] > 0
        assert (info["rows_resident"], info["tail_entries"]) == (0, 0)


class TestConcurrency:
    def test_two_threads_share_one_store(self, flat):
        store = FlatLabelStore.from_index(flat)
        batches = [batch(store.n, 400, seed=60 + k) for k in range(6)]
        want = [[store.query(s, t) for s, t in b] for b in batches]
        got = {}

        def worker(name):
            got[name] = [kernel.batch_eval(store, b) for b in batches]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(k,)) for k in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == {k: want for k in range(3)}
        assert kernel.view_info(store)["rows_resident"] <= (
            store.n * (2 if store.directed else 1)
        )

    def test_scalar_v3_reads_beside_batches_and_updates(self, flat):
        # The serve tier answers requests of 1-3 pairs through
        # store.query, and they can run while a larger batch is being
        # evaluated: on a v3 store both read and fill the same rows,
        # while staged updates invalidate some of them.
        store = flat.encoded("v3")
        pairs = batch(store.n, 300, seed=80)
        want = [flat.query(s, t) for s, t in pairs]
        restated = LabelDelta.from_labels(
            store.n, store.directed,
            {v: store.out_label(v) for v in range(0, store.n, 3)},
            {v: store.in_label(v) for v in range(0, store.n, 3)},
        )
        wrong = []

        def scalar_reads():
            for _ in range(6):
                if [store.query(s, t) for s, t in pairs] != want:
                    wrong.append("scalar")

        def batches_and_updates():
            for _ in range(6):
                if kernel.batch_eval(store, pairs) != want:
                    wrong.append("batch")
                store.apply_updates(restated)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=scalar_reads),
                threading.Thread(target=batches_and_updates),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        view = store._view
        sides = (view.out, view.inn) if store.directed else (view.out,)
        for rows in sides:
            assert np.count_nonzero(rows.filled) <= store.n
        assert kernel.view_info(store)["rows_resident"] <= store.n * len(sides)


class TestEvaluateBatchIntegration:
    def test_kernel_on_off_agree(self, flat):
        pairs = batch(flat.n, 1000, seed=21)
        off = [flat.query(s, t) for s, t in pairs]
        assert kernel.batch_eval(flat, pairs) == off
        assert evaluate_batch(flat, pairs) == off

    def test_store_and_size_choose_the_path(self, flat):
        """No knob: a flat store and at least MIN_KERNEL_PAIRS pairs go
        to the kernel, anything else to the scalar path."""
        pairs = [(0, 1), (2, 3), (4, 5), (6, 7)]
        assert len(pairs) == MIN_KERNEL_PAIRS
        want = [flat.query(s, t) for s, t in pairs]
        index = as_label_index(flat)
        _, few = work(lambda: evaluate_batch(flat, pairs[:3]))
        _, lists = work(lambda: evaluate_batch(index, pairs * 50))
        got, enough = work(lambda: evaluate_batch(flat, pairs))
        assert few["pairs"] == lists["pairs"] == 0
        assert enough["pairs"] == 4
        assert got == want

    def test_bad_kernel_mode_rejected(self, flat):
        with pytest.raises(TypeError, match="kernel"):
            evaluate_batch(flat, [(0, 1)], kernel="fast")

    def test_auto_falls_back_for_lists(self, flat):
        index = as_label_index(flat)
        pairs = batch(flat.n, 200, seed=22)
        assert evaluate_batch(index, pairs) == [
            flat.query(s, t) for s, t in pairs
        ]

    def test_oracle_kernel_knob(self, flat, tmp_path):
        """The oracle takes no ``kernel=``; a bad call fails at once,
        not at its first batch."""
        path = tmp_path / "i.idx3"
        flat.encoded("v3").save(path)
        with pytest.raises(TypeError, match="kernel"):
            DistanceOracle(flat, kernel="off")
        with pytest.raises(TypeError, match="kernel"):
            DistanceOracle.open(path, kernel="on")

    def test_mmapped_v3_through_kernel(self, flat, tmp_path):
        q = flat.encoded("v3")
        q.save(tmp_path / "i.idx3")
        oracle = DistanceOracle.open(
            tmp_path / "i.idx3", use_mmap=True, cache_size=0
        )
        try:
            assert oracle.store.is_mmapped
            pairs = batch(flat.n, 500, seed=25)
            got, did = work(lambda: oracle.query_batch(pairs))
            assert did["pairs"] > 0
            assert got == [flat.query(s, t) for s, t in pairs]
        finally:
            oracle.close()
