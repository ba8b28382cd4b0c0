"""Tests for the vectorized batch query kernel.

The contract under test is simple and strict: for any store the kernel
supports, any batch, whatever its row cache holds and either join
strategy, the answers are bit-identical to the scalar reference path
(the shared probe helpers in :mod:`repro.core.flatstore`).
"""

import multiprocessing
import random
import sys
import threading
from array import array
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dynamic import DynamicHopDoublingIndex
from repro.core.flatstore import FlatLabelStore
from repro.core.hybrid import HybridBuilder
from repro.core.labels import LabelDelta
from repro.core.quantized import QuantizedLabelStore
from repro.graphs.digraph import Graph
from repro.graphs.generators import glp_graph
from repro.oracle import (
    DistanceOracle,
    ParallelOracle,
    ShardedLabelStore,
    evaluate_batch,
)
from repro.oracle import kernel
from tests.conftest import random_graph

np = pytest.importorskip("numpy")


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
        assert kernel.available()
        assert kernel.supports(flat)
        assert kernel.supports(QuantizedLabelStore.from_flat(flat))
        assert kernel.supports(ShardedLabelStore.split(flat, 3))

    def test_tuple_list_not_supported(self, flat):
        assert not kernel.supports(flat.to_index())


class TestBitIdentity:
    def test_flat_matches_scalar(self, flat):
        pairs = batch(flat.n, 1500, seed=11)
        expected = [flat.query(s, t) for s, t in pairs]
        assert kernel.batch_eval(flat, pairs) == expected

    def test_quantized_matches_scalar(self, flat):
        q = QuantizedLabelStore.from_flat(flat)
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
        assert all(
            isinstance(s, QuantizedLabelStore) for s in sharded.shards
        )
        pairs = batch(flat.n, 800, seed=14)
        assert kernel.batch_eval(sharded, pairs) == [
            flat.query(s, t) for s, t in pairs
        ]

    def test_both_join_kinds_match(self, flat, monkeypatch):
        # A batch whose tails would not pay for walking the probe
        # table is binary-searched, a larger one goes through it.
        few = batch(flat.n, 4, seed=15, include_special=False)
        many = batch(flat.n, 1500, seed=15)
        monkeypatch.setattr(kernel, "_TABLE_BLOCK_ENTRIES", 8)
        for pairs, join in ((few, "local_sorted"), (many, "local_table")):
            got, did = work(lambda: kernel.batch_eval(flat, pairs))
            assert got == [flat.query(s, t) for s, t in pairs]
            assert did["joins"] == {join: 1}

    @pytest.mark.parametrize(
        "seed", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]
    )
    def test_random_graphs(self, seed):
        g = random_graph(seed, max_n=60)
        flat = FlatLabelStore.from_index(HybridBuilder(g).build().index)
        q = QuantizedLabelStore.from_flat(flat)
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
        pairs = [(s, t), (t, s), (s, 7), (t, t), (t, 60_000), (t, s)]
        got, did = work(lambda: kernel.batch_eval(sharded, pairs))
        assert got == [sharded.query(a, b) for a, b in pairs]
        assert got[:2] == [2.0, 2.0]
        assert did["joins"] == {"local_sorted": 1}
        assert (did["pairs"], did["distinct_pairs"]) == (5, 3)
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
            ([(1,), (2,)], IndexError),              # one column
            ([1, 2], IndexError),                    # not pairs at all
            ([("a", 1)], ValueError),
            ([(None, 1)], TypeError),
            ([(2**70, 1)], OverflowError),
        ],
    )
    def test_pair_lists_that_are_not_pairs_fail(self, flat, pairs, error):
        with pytest.raises(error):
            kernel.batch_eval(flat, pairs)

    def test_pair_lists_read_as_before(self, flat):
        # What the 2-D array conversion accepted stays accepted, read
        # the same way: lists for tuples, numpy integers, whole floats,
        # and the first two of three columns.
        want = kernel.batch_eval(flat, [(1, 2), (3, 4)])
        assert kernel.batch_eval(flat, [[1, 2], [3, 4]]) == want
        assert kernel.batch_eval(
            flat, [(np.int64(1), np.int32(2)), (3.0, 4)]
        ) == want
        assert kernel.batch_eval(flat, [(1, 2, 9), (3, 4, 9)]) == want

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
            "v3": QuantizedLabelStore.from_flat(flat),
            "sharded": ShardedLabelStore.split(flat, 3),
        }
    return made


def tail_sizes(store):
    """Per-vertex tail length (``[out, in]``): entries without a column."""
    kernel.ensure_sides(store)
    hubs = set(store._view.hubs.tolist())
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
        store = served[directed][kind]
        got, did = work(lambda: kernel.batch_eval(store, pairs))
        assert got == [store.query(s, t) for s, t in pairs]
        assert did["pairs"] == len([p for p in pairs if p[0] != p[1]])
        assert did["distinct_pairs"] == len(oriented(store, pairs))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("directed", [False, True], ids=["undir", "dir"])
    def test_one_pair_repeated_and_mirrored(self, served, directed, kind):
        store = served[directed][kind]
        s, t = 3, 71
        same = [(s, t)] * 40
        got, did = work(lambda: kernel.batch_eval(store, same))
        assert got == [store.query(s, t)] * 40
        assert (did["pairs"], did["distinct_pairs"]) == (40, 1)

        mirrored = [(s, t), (t, s)] * 20
        got, did = work(lambda: kernel.batch_eval(store, mirrored))
        assert got == [store.query(s, t), store.query(t, s)] * 20
        assert did["distinct_pairs"] == (2 if directed else 1)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("directed", [False, True], ids=["undir", "dir"])
    def test_zipf_like_batch_reports_its_sharing(self, served, directed, kind):
        # Half the batch repeats eleven popular pairs: the counters
        # show the kernel gathered for the distinct ones only, and
        # only what the hub table does not hold.
        store = served[directed][kind]
        hot = [(k, 80 - k) for k in range(11)]
        pairs = batch(store.n, 300, seed=31, include_special=False)
        pairs += [hot[k % 11] for k in range(300)]
        random.Random(1).shuffle(pairs)
        got, did = work(lambda: kernel.batch_eval(store, pairs))
        assert got == [store.query(s, t) for s, t in pairs]
        assert did["distinct_pairs"] <= did["pairs"] - 289
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
        store = served[directed][kind]
        pairs = batch(90, 700, seed=41)
        with self.chunked(rows_per_chunk, table) as join:
            got, did = work(lambda: kernel.batch_eval(store, pairs))
        assert got == [store.query(s, t) for s, t in pairs]
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
        store = served[False][kind]
        with self.chunked(rows_per_chunk, table):
            got = kernel.batch_eval(store, pairs)
        assert got == [store.query(s, t) for s, t in pairs]

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
            "v3": lambda: QuantizedLabelStore.from_flat(flat),
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
            store.apply_updates(delta)
            got, did = work(lambda: kernel.batch_eval(store, pairs))
            assert got == [dyn.query(s, t) for s, t in pairs]
            assert 0 < did["rows_filled"] == len(delta) < 90 * sides
            assert kernel.view_info(store)["rows_resident"] == 90 * sides
        # A second view built over the overlay reads the same labels.
        forget_view(store)
        assert kernel.batch_eval(store, pairs) == got

    def test_fractional_distances_stay_in_the_tails(self):
        edges = [(0, v, 0.5) for v in range(1, 60)]
        edges += [(v, v + 1, 1.25) for v in range(1, 59)]
        g = Graph.from_edges(60, edges, directed=False, weighted=True)
        flat = FlatLabelStore.from_index(HybridBuilder(g).build().index)
        for store in (flat, QuantizedLabelStore.from_flat(flat)):
            kernel.ensure_sides(store)
            assert 0 in store._view.hubs  # common, until a label is read
            pairs = all_pairs(60)
            assert kernel.batch_eval(store, pairs) == [
                flat.query(s, t) for s, t in pairs
            ]
            assert 0 not in store._view.hubs
            assert (table_cells(store) == kernel._NO_ENTRY).all()

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
            fits = far <= kernel._MAX_CELL
            assert (0 in store._view.hubs) == fits
            # Retiring the column empties the cache: the rows filled
            # with it are filled again without it.
            assert did["rows_filled"] == (51 if fits else 101)
            cells = table_cells(store)
            assert cells[cells != kernel._NO_ENTRY].max(initial=0) == (
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
        for store in (flat, QuantizedLabelStore.from_flat(flat),
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
        store = FlatLabelStore.from_index(flat.to_index())
        pairs = all_pairs(store.n)
        want = kernel.batch_eval(store, pairs)
        restated = LabelDelta(
            store.n, store.directed,
            {v: store.out_label(v) for v in range(0, store.n, 2)},
            {v: store.in_label(v) for v in range(0, store.n, 2)},
        )
        if not store.directed:
            restated.inn = restated.out
        resets = 0
        for _ in range(12):
            # Every round leaves half the tails behind as garbage.
            store.apply_updates(restated)
            got, did = work(lambda: kernel.batch_eval(store, pairs))
            assert got == want
            info = kernel.view_info(store)
            if info["arena_resets"] > resets:
                resets = info["arena_resets"]
                assert did["rows_filled"] == info["rows_resident"]
            else:
                assert did["rows_filled"] == len(restated)
        assert resets >= 1

    def test_v3_rows_are_decoded_on_first_touch_only(self, flat):
        q = QuantizedLabelStore.from_flat(flat)
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
        store = FlatLabelStore.from_index(flat.to_index())
        assert kernel.view_info(store) is None
        kernel.ensure_sides(store)
        info = kernel.view_info(store)
        assert info["hub_columns"] > 0
        assert (info["rows_resident"], info["tail_entries"]) == (0, 0)


class TestConcurrency:
    def test_two_threads_share_one_store(self, flat):
        store = FlatLabelStore.from_index(flat.to_index())
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

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_fork_while_another_thread_holds_the_locks(self, flat):
        # Regression: a child forked while some thread of the parent is
        # inside an evaluation inherits the kernel's locks locked, with
        # nobody to release them; its first batch hung.
        pairs = batch(flat.n, 300, seed=70)
        want = kernel.batch_eval(flat, pairs)
        view = flat._view
        held, release = threading.Event(), threading.Event()

        def hold():
            with view.lock, kernel._STATS_LOCK, kernel._VIEWS_LOCK:
                held.set()
                release.wait(60)

        def child():
            fresh = FlatLabelStore.from_index(flat.to_index())
            same = kernel.batch_eval(flat, pairs) == want
            sys.exit(0 if same and kernel.batch_eval(fresh, pairs) == want
                     else 1)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert held.wait(10)
            proc = multiprocessing.get_context("fork").Process(target=child)
            proc.start()
            proc.join(30)
            hung = proc.is_alive()
            if hung:
                proc.kill()
                proc.join(10)
        finally:
            release.set()
            holder.join(10)
        assert not hung
        assert proc.exitcode == 0
        assert kernel.batch_eval(flat, pairs) == want


class TestEvaluateBatchIntegration:
    def test_kernel_on_off_agree(self, flat):
        pairs = batch(flat.n, 1000, seed=21)
        off = evaluate_batch(flat, pairs, kernel="off")
        assert evaluate_batch(flat, pairs, kernel="on") == off
        assert evaluate_batch(flat, pairs, kernel="auto") == off

    def test_kernel_on_unsupported_raises(self, flat):
        with pytest.raises(ValueError, match="kernel='on'"):
            evaluate_batch(flat.to_index(), [(0, 1)], kernel="on")

    def test_bad_kernel_mode_rejected(self, flat):
        with pytest.raises(ValueError, match="kernel must be one of"):
            evaluate_batch(flat, [(0, 1)], kernel="fast")

    def test_auto_falls_back_for_lists(self, flat):
        index = flat.to_index()
        pairs = batch(flat.n, 200, seed=22)
        assert evaluate_batch(index, pairs, kernel="auto") == [
            flat.query(s, t) for s, t in pairs
        ]

    def test_cache_filled_by_kernel_path(self, flat):
        from repro.oracle.cache import LRUCache

        cache = LRUCache(1024)
        pairs = batch(flat.n, 100, seed=23)
        first = evaluate_batch(flat, pairs, cache=cache, kernel="on")
        assert cache.info().size > 0
        # Second pass must be served from the cache, identically.
        assert evaluate_batch(flat, pairs, cache=cache, kernel="on") == first

    def test_oracle_kernel_knob(self, flat):
        pairs = batch(flat.n, 500, seed=24)
        on = DistanceOracle(flat, cache_size=0, kernel="on")
        off = DistanceOracle(flat, cache_size=0, kernel="off")
        assert on.query_batch(pairs) == off.query_batch(pairs)

    def test_parallel_oracle_rejects_bad_kernel_mode(self, flat, tmp_path):
        shard_dir = tmp_path / "shards"
        ShardedLabelStore.split(flat, 2).save(shard_dir)
        with pytest.raises(ValueError, match="kernel must be one of"):
            ParallelOracle(shard_dir, kernel="bogus")

    def test_mmapped_v3_through_kernel(self, flat, tmp_path):
        q = QuantizedLabelStore.from_flat(flat)
        q.save(tmp_path / "i.idx3")
        oracle = DistanceOracle.open(
            tmp_path / "i.idx3", use_mmap=True, kernel="on", cache_size=0
        )
        try:
            assert oracle.store.is_mmapped
            pairs = batch(flat.n, 500, seed=25)
            assert oracle.query_batch(pairs) == [
                flat.query(s, t) for s, t in pairs
            ]
        finally:
            oracle.close()
