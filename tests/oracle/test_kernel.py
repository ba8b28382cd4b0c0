"""Tests for the vectorized batch query kernel.

The contract under test is simple and strict: for any store the kernel
supports, any batch, and either join strategy, the answers are
bit-identical to the scalar reference path (the shared probe helpers
in :mod:`repro.core.flatstore`).
"""

import random
from array import array
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.flatstore import FlatLabelStore
from repro.core.hybrid import HybridBuilder
from repro.core.quantized import QuantizedLabelStore
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

    Cheap to make large: what puts a side past the int32 key range is
    its vertex count times the key base, not its label sizes.
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

    def test_both_global_joins_match(self, flat):
        # A batch gathering less than half the side's entries is
        # binary-searched, a larger one scattered through the table.
        few = batch(flat.n, 4, seed=15, include_special=False)
        many = batch(flat.n, 1500, seed=15)
        for pairs, join in ((few, "sorted"), (many, "dense")):
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

    def test_keyed_and_keyless_shards_join(self):
        # Shards straddling the int32 key range: the small one has
        # global keys, the big one is joined batch-locally, and a
        # cross-shard pair puts one on each end of the same join.
        n = 92_682  # 92_682^2 > 2^31, 1_000 * 92_682 < 2^31
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
        # Four shard buckets: (0,1) and (0,0) join against the keyed
        # shard, (1,0) and (1,1) against the key-less one.
        assert did["joins"] == {"sorted": 2, "local_sorted": 2}
        assert (did["pairs"], did["distinct_pairs"]) == (5, 4)

    def test_unreachable_pairs_inf(self):
        from repro.graphs.digraph import Graph

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


def oriented(store, pairs):
    """The distinct pairs an undirected flat store evaluates: each
    ``s != t`` pair with its longer label first, as the kernel puts it."""
    size = np.diff(np.asarray(store.out_offsets))
    return {
        (t, s) if size[t] > size[s] else (s, t)
        for s, t in pairs if s != t
    }


def forget_views(store):
    """Drop the cached kernel views so patched constants take effect."""
    for part in getattr(store, "shards", [store]):
        part._np = None


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
        live = [(s, t) for s, t in pairs if s != t]
        assert did["pairs"] == len(live)
        if kind == "sharded":
            # Buckets are by (source shard, target shard): repeats
            # share one, a mirror usually sits in another.
            assert did["distinct_pairs"] >= len(
                {(min(p), max(p)) for p in live}
            )
            assert did["distinct_pairs"] <= len(set(live))
        elif directed:
            assert did["distinct_pairs"] == len(set(live))
        else:
            assert did["distinct_pairs"] == len(oriented(store, pairs))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("directed", [False, True], ids=["undir", "dir"])
    def test_one_pair_repeated_and_mirrored(self, served, directed, kind):
        store = served[directed][kind]
        # Orientation tells a pair from its mirror by label length.
        size = np.diff(np.asarray(served[directed]["v2"].out_offsets))
        s, t = 3, next(v for v in range(71, 90) if size[v] != size[3])
        same = [(s, t)] * 40
        got, did = work(lambda: kernel.batch_eval(store, same))
        assert got == [store.query(s, t)] * 40
        assert (did["pairs"], did["distinct_pairs"]) == (40, 1)

        mirrored = [(s, t), (t, s)] * 20
        got, did = work(lambda: kernel.batch_eval(store, mirrored))
        assert got == [store.query(s, t), store.query(t, s)] * 20
        merged = kind != "sharded" and not directed
        assert did["distinct_pairs"] == (1 if merged else 2)

    def test_zipf_like_batch_reports_its_sharing(self, served):
        # Half the batch repeats eleven popular pairs: the counters
        # show the kernel gathered for the distinct ones only.
        store = served[False]["v2"]
        hot = [(k, 80 - k) for k in range(11)]
        pairs = batch(store.n, 300, seed=31, include_special=False)
        pairs += [hot[k % 11] for k in range(300)]
        random.Random(1).shuffle(pairs)
        got, did = work(lambda: kernel.batch_eval(store, pairs))
        assert got == [store.query(s, t) for s, t in pairs]
        assert did["distinct_pairs"] <= did["pairs"] - 289
        lens = np.diff(np.asarray(store.out_offsets))
        distinct = oriented(store, pairs)
        assert did["distinct_pairs"] == len(distinct)
        assert did["gathered_entries"] == sum(
            min(lens[s], lens[t]) for s, t in distinct
        )
        # Joined against the store's global keys: no source row is
        # gathered, whatever the batch shares.
        assert did["source_rows"] == 0


class TestKeylessSides:
    """The batch-local join, forced onto small graphs.

    Lowering the int32 threshold makes every side key-less, exactly as
    a 70k-vertex index is with the real one; the same constant bounds
    the packed range of a row chunk.
    """

    @staticmethod
    @contextmanager
    def keyless(served, rows_per_chunk, table):
        """Patch the kernel so every side here is key-less; yields the
        join kind that must then serve every batch."""
        stores = [s for by_kind in served.values() for s in by_kind.values()]
        with pytest.MonkeyPatch.context() as patch:
            # n_local * base passes the limit for every store (shards
            # of 30 vertices included), and a chunk holds
            # rows_per_chunk rows of base-wide keys.
            assert rows_per_chunk < 30
            patch.setattr(kernel, "_INT32_MAX", 90 * rows_per_chunk)
            if table:
                # Two rows per table block, and no batch too small.
                patch.setattr(kernel, "_LOCAL_TABLE_ELEMS", 2 * 90)
                patch.setattr(kernel, "_TABLE_BLOCK_ENTRIES", 0)
            for store in stores:
                forget_views(store)
            try:
                yield "local_table" if table else "local_sorted"
            finally:
                for store in stores:
                    forget_views(store)

    @pytest.mark.parametrize("table", [False, True], ids=["sorted", "table"])
    @pytest.mark.parametrize("rows_per_chunk", [29, 5, 1])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("directed", [False, True], ids=["undir", "dir"])
    def test_local_join_matches_scalar(
        self, served, directed, kind, rows_per_chunk, table
    ):
        store = served[directed][kind]
        pairs = batch(90, 700, seed=41)
        with self.keyless(served, rows_per_chunk, table) as join:
            got, did = work(lambda: kernel.batch_eval(store, pairs))
        assert got == [store.query(s, t) for s, t in pairs]
        assert set(did["joins"]) == {join}
        assert did["distinct_pairs"] < did["pairs"]
        if kind != "sharded":
            # One gathered row per distinct source, however many pairs
            # and repeats leave from it.
            sources = {s for s, t in pairs if s != t}
            if not directed:
                sources = {s for s, t in oriented(store, pairs)}
            assert did["source_rows"] == len(sources)

    @settings(max_examples=40, deadline=None)
    @given(pairs=duplicate_heavy_batches(), table=st.booleans(),
           rows_per_chunk=st.sampled_from([29, 3]),
           kind=st.sampled_from(KINDS))
    def test_differential_keyless(
        self, served, pairs, table, rows_per_chunk, kind
    ):
        store = served[False][kind]
        with self.keyless(served, rows_per_chunk, table):
            got = kernel.batch_eval(store, pairs)
        assert got == [store.query(s, t) for s, t in pairs]

    def test_rows_chunked_at_the_real_int32_range(self):
        # 92,682-wide keys: 23,170 rows fill int32, so 60,000 distinct
        # sources take three chunks.  Every vertex from 30,000 up
        # shares one hub, which the cross-chunk pairs must find.
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
        assert did["source_rows"] > 2 * (kernel._INT32_MAX // n)
        assert set(did["joins"]) == {"local_sorted"}
        probe = range(0, len(S), 97)
        assert [got[k] for k in probe] == [
            store.query(int(S[k]), int(T[k])) for k in probe
        ]
        reachable = np.isfinite(got)
        assert reachable.sum() > 40_000 and (~reachable).sum() > 8_000


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
