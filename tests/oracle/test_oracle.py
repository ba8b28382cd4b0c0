"""Tests for the DistanceOracle serving layer."""

import pytest

from repro.core.flatstore import FlatLabelStore
from repro.core.hybrid import HybridBuilder
from repro.core.knn import InvertedLabelIndex
from repro.core.labels import INF
from repro.core.query import query_many
from repro.graphs.generators import glp_graph
from repro.oracle import DistanceOracle, read_pair_file
from repro.oracle.batch import evaluate_batch
from tests.conftest import random_graph


@pytest.fixture(scope="module", params=[False, True], ids=["undir", "dir"])
def built(request):
    g = glp_graph(120, seed=11, directed=request.param)
    idx = HybridBuilder(g).build().index
    return g, idx


def all_pairs(n, step_s=4, step_t=5):
    return [(s, t) for s in range(0, n, step_s) for t in range(0, n, step_t)]


class TestQueryBatch:
    @pytest.mark.parametrize("backend", ["flat", "list"])
    def test_bit_identical_to_per_pair(self, built, backend):
        g, idx = built
        store = FlatLabelStore.from_index(idx) if backend == "flat" else idx
        oracle = DistanceOracle(store)
        pairs = all_pairs(g.num_vertices)
        assert oracle.query_batch(pairs) == [idx.query(s, t) for s, t in pairs]

    def test_duplicates_and_order(self, built):
        _, idx = built
        oracle = DistanceOracle(FlatLabelStore.from_index(idx))
        pairs = [(0, 9), (3, 3), (0, 9), (9, 0), (1, 2), (0, 9)]
        assert oracle.query_batch(pairs) == [idx.query(s, t) for s, t in pairs]

    def test_empty_batch(self, built):
        _, idx = built
        assert DistanceOracle(idx).query_batch([]) == []

    def test_out_of_range_raises(self, built):
        _, idx = built
        oracle = DistanceOracle(FlatLabelStore.from_index(idx))
        with pytest.raises(IndexError):
            oracle.query_batch([(0, idx.n)])

    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs(self, seed):
        g = random_graph(seed, max_n=25)
        idx = HybridBuilder(g).build().index
        oracle = DistanceOracle(FlatLabelStore.from_index(idx))
        pairs = [(s, t) for s in range(g.num_vertices)
                 for t in range(g.num_vertices)]
        assert oracle.query_batch(pairs) == [idx.query(s, t)
                                             for s, t in pairs]

    def test_evaluate_batch_without_cache(self, built):
        _, idx = built
        pairs = all_pairs(idx.n)
        assert evaluate_batch(idx, pairs) == [idx.query(s, t)
                                              for s, t in pairs]


class TestCache:
    def test_single_pair_cached(self, built):
        _, idx = built
        oracle = DistanceOracle(FlatLabelStore.from_index(idx))
        d1 = oracle.query(2, 50)
        d2 = oracle.query(2, 50)
        assert d1 == d2 == idx.query(2, 50)
        info = oracle.cache_info()
        assert info.hits == 1
        assert info.misses == 1
        assert 0 < info.hit_rate < 1

    def test_undirected_orientation_shares_entry(self):
        g = glp_graph(60, seed=2, directed=False)
        idx = HybridBuilder(g).build().index
        oracle = DistanceOracle(idx)
        oracle.query(5, 20)
        oracle.query(20, 5)
        assert oracle.cache_info().hits == 1

    def test_directed_orientations_distinct(self):
        g = glp_graph(60, seed=2, directed=True)
        idx = HybridBuilder(g).build().index
        oracle = DistanceOracle(idx)
        oracle.query(5, 20)
        oracle.query(20, 5)
        assert oracle.cache_info().hits == 0

    def test_batches_bypass_the_cache(self, built):
        """Only single-pair queries use the LRU; the kernel dedupes a
        batch itself."""
        _, idx = built
        oracle = DistanceOracle(FlatLabelStore.from_index(idx))
        oracle.query(1, 7)
        want = [idx.query(1, 7), idx.query(2, 9)] * 500
        assert oracle.query_batch([(1, 7), (2, 9)] * 500) == want
        assert oracle.query_batch([(1, 7), (2, 9)]) == want[:2]
        info = oracle.cache_info()
        assert (info.hits, info.misses, info.size) == (0, 1, 1)

    def test_clear_cache_drops_inverted_index(self, built):
        _, idx = built
        oracle = DistanceOracle(idx)
        oracle.nearest(0, 3)
        inverted = oracle._inverted
        assert inverted is not None
        oracle.clear_cache()
        assert oracle._inverted is None

    def test_eviction_respects_capacity(self, built):
        _, idx = built
        oracle = DistanceOracle(idx, cache_size=4)
        for t in range(10):
            oracle.query(0, t)
        assert oracle.cache_info().size <= 4

    def test_zero_capacity_disables(self, built):
        _, idx = built
        oracle = DistanceOracle(idx, cache_size=0)
        oracle.query(0, 5)
        oracle.query(0, 5)
        info = oracle.cache_info()
        assert info.hits == 0
        assert info.size == 0

    def test_clear_cache(self, built):
        _, idx = built
        oracle = DistanceOracle(idx)
        oracle.query(0, 5)
        oracle.clear_cache()
        info = oracle.cache_info()
        assert info.size == 0 and info.misses == 0

    def test_negative_capacity_rejected(self, built):
        _, idx = built
        with pytest.raises(ValueError):
            DistanceOracle(idx, cache_size=-1)


class TestOpen:
    @pytest.mark.parametrize("fmt", ["v1", "v2"])
    @pytest.mark.parametrize("backend", ["flat", "list"])
    def test_open_any_format_any_backend(self, tmp_path, built, fmt, backend):
        _, idx = built
        path = tmp_path / f"x.{fmt}"
        if fmt == "v1":
            idx.save(path)
        else:
            FlatLabelStore.from_index(idx).save(path)
        oracle = DistanceOracle.open(path, backend=backend)
        for s, t in [(0, 1), (5, 40), (7, 7)]:
            assert oracle.query(s, t) == idx.query(s, t)

    def test_open_mmap(self, tmp_path, built):
        _, idx = built
        path = tmp_path / "x.idx2"
        FlatLabelStore.from_index(idx).save(path)
        oracle = DistanceOracle.open(path, use_mmap=True)
        pairs = all_pairs(idx.n)
        assert oracle.query_batch(pairs) == [idx.query(s, t)
                                             for s, t in pairs]

    def test_open_list_backend_never_maps(self, tmp_path, built):
        _, idx = built
        path = tmp_path / "x.idx2"
        FlatLabelStore.from_index(idx).save(path)
        oracle = DistanceOracle.open(path, backend="list", use_mmap=True)
        assert not getattr(oracle.store, "is_mmapped", False)
        oracle.close()  # no mapping to leak; file is freely deletable
        path.unlink()

    def test_close_releases_mmap_backend(self, tmp_path, built):
        _, idx = built
        path = tmp_path / "x.idx2"
        FlatLabelStore.from_index(idx).save(path)
        oracle = DistanceOracle.open(path, use_mmap=True)
        assert oracle.store.is_mmapped
        oracle.close()
        assert not oracle.store.is_mmapped

    def test_open_unknown_backend(self, tmp_path, built):
        _, idx = built
        path = tmp_path / "x.idx"
        idx.save(path)
        with pytest.raises(ValueError, match="backend"):
            DistanceOracle.open(path, backend="gpu")


class TestDerivedWorkloads:
    def test_is_reachable_and_via(self, built):
        _, idx = built
        oracle = DistanceOracle(FlatLabelStore.from_index(idx))
        assert oracle.is_reachable(0, 1) == (idx.query(0, 1) != INF)
        assert oracle.query_via(0, 1) == idx.query_via(0, 1)

    def test_reconstruct_path_needs_graph(self, built):
        _, idx = built
        oracle = DistanceOracle(idx)
        with pytest.raises(ValueError, match="graph"):
            oracle.reconstruct_path(0, 1)

    def test_reconstruct_path(self, built):
        g, idx = built
        oracle = DistanceOracle(FlatLabelStore.from_index(idx), graph=g)
        d = oracle.query(0, 50)
        if d == INF:
            assert oracle.reconstruct_path(0, 50) is None
        else:
            path = oracle.reconstruct_path(0, 50)
            assert path[0] == 0 and path[-1] == 50
            total = sum(
                g.edge_weight(path[i], path[i + 1])
                for i in range(len(path) - 1)
            )
            assert total == d

    def test_attach_graph(self, built):
        g, idx = built
        oracle = DistanceOracle(idx)
        oracle.attach_graph(g)
        assert oracle.reconstruct_path(3, 3) == [3]

    def test_nearest_matches_inverted_index(self, built):
        _, idx = built
        oracle = DistanceOracle(FlatLabelStore.from_index(idx))
        expected = InvertedLabelIndex(idx).nearest(4, 6)
        assert oracle.nearest(4, 6) == expected
        # Lazily built once, then reused.
        assert oracle._inverted_index() is oracle._inverted_index()

    def test_distances_from_and_to(self, built):
        _, idx = built
        oracle = DistanceOracle(FlatLabelStore.from_index(idx))
        dist = oracle.distances_from(2)
        assert dist == [idx.query(2, t) for t in range(idx.n)]
        back = oracle.distances_to(2)
        assert back == [idx.query(s, 2) for s in range(idx.n)]

    def test_facts_and_repr(self, built):
        _, idx = built
        oracle = DistanceOracle(idx)
        assert oracle.n == idx.n
        assert oracle.directed == idx.directed
        assert "DistanceOracle" in repr(oracle)


class TestFacadeOracle:
    def test_loaded_index_accepts_graph_kwarg(self, tmp_path):
        from repro import HopDoublingIndex

        g = glp_graph(80, seed=4)
        built = HopDoublingIndex.build(g)
        path = tmp_path / "x.idx"
        built.save(path)
        loaded = HopDoublingIndex.load(path)  # no retained graph
        oracle = loaded.oracle(graph=g)
        path_ = oracle.reconstruct_path(0, 40)
        if oracle.query(0, 40) != INF:
            assert path_[0] == 0 and path_[-1] == 40

    def test_verify_accepts_flat_store(self):
        from repro.core.verify import verify_index

        g = glp_graph(60, seed=8)
        idx = HybridBuilder(g).build().index
        report = verify_index(g, FlatLabelStore.from_index(idx), samples=60)
        assert report.ok


class TestQueryManyDelegation:
    def test_matches_per_pair(self, built):
        _, idx = built
        pairs = all_pairs(idx.n, 3, 7) + [(0, 0), (1, 1)]
        assert query_many(idx, pairs) == [idx.query(s, t) for s, t in pairs]

    def test_flat_store_accepted(self, built):
        _, idx = built
        flat = FlatLabelStore.from_index(idx)
        pairs = all_pairs(idx.n, 6, 8)
        assert query_many(flat, pairs) == [idx.query(s, t) for s, t in pairs]


class TestPairFile:
    def test_parse_with_comments(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_text(
            "# workload\n% |V|=30 header\n0 10\n5 25  # inline\n\n10 0\n"
        )
        assert read_pair_file(path) == [(0, 10), (5, 25), (10, 0)]

    @pytest.mark.parametrize("line", ["0", "0 1 2", "a b"])
    def test_malformed_rejected(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match="expected 's t'"):
            read_pair_file(path)
