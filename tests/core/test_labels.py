"""Unit tests for the dict label model (``paper.labels``) and v1 reads."""

import pytest

from paper.coverage import coverage_curve, top_fraction_for_coverage
from paper.labels import (
    DirectedLabelState,
    LabelIndex,
    UndirectedLabelState,
    merge_join_distance,
)
from repro.core.flatstore import load_store
from repro.core.hybrid import HybridBuilder
from repro.core.labels import BYTES_PER_ENTRY, INF
from repro.graphs.generators import glp_graph
from tests.reference.label_lists import as_label_index, label_lists
from tests.reference.v1_writer import write_v1


class TestDirectedState:
    def test_self_entries_present(self):
        st = DirectedLabelState([0, 1, 2])
        assert st.out[1][1] == (0.0, 0)
        assert st.inn[1][1] == (0.0, 0)

    def test_out_pair_placement(self):
        # rank: v0 highest.  Pair 2 -> 0 goes to Lout(2).
        st = DirectedLabelState([0, 1, 2])
        st.set_pair(2, 0, 1.0, 1)
        assert st.out[2][0] == (1.0, 1)
        assert st.rev_out[0][2] == (1.0, 1)
        assert st.get_pair(2, 0) == (1.0, 1)

    def test_in_pair_placement(self):
        # Pair 0 -> 2 (source outranks target) goes to Lin(2).
        st = DirectedLabelState([0, 1, 2])
        st.set_pair(0, 2, 3.0, 2)
        assert st.inn[2][0] == (3.0, 2)
        assert st.rev_in[0][2] == (3.0, 2)
        assert st.get_pair(0, 2) == (3.0, 2)

    def test_remove_pair_cleans_reverse_index(self):
        st = DirectedLabelState([0, 1])
        st.set_pair(1, 0, 1.0, 1)
        st.remove_pair(1, 0)
        assert st.get_pair(1, 0) is None
        assert st.rev_out[0] == {}

    def test_two_hop_bound_via_common_pivot(self):
        st = DirectedLabelState([0, 1, 2])
        st.set_pair(1, 0, 2.0, 1)  # Lout(1): 0 at 2
        st.set_pair(0, 2, 3.0, 1)  # Lin(2): 0 at 3
        assert st.two_hop_bound(1, 2) == 5.0

    def test_two_hop_bound_exclude_pivot(self):
        st = DirectedLabelState([0, 1, 2])
        st.set_pair(1, 0, 2.0, 1)
        st.set_pair(0, 2, 3.0, 1)
        assert st.two_hop_bound(1, 2, exclude_pivot=0) == INF

    def test_two_hop_bound_self_pivot_route(self):
        st = DirectedLabelState([0, 1])
        st.set_pair(0, 1, 4.0, 1)  # Lin(1) gets pivot 0
        # Route 0 -> 1 via pivot 0: Lout(0)[0]=0 + Lin(1)[0]=4.
        assert st.two_hop_bound(0, 1) == 4.0

    def test_total_entries_excludes_self(self):
        st = DirectedLabelState([0, 1])
        assert st.total_entries() == 0
        st.set_pair(1, 0, 1.0, 1)
        assert st.total_entries() == 1

    def test_iter_entries(self):
        st = DirectedLabelState([0, 1, 2])
        st.set_pair(2, 0, 1.0, 1)
        st.set_pair(0, 1, 2.0, 1)
        entries = sorted(st.iter_entries())
        assert (1, 0, 2.0, 1, False) in entries
        assert (2, 0, 1.0, 1, True) in entries


class TestUndirectedState:
    def test_owner_pivot_normalization(self):
        st = UndirectedLabelState([1, 0])  # vertex 1 outranks vertex 0
        assert st.owner_pivot(0, 1) == (0, 1)
        assert st.owner_pivot(1, 0) == (0, 1)

    def test_set_get_either_order(self):
        st = UndirectedLabelState([0, 1])
        st.set_pair(1, 0, 2.0, 1)
        assert st.get_pair(0, 1) == (2.0, 1)
        assert st.get_pair(1, 0) == (2.0, 1)
        assert st.rev[0][1] == (2.0, 1)

    def test_two_hop_bound(self):
        st = UndirectedLabelState([0, 1, 2])
        st.set_pair(1, 0, 1.0, 1)
        st.set_pair(2, 0, 2.0, 1)
        assert st.two_hop_bound(1, 2) == 3.0


class TestLabelIndexQuery:
    def test_merge_join_basic(self):
        a = [(0, 1.0), (3, 2.0), (7, 1.0)]
        b = [(1, 5.0), (3, 1.0), (7, 3.0)]
        assert merge_join_distance(a, b) == 3.0

    def test_merge_join_no_common(self):
        assert merge_join_distance([(0, 1.0)], [(1, 1.0)]) == INF

    def test_query_identity(self):
        g = glp_graph(50, seed=1)
        idx = as_label_index(HybridBuilder(g).build().index)
        assert idx.query(7, 7) == 0.0

    def test_query_out_of_range(self):
        g = glp_graph(20, seed=1)
        idx = as_label_index(HybridBuilder(g).build().index)
        with pytest.raises(IndexError):
            idx.query(0, 99)


class TestLabelIndexStats:
    def test_stats_and_bytes(self):
        g = glp_graph(80, seed=3)
        idx = as_label_index(HybridBuilder(g).build().index)
        stats = idx.stats()
        assert stats.total_entries == idx.total_entries()
        assert stats.avg_label_size == pytest.approx(
            stats.total_entries / g.num_vertices
        )
        assert idx.size_in_bytes() == (
            idx.total_entries(include_trivial=True) * BYTES_PER_ENTRY
        )
        assert "avg" in str(stats)

    def test_coverage_curve_monotone(self):
        g = glp_graph(200, seed=4)
        idx = as_label_index(HybridBuilder(g).build().index)
        curve = coverage_curve(idx, [0.01, 0.1, 0.5, 1.0])
        values = [c for _, c in curve]
        assert values == sorted(values)
        assert values[-1] == pytest.approx(1.0)

    def test_top_fraction_for_coverage(self):
        g = glp_graph(200, seed=4)
        idx = as_label_index(HybridBuilder(g).build().index)
        f70 = top_fraction_for_coverage(idx, 0.7)
        f90 = top_fraction_for_coverage(idx, 0.9)
        assert 0 < f70 <= f90 <= 1.0

    def test_coverage_requires_ranking(self):
        idx = LabelIndex(2, False, [[(0, 0.0)], [(1, 0.0)]],
                         [[(0, 0.0)], [(1, 0.0)]], rank=None)
        with pytest.raises(ValueError):
            coverage_curve(idx, [0.5])


class TestSerialization:
    """v1 files (written only by ``tests/reference/v1_writer.py``) are
    read by :func:`load_store` into CSR columns."""

    @pytest.mark.parametrize("directed", [True, False])
    def test_save_load_round_trip(self, tmp_path, directed):
        g = glp_graph(60, seed=5, directed=directed)
        store = HybridBuilder(g).build().index
        path = tmp_path / "x.idx"
        write_v1(store, path)
        loaded = load_store(path)
        assert loaded.n == store.n
        assert loaded.directed == store.directed
        assert loaded.encoding == "v2"
        assert label_lists(loaded) == label_lists(store)
        assert loaded.rank == store.rank

    def test_undirected_load_aliases_labels(self, tmp_path):
        g = glp_graph(30, seed=6)
        path = tmp_path / "x.idx"
        write_v1(HybridBuilder(g).build().index, path)
        loaded = load_store(path)
        assert loaded.in_pivots is loaded.out_pivots
        assert loaded.in_offsets is loaded.out_offsets

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"garbage!")
        with pytest.raises(ValueError):
            load_store(path)

    def test_truncated_file_rejected(self, tmp_path):
        g = glp_graph(40, seed=7)
        path = tmp_path / "full.idx"
        write_v1(HybridBuilder(g).build().index, path)
        data = path.read_bytes()
        truncated = tmp_path / "trunc.idx"
        truncated.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_store(truncated)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.idx"
        path.write_bytes(b"RPLI\x01")  # magic + partial header
        with pytest.raises(ValueError, match="truncated"):
            load_store(path)
