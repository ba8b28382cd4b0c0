"""Tests for disk-resident query accounting."""

import pytest

from paper.io_sim.disk_index import DiskResidentIndex
from paper.io_sim.diskmodel import DiskModel
from repro.core.hybrid import make_builder
from repro.graphs.generators import glp_graph, star_graph


@pytest.fixture(scope="module")
def built():
    g = glp_graph(150, seed=30)
    idx = make_builder(g, "hybrid").build().index
    return g, idx


class TestDiskQueries:
    def test_answers_match_in_memory(self, built):
        g, idx = built
        dq = DiskResidentIndex(idx, DiskModel(256, 16))
        for s in range(0, g.num_vertices, 7):
            for t in range(0, g.num_vertices, 11):
                assert dq.query(s, t) == idx.query(s, t)

    def test_two_seeks_per_query(self, built):
        _, idx = built
        dq = DiskResidentIndex(idx, DiskModel(256, 16))
        dq.query(0, 1)
        assert dq.seeks == 2
        dq.query(2, 3)
        assert dq.seeks == 4

    def test_identity_query_free(self, built):
        _, idx = built
        dq = DiskResidentIndex(idx, DiskModel(256, 16))
        assert dq.query(5, 5) == 0.0
        assert dq.blocks_read == 0

    def test_blocks_scale_with_label_size(self):
        # A star's leaf labels are 2 entries: one block per side.
        g = star_graph(30)
        idx = make_builder(g, "hybrid").build().index
        dq = DiskResidentIndex(idx, DiskModel(256, 4))
        dq.query(1, 2)
        assert dq.blocks_read == 2

    def test_simulated_latency(self, built):
        _, idx = built
        dq = DiskResidentIndex(
            idx, DiskModel(256, 16), seek_seconds=1e-2, block_seconds=1e-3
        )
        dq.query(0, 1)
        expected = 2 * 1e-2 + (dq.blocks_read - 2) * 1e-3
        assert dq.simulated_seconds() == pytest.approx(expected)
        assert dq.avg_query_seconds() == pytest.approx(expected)

    def test_avg_blocks_per_query(self, built):
        _, idx = built
        dq = DiskResidentIndex(idx, DiskModel(256, 16))
        for i in range(10):
            dq.query(i, i + 20)
        assert dq.avg_blocks_per_query() >= 2.0

    def test_reset_counters(self, built):
        _, idx = built
        dq = DiskResidentIndex(idx, DiskModel(256, 16))
        dq.query(0, 1)
        dq.reset_counters()
        assert dq.queries == 0
        assert dq.blocks_read == 0
        assert dq.avg_query_seconds() == 0.0
