"""Tests for the Aggarwal-Vitter disk model."""

import pytest

from paper.io_sim.diskmodel import DiskModel, IOStats


class TestParameters:
    def test_defaults_valid(self):
        d = DiskModel()
        assert d.memory_entries >= 2 * d.block_entries

    def test_memory_must_hold_two_blocks(self):
        with pytest.raises(ValueError):
            DiskModel(memory_entries=10, block_entries=8)

    def test_block_must_be_positive(self):
        with pytest.raises(ValueError):
            DiskModel(memory_entries=10, block_entries=0)


class TestCharges:
    def test_blocks_ceiling(self):
        d = DiskModel(128, 16)
        assert d.blocks(0) == 0
        assert d.blocks(1) == 1
        assert d.blocks(16) == 1
        assert d.blocks(17) == 2

    def test_read_write_counters(self):
        d = DiskModel(128, 16)
        d.charge_read(32)
        d.charge_write(16)
        assert d.stats.reads == 2
        assert d.stats.writes == 1
        assert d.stats.total == 3

    def test_block_reads_direct(self):
        d = DiskModel(128, 16)
        d.charge_block_reads(5)
        assert d.stats.reads == 5

    def test_snapshot_delta(self):
        d = DiskModel(128, 16)
        d.charge_read(16)
        before = d.snapshot()
        d.charge_read(32)
        delta = d.snapshot() - before
        assert delta.reads == 2
        assert delta.writes == 0

    def test_reset(self):
        d = DiskModel(128, 16)
        d.charge_read(160)
        d.reset()
        assert d.stats.total == 0


class TestSortCosts:
    def test_in_memory_sort_single_pass(self):
        d = DiskModel(128, 16)
        blocks = d.charge_sort(100)  # fits in memory: read+write once
        assert blocks == 2 * d.blocks(100)
        assert d.sort_passes(100) == 0

    def test_external_sort_passes(self):
        d = DiskModel(128, 16)
        # 128-entry memory, fan-in 8: 10_000 entries -> ceil(N/M)=79 runs
        # -> ceil(log_8 79) = 3... at least 2 passes.
        assert d.sort_passes(10_000) >= 2

    def test_sort_cost_monotone(self):
        d1 = DiskModel(128, 16)
        d2 = DiskModel(128, 16)
        small = d1.charge_sort(500)
        large = d2.charge_sort(50_000)
        assert large > small

    def test_zero_sort_free(self):
        d = DiskModel(128, 16)
        assert d.charge_sort(0) == 0
        assert d.stats.total == 0


class TestIOStats:
    def test_str(self):
        s = IOStats(reads=3, writes=2)
        assert "reads=3" in str(s)
        assert s.total == 5
