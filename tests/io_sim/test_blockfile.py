"""Tests for EntryFile (both backends) and external sort."""

import pytest

from paper.io_sim.blockfile import EntryFile
from paper.io_sim.diskmodel import DiskModel
from paper.io_sim.external_sort import external_sort


def _entries(n, stride=1):
    return [(i * stride, i + 100, float(i), 1) for i in range(n)]


@pytest.fixture(params=["memory", "disk"])
def backend(request):
    return request.param


class TestEntryFile:
    def test_replace_and_scan(self, backend):
        disk = DiskModel(128, 16)
        f = EntryFile("t", disk, backend)
        f.replace_contents(_entries(40))
        assert len(f) == 40
        assert f.scan() == _entries(40)
        f.close()

    def test_scan_charges_blocks(self, backend):
        disk = DiskModel(128, 16)
        f = EntryFile("t", disk, backend)
        f.replace_contents(_entries(40))
        before = disk.snapshot()
        f.scan()
        assert (disk.snapshot() - before).reads == disk.blocks(40)
        f.close()

    def test_contents_sorted_by_key(self, backend):
        disk = DiskModel(128, 16)
        f = EntryFile("t", disk, backend)
        data = [(5, 0, 1.0, 1), (1, 0, 1.0, 1), (3, 0, 1.0, 1)]
        f.replace_contents(data)
        assert [e[0] for e in f.scan()] == [1, 3, 5]
        f.close()

    def test_range_scan_returns_key_range(self, backend):
        disk = DiskModel(256, 16)
        f = EntryFile("t", disk, backend)
        f.replace_contents(_entries(50, stride=2))  # keys 0,2,...,98
        hits = f.range_scan(10, 20)
        assert [e[0] for e in hits] == [10, 12, 14, 16, 18, 20]
        f.close()

    def test_range_scan_charges_only_touched_blocks(self, backend):
        disk = DiskModel(256, 16)
        f = EntryFile("t", disk, backend)
        f.replace_contents(_entries(160))
        before = disk.snapshot()
        f.range_scan(0, 15)  # exactly one block
        assert (disk.snapshot() - before).reads == 1
        f.close()

    def test_empty_range(self, backend):
        disk = DiskModel(128, 16)
        f = EntryFile("t", disk, backend)
        f.replace_contents(_entries(10))
        assert f.range_scan(500, 600) == []
        f.close()

    def test_chunks_cover_everything(self, backend):
        disk = DiskModel(128, 16)
        f = EntryFile("t", disk, backend)
        f.replace_contents(_entries(45))
        got = []
        for chunk in f.chunks(10):
            assert len(chunk) <= 10
            got.extend(chunk)
        assert got == _entries(45)
        f.close()

    def test_chunks_validate_size(self, backend):
        disk = DiskModel(128, 16)
        f = EntryFile("t", disk, backend)
        with pytest.raises(ValueError):
            list(f.chunks(0))
        f.close()

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            EntryFile("t", DiskModel(), backend="tape")

    def test_disk_backend_cleans_up(self):
        disk = DiskModel(128, 16)
        f = EntryFile("t", disk, "disk")
        f.replace_contents(_entries(5))
        path = f._backend.path
        assert path.exists()
        f.close()
        assert not path.exists()

    def test_large_replace_charges_sort(self):
        disk = DiskModel(128, 16)
        f = EntryFile("t", disk, "memory")
        before = disk.snapshot()
        f.replace_contents(_entries(1000))
        delta = disk.snapshot() - before
        assert delta.writes > disk.blocks(1000)  # multi-pass sort
        f.close()


class TestExternalSort:
    def test_sorts_correctly(self):
        disk = DiskModel(64, 8)
        data = [(i * 37 % 101, 0, 0.0, 1) for i in range(300)]
        out = external_sort(data, disk)
        assert [e[0] for e in out] == sorted(e[0] for e in data)

    def test_cost_grows_with_merge_passes(self):
        small_disk = DiskModel(64, 8)
        external_sort([(i, 0, 0.0, 1) for i in range(60)], small_disk)
        small_cost = small_disk.stats.total

        big_disk = DiskModel(64, 8)
        external_sort(
            [(i * 13 % 5000, 0, 0.0, 1) for i in range(5000)], big_disk
        )
        big_cost = big_disk.stats.total
        # 5000 entries in 64-entry memory: multiple merge passes.
        assert big_cost > 10 * small_cost

    def test_empty_input(self):
        disk = DiskModel(64, 8)
        assert external_sort([], disk) == []
        assert disk.stats.total == 0

    def test_custom_key(self):
        disk = DiskModel(64, 8)
        data = [(0, i, 0.0, 1) for i in range(20, 0, -1)]
        out = external_sort(data, disk, key=lambda e: e[1])
        assert [e[1] for e in out] == list(range(1, 21))
