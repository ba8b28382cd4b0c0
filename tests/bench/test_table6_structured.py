"""Structured assertions on Table 6's result objects.

The benchmark front-end checks shapes; these tests check the harness
plumbing itself: per-method cells, '—' rendering, CSV export, and the
profile wiring — on the single smallest dataset so they stay fast.
"""

import csv

import pytest

from paper.bench import table6
from paper.bench.harness import run_dataset


@pytest.fixture(scope="module")
def enron_result():
    return run_dataset("enron", num_queries=40, budget=60.0)


class TestMethodCells:
    def test_all_methods_present(self, enron_result):
        assert set(enron_result.methods) == {
            "bidij",
            "islabel",
            "pll",
            "hopdb",
        }
        assert all(m is not None for m in enron_result.methods.values())

    def test_hopdb_cells(self, enron_result):
        hop = enron_result.get("hopdb")
        assert hop.index_bytes > 0
        assert hop.build_seconds > 0
        assert hop.query_micros > 0
        assert hop.disk_query_ms > 0
        assert hop.io_blocks > 0
        assert hop.iterations >= 1

    def test_bidij_cells(self, enron_result):
        bid = enron_result.get("bidij")
        assert bid.index_bytes == 0
        assert bid.build_seconds == 0.0
        assert bid.query_micros > 0

    def test_size_ordering(self, enron_result):
        hop = enron_result.get("hopdb")
        isl = enron_result.get("islabel")
        pll = enron_result.get("pll")
        assert hop.index_bytes == pll.index_bytes  # canonical identity
        assert hop.index_bytes <= isl.index_bytes

    def test_summary_matches_spec(self, enron_result):
        assert enron_result.summary.num_vertices == 600
        assert not enron_result.summary.directed


class TestRendering:
    def test_render_contains_all_columns(self, enron_result):
        text = table6.Table6([enron_result]).render()
        for header in ("idx HopDb", "q BIDIJ(us)", "dq HopDb(ms)"):
            assert header in text

    def test_missing_method_renders_dash(self, enron_result):
        import copy

        crippled = copy.copy(enron_result)
        crippled.methods = dict(enron_result.methods)
        crippled.methods["islabel"] = None
        text = table6.Table6([crippled]).render()
        assert "—" in text

    def test_csv_export(self, tmp_path, enron_result):
        t = table6.Table6([enron_result])
        path = tmp_path / "t6.csv"
        assert t.to_csv(path) == 1
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == table6.HEADERS
        assert rows[1][0] == "enron"
