"""Smoke tests for the table/figure drivers on miniature inputs.

The full drivers run under ``pytest benchmarks/``; here we only check
that each produces structurally sane output quickly, using the tiniest
datasets and tight budgets.
"""

import pytest

from paper.__main__ import build_parser, main
from paper.bench import figure8, figure9, figure10, table6, table7, table8
from paper.bench.harness import run_dataset


class TestHarness:
    def test_run_dataset_single_method(self):
        result = run_dataset(
            "enron", methods=("hopdb",), num_queries=20, budget=60.0
        )
        hop = result.get("hopdb")
        assert hop is not None
        assert hop.index_bytes > 0
        assert hop.query.queries == 20
        assert hop.io_blocks > 0

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            run_dataset("enron", methods=("magic",))

    def test_budget_timeout_yields_none(self, monkeypatch):
        # Deterministic slow build: the real ISL build is fast enough on
        # the tiny datasets that relying on wall-clock races is flaky.
        import time

        import paper.bench.harness as harness

        def slow_build(graph):
            time.sleep(5.0)
            raise AssertionError("unreachable: budget should fire first")

        monkeypatch.setattr(harness, "build_islabel", slow_build)
        result = run_dataset(
            "enron", methods=("islabel",), num_queries=5, budget=0.05
        )
        assert result.get("islabel") is None


class TestTableDrivers:
    def test_table6_renders(self):
        result = table6.Table6(
            [run_dataset("enron", num_queries=20, budget=30.0)]
        )
        text = result.render()
        assert "Table 6" in text
        assert "enron" in text

    def test_table7_row(self):
        row = table7.run_one("enron")
        assert row.iterations >= 1
        assert row.avg_label > 0
        assert 0 < row.top70 <= row.top80 <= row.top90 <= 1.0
        text = table7.Table7([row]).render()
        assert "Table 7" in text

    def test_table8_row(self):
        from paper.bench.datasets import load_dataset

        row = table8.run_one("enron", load_dataset("enron"), budget=60.0)
        assert set(row.seconds) == set(table8.STRATEGIES)
        assert all(v is not None for v in row.iterations.values())
        text = table8.Table8([row]).render()
        assert "Hybrid" in text

    def test_long_diameter_graph(self):
        g = table8.long_diameter_graph(200, seed=1)
        assert g.num_vertices == 200
        from repro.graphs.stats import hop_diameter

        assert hop_diameter(g) > 20


class TestFigureDrivers:
    def test_figure8_curves(self):
        fig = figure8.run(["enron"])
        assert len(fig.curves) == 1
        points = fig.curves[0].points
        values = [c for _, c in points]
        assert values == sorted(values)  # coverage is monotone
        assert "Figure 8" in fig.render()

    def test_figure9_density_sweep(self):
        fig = figure9.run_density_sweep(num_vertices=150, densities=[2, 4])
        assert len(fig.points) == 2
        assert fig.points[1].num_edges > fig.points[0].num_edges
        assert "Figure 9" in fig.render()

    def test_figure9_size_sweep(self):
        fig = figure9.run_size_sweep(density=4.0, sizes=[100, 200])
        assert fig.points[0].num_vertices == 100
        assert fig.points[1].num_vertices == 200

    def test_figure10_series(self):
        fig = figure10.run("enron", switch_iteration=2)
        assert len(fig.points) >= 1
        for p in fig.points:
            assert 0.0 <= p.pruning_factor <= 1.0
            assert p.time_ratio >= 0.0
        total_time = sum(p.time_ratio for p in fig.points)
        assert total_time == pytest.approx(1.0)
        assert "Figure 10" in fig.render()


class TestCommandLine:
    def test_target_choices(self):
        args = build_parser().parse_args(["table7"])
        assert args.target == "table7"
        assert args.profile == "quick"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table99"])

    def test_prints_the_figure(self, capsys):
        assert main(["figure10"]) == 0
        assert "Figure 10" in capsys.readouterr().out
