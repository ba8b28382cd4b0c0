"""Tests for CSV/JSON export of the table drivers and perf gates."""

import csv
import json

from paper.bench import table7
from paper.bench.export import write_bench_json, write_csv


class TestWriteCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        n = write_csv(path, ["a", "b"], [[1, 2], [3, None]])
        assert n == 2
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows == [["a", "b"], ["1", "2"], ["3", ""]]

    def test_empty(self, tmp_path):
        path = tmp_path / "e.csv"
        assert write_csv(path, ["x"], []) == 0


class TestWriteBenchJson:
    def test_writes_named_file_with_environment(self, tmp_path):
        path = write_bench_json(
            "unit", {"pairs_per_sec": 123}, directory=tmp_path
        )
        assert path == tmp_path / "BENCH_unit.json"
        document = json.loads(path.read_text())
        assert document["benchmark"] == "unit"
        assert document["pairs_per_sec"] == 123
        assert document["environment"]["implementation"]

    def test_payload_cannot_be_clobbered_silently(self, tmp_path):
        document = json.loads(
            write_bench_json(
                "named", {"benchmark": "custom"}, directory=tmp_path
            ).read_text()
        )
        # Payload keys win over the boilerplate, by design.
        assert document["benchmark"] == "custom"


class TestDriverCsv:
    def test_table7_to_csv(self, tmp_path):
        result = table7.Table7([table7.run_one("enron")])
        path = tmp_path / "t7.csv"
        assert result.to_csv(path) == 1
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "Graph"
        assert rows[1][0] == "enron"
