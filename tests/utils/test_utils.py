"""Tests for the utils package."""

import time

import pytest

from paper.bench.export import render_table
from repro.utils.prettyprint import format_bytes, format_count
from repro.utils.timer import Timer, format_duration
from repro.utils.validation import (
    check_index,
    check_nonnegative,
    check_positive,
    check_probability,
)


class TestTimer:
    def test_measures_time(self):
        t = Timer().start()
        time.sleep(0.01)
        elapsed = t.stop()
        assert 0.005 < elapsed < 1.0

    def test_accumulates(self):
        t = Timer()
        t.start()
        t.stop()
        first = t.elapsed
        t.start()
        t.stop()
        assert t.elapsed >= first

    def test_context_manager(self):
        with Timer() as t:
            time.sleep(0.001)
        assert t.elapsed > 0

    def test_double_start_rejected(self):
        t = Timer().start()
        with pytest.raises(RuntimeError):
            t.start()
        t.stop()

    def test_stop_without_start_rejected(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_reset(self):
        t = Timer()
        t.start()
        t.stop()
        t.reset()
        assert t.elapsed == 0.0

    def test_reset_while_running_rejected(self):
        t = Timer().start()
        with pytest.raises(RuntimeError):
            t.reset()
        t.stop()

    def test_running_flag(self):
        t = Timer()
        assert not t.running
        t.start()
        assert t.running
        t.stop()
        assert not t.running


class TestFormatDuration:
    @pytest.mark.parametrize(
        "seconds,expected",
        [
            (2.1e-6, "2.1us"),
            (0.0042, "4.2ms"),
            (3.5, "3.50s"),
            (75, "1m15s"),
        ],
    )
    def test_units(self, seconds, expected):
        assert format_duration(seconds) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_duration(-1)


class TestFormatters:
    @pytest.mark.parametrize(
        "n,expected",
        [(512, "512B"), (2048, "2.0KB"), (3 * 1024**2, "3.0MB")],
    )
    def test_bytes(self, n, expected):
        assert format_bytes(n) == expected

    @pytest.mark.parametrize(
        "n,expected",
        [(950, "950"), (62_000, "62.0K"), (5_300_000, "5.3M"),
         (2_000_000_000, "2.00B")],
    )
    def test_counts(self, n, expected):
        assert format_count(n) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_bytes(-1)
        with pytest.raises(ValueError):
            format_count(-1)


class TestRenderTable:
    def test_alignment_and_none(self):
        out = render_table(
            ["name", "val"],
            [["a", 1], ["bb", None]],
            title="T",
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "—" in out
        assert "name" in lines[2]

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [["only-one"]])


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1)
        with pytest.raises(ValueError):
            check_positive("x", 0)

    def test_check_nonnegative(self):
        check_nonnegative("x", 0)
        with pytest.raises(ValueError):
            check_nonnegative("x", -1)

    def test_check_probability(self):
        check_probability("p", 0.5)
        with pytest.raises(ValueError):
            check_probability("p", 1.5)

    def test_check_index(self):
        check_index("i", 0, 3)
        with pytest.raises(IndexError):
            check_index("i", 3, 3)
        with pytest.raises(TypeError):
            check_index("i", 1.5, 3)
