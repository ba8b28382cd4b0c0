"""Small shared utilities: timing, validation, number formatting.

These helpers are deliberately dependency-free so that every other
subpackage (graphs, core, oracle, serve) can use them without import
cycles.
"""

from repro.utils.timer import Timer, format_duration
from repro.utils.validation import (
    check_index,
    check_nonnegative,
    check_positive,
    check_probability,
    check_vertex,
)
from repro.utils.prettyprint import format_bytes, format_count

__all__ = [
    "Timer",
    "format_duration",
    "check_index",
    "check_nonnegative",
    "check_positive",
    "check_probability",
    "check_vertex",
    "format_bytes",
    "format_count",
]
