"""Compact human-readable byte counts and counts for CLI output."""

from __future__ import annotations


def format_bytes(num_bytes: float) -> str:
    """Render a byte count with binary units.

    >>> format_bytes(512)
    '512B'
    >>> format_bytes(2048)
    '2.0KB'
    >>> format_bytes(3 * 1024 * 1024)
    '3.0MB'
    """
    if num_bytes < 0:
        raise ValueError("byte count must be non-negative")
    value = float(num_bytes)
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if value < 1024.0 or unit == "TB":
            if unit == "B":
                return f"{int(value)}B"
            return f"{value:.1f}{unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


def format_count(count: float) -> str:
    """Render a count compactly: 950 -> '950', 5_300_000 -> '5.3M'.

    >>> format_count(950)
    '950'
    >>> format_count(62_000)
    '62.0K'
    >>> format_count(5_300_000)
    '5.3M'
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if count < 1000:
        return str(int(count))
    if count < 1_000_000:
        return f"{count / 1000:.1f}K"
    if count < 1_000_000_000:
        return f"{count / 1_000_000:.1f}M"
    return f"{count / 1_000_000_000:.2f}B"

