"""Label coverage by top-ranked vertices (Figure 8 and Table 7).

How many of an index's non-trivial label entries have their pivot
among the top-ranked vertices: the measured form of the paper's
small-hitting-set assumption.  Plain functions of a
:class:`~repro.core.labels.LabelStore` that carries its ranking (a
built :class:`~repro.core.flatstore.FlatLabelStore` or a baseline's
:class:`~paper.labels.LabelIndex`), read through
``out_label``/``in_label``.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.labels import LabelStore


def entries_per_pivot(index: LabelStore) -> dict[int, int]:
    """Non-trivial entry counts keyed by pivot vertex."""
    counts: dict[int, int] = {}
    for v in range(index.n):
        for p, _ in index.out_label(v):
            if p != v:
                counts[p] = counts.get(p, 0) + 1
        if index.directed:
            for p, _ in index.in_label(v):
                if p != v:
                    counts[p] = counts.get(p, 0) + 1
    return counts


def _ranked(index: LabelStore) -> tuple[dict[int, int], int, list[int]]:
    """``(entries_per_pivot, their total, vertices in rank order)``."""
    if index.rank is None:
        raise ValueError("index has no ranking attached")
    counts = entries_per_pivot(index)
    order = sorted(range(index.n), key=lambda v: index.rank[v])
    return counts, sum(counts.values()), order


def coverage_curve(
    index: LabelStore, fractions: Sequence[float]
) -> list[tuple[float, float]]:
    """``(f, covered)`` per fraction ``f`` of top-ranked vertices.

    ``covered`` is the fraction of non-trivial label entries whose pivot
    lies in that top set (the paper's Figure 8).
    """
    counts, total, order = _ranked(index)
    curve = []
    for f in fractions:
        k = max(1, int(round(f * index.n)))
        covered = sum(counts.get(v, 0) for v in order[:k])
        curve.append((f, covered / total if total else 1.0))
    return curve


def top_fraction_for_coverage(index: LabelStore, target: float) -> float:
    """Smallest fraction of top vertices covering ``target`` of entries.

    This regenerates the "top vertices coverage 70%/80%/90%" columns
    of Table 7.
    """
    counts, total, order = _ranked(index)
    if total == 0:
        return 0.0
    covered = 0
    for k, v in enumerate(order, start=1):
        covered += counts.get(v, 0)
        if covered >= target * total:
            return k / index.n
    return 1.0
