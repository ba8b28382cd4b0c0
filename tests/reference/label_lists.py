"""Every label of a store as lists, for tests that compare label sets.

Importable from ``tests/`` and ``benchmarks/`` alike as
``tests.reference.label_lists``.
"""

from __future__ import annotations

from paper.labels import LabelIndex


def label_lists(store) -> tuple[list, list]:
    """``(out, in)``: each vertex's ``out_label`` / ``in_label`` as a
    list of ``(pivot, dist)`` pairs — the same lists twice when the
    store is undirected."""
    out = [list(store.out_label(v)) for v in range(store.n)]
    if not store.directed:
        return out, out
    return out, [list(store.in_label(v)) for v in range(store.n)]


def as_label_index(store) -> LabelIndex:
    """``store``'s labels as a tuple-list :class:`paper.labels.LabelIndex`
    (the merge-join reference; not a CSR store)."""
    return LabelIndex(store.n, store.directed, *label_lists(store), store.rank)
