"""The per-vertex serving labels a label delta used to be built from.

:meth:`repro.core.dynamic.DynamicHopDoublingIndex.pop_label_delta`
cuts a delta's rows out of the repair state's columns in one pass
(:meth:`repro.core.arraystate.ArrayLabelState.label_rows`).  This is
the per-vertex path it replaced, kept as the reference the
read-after-write tests hold those columns to: one ``(pivot, dist)``
list per vertex, the trivial ``(v, 0.0)`` self entry re-inserted at
its sorted position.

Importable from ``tests/`` and ``benchmarks/`` alike as
``tests.reference.serving_labels``.
"""

from __future__ import annotations

import numpy as np


def serving_label(side, v: int) -> list[tuple[int, float]]:
    """Vertex ``v``'s label on one :class:`~repro.core.arraystate.SideArrays`,
    self entry included (the array state leaves it out)."""
    o, e = side.off[v], side.off[v + 1]
    label = list(zip(side.piv[o:e].tolist(), side.dist[o:e].tolist()))
    label.insert(int(np.searchsorted(side.piv[o:e], v)), (v, 0.0))
    return label


def serving_labels(state, side: int, verts) -> dict[int, list[tuple[int, float]]]:
    """:func:`serving_label` of every vertex of ``verts`` on store side
    ``side`` (0 = ``Lout``) of an ``ArrayLabelState``."""
    arrays = (state.out, state.inn)[side]
    return {v: serving_label(arrays, v) for v in verts}
