"""The reference dynamic-repair engine, over the dict label states.

:class:`~repro.core.dynamic.DynamicHopDoublingIndex` repairs on the
struct-of-arrays state.  This is the per-entry path it grew out of,
kept here as the oracle the bit-identity tests hold the array engine
to: the same insertion sequence must leave the same label state.
:class:`DictRepairIndex` plugs it into the index through its one
private seam, ``_repair_engine``; everything else about the index —
adoption, edge bookkeeping, the label delta — is the package's own.

Importable from ``tests/`` and ``benchmarks/`` alike as
``tests.reference.dict_repair`` (the repository root is on the pytest
``pythonpath``).
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Sequence

import numpy as np

from paper.labels import (
    DirectedLabelState,
    LabelIndex,
    UndirectedLabelState,
    admit_and_prune,
    to_store,
)
from repro.core.dynamic import DynamicHopDoublingIndex
from repro.core.flatstore import FlatLabelStore
from repro.core.labels import LabelRows
from repro.core.rules import PrevEntry
from tests.reference.dict_build import exhaustive_prune, make_engine


def admit_entries(
    state: DirectedLabelState | UndirectedLabelState,
    entries: list[PrevEntry],
) -> list[PrevEntry]:
    """Admit pre-staged ``(a, b, dist, hops)`` entries; return the admitted.

    The admission half of :func:`~paper.labels.admit_and_prune`
    for entries that are *facts* rather than rule candidates — the
    unit-hop entries of inserted edges.  Each entry is staged when the
    pair is absent or its distance strictly improves, and is never
    pruned here: a dominated edge entry is harmless (its distance is a
    real path length) and the repair rounds it seeds still run.  The
    returned list is the repair frontier.  The array twin is
    :meth:`repro.core.arraystate.ArrayLabelState.admit`, which applies
    the identical rule, so both engines stage the same seeds.
    """
    staged: list[PrevEntry] = []
    for a, b, dist, hops in entries:
        existing = state.get_pair(a, b)
        if existing is not None and existing[0] <= dist:
            continue
        state.set_pair(a, b, dist, hops)
        staged.append((a, b, dist, hops))
    return staged


class DictRepairEngine:
    """The reference repair path over the dict-based label states.

    Repair must use the FULL rule set: the minimized rules'
    equivalence (Lemma 4) relies on alternative derivations that exist
    when building from scratch but not when extending a single fresh
    entry — e.g. stitching the new edge to partners reachable only
    through its own pivot.
    """

    def __init__(self, state: DirectedLabelState | UndirectedLabelState) -> None:
        self.state = state
        # The rule engines consult the graph only for *stepping* joins;
        # repair rounds are pure doubling, so no graph is attached.
        self.rules = make_engine(state, None, "full")

    @classmethod
    def from_label_entries(
        cls,
        rank_of: Sequence[int],
        directed: bool,
        entries: Iterable[tuple[int, int, float, int]],
    ) -> "DictRepairEngine":
        if directed:
            state: DirectedLabelState | UndirectedLabelState = (
                DirectedLabelState(rank_of)
            )
        else:
            state = UndirectedLabelState(rank_of)
        for a, b, dist, hops in entries:
            state.set_pair(a, b, dist, hops)
        return cls(state)

    @classmethod
    def from_columns(
        cls, rank_of: Sequence[int], directed: bool, a, b, dist
    ) -> "DictRepairEngine":
        """:meth:`from_label_entries` over the columns the index adopts."""
        entries = zip(a.tolist(), b.tolist(), dist.tolist(), repeat(1))
        return cls.from_label_entries(rank_of, directed, entries)

    # -- repair --------------------------------------------------------
    def admit_and_repair(self, entries: list[PrevEntry]) -> int:
        staged = admit_entries(self.state, entries)
        self.repair(staged)
        return len(staged)

    def repair(self, prev: list[PrevEntry]) -> None:
        """Doubling rounds until no surviving candidate remains."""
        while prev:
            candidates = self.rules.doubling(prev)
            prev, _ = admit_and_prune(self.state, candidates)

    # -- queries / maintenance -----------------------------------------
    def query(self, s: int, t: int) -> float:
        return self.state.two_hop_bound(s, t)

    def snapshot(self) -> FlatLabelStore:
        return to_store(LabelIndex.from_state(self.state))

    def compact(self) -> int:
        return exhaustive_prune(self.state)

    def total_entries(self) -> int:
        return self.state.total_entries()

    def track_touched(self):
        """The package's per-side masks, marked by the dict state's
        touched records."""
        n = self.state.n
        mask = np.zeros(n, dtype=bool)
        masks = (mask, np.zeros(n, dtype=bool) if self.directed else mask)
        self.state.track_touched(tuple(map(_Marks, masks)))
        return masks

    def owner_pivot(self, a: int, b: int) -> tuple[int, int]:
        return self.state.owner_pivot(a, b)

    # -- serving labels ------------------------------------------------
    # The dict stores keep the trivial (v, 0) self entries inline, so a
    # serving label is one sorted() away.
    def label_rows(self, side: int, verts) -> LabelRows:
        state = self.state
        if not self.directed:
            labels = state.lab
        else:
            labels = state.inn if side else state.out
        return LabelRows.from_labels({
            v: sorted((p, d) for p, (d, _) in labels[v].items())
            for v in verts.tolist()
        })

    @property
    def directed(self) -> bool:
        return isinstance(self.state, DirectedLabelState)


class _Marks:
    """A set's ``add`` over a boolean mask (the dict states record
    touched owners with ``add`` alone)."""

    __slots__ = ("mask",)

    def __init__(self, mask) -> None:
        self.mask = mask

    def add(self, v: int) -> None:
        self.mask[v] = True


class DictRepairIndex(DynamicHopDoublingIndex):
    """:class:`DynamicHopDoublingIndex` repairing through the reference."""

    _repair_engine = DictRepairEngine
