"""Algorithm 1: iterative label construction, and the Hop-Doubling builder.

:class:`LabelingBuilder` implements the shared iterative skeleton:

1. **initialization** (the paper's iteration 1): every edge becomes a
   label entry, plus the trivial ``(v, 0)`` entries;
2. **iterate**: generate candidates with the rule engine, admit and
   prune them (:mod:`repro.core.pruning`), repeat until an iteration
   yields no surviving entry.

Subclasses choose the joining mode per iteration:
:class:`HopDoubling` always joins against all labels (Section 3),
:class:`~repro.core.hop_stepping.HopStepping` always joins against
edges (Section 5), and :class:`~repro.core.hybrid.HybridBuilder` steps
first and doubles later (Section 5.4, the paper's default).

Per-iteration counters are retained (:class:`IterationStats`) because
Figure 10 of the paper plots exactly these series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.engine import (
    BuildEngine,
    check_engine_options,
    make_build_engine,
)
from repro.core.flatstore import FlatLabelStore
from repro.core.ranking import Ranking, make_ranking
from repro.graphs.digraph import Graph
from repro.utils.timer import Timer


@dataclass(frozen=True)
class IterationStats:
    """Counters of one generation round (Figure 10's raw series)."""

    iteration: int
    mode: str  # "step" or "double"
    raw_generated: int
    distinct_generated: int
    admitted: int
    pruned: int
    survived: int
    total_entries: int
    prev_size: int
    elapsed: float

    @property
    def growing_factor(self) -> float:
        """Candidates generated relative to the previous round's output."""
        return self.distinct_generated / self.prev_size if self.prev_size else 0.0

    @property
    def pruning_factor(self) -> float:
        """Fraction of admitted candidates removed by pruning."""
        return self.pruned / self.admitted if self.admitted else 0.0


@dataclass
class BuildResult:
    """Everything a build produces: the index plus its provenance."""

    index: FlatLabelStore
    ranking: Ranking
    iterations: list[IterationStats] = field(default_factory=list)
    build_seconds: float = 0.0
    builder_name: str = ""

    @property
    def num_iterations(self) -> int:
        """Iterations in the paper's counting (initialization included)."""
        return 1 + sum(1 for it in self.iterations if it.survived > 0)

    def query(self, s: int, t: int) -> float:
        """Convenience passthrough to :meth:`FlatLabelStore.query`."""
        return self.index.query(s, t)


class LabelingBuilder:
    """Iterative 2-hop label construction (Algorithm 1 skeleton).

    Parameters
    ----------
    graph:
        The input graph (directed/undirected, weighted/unweighted).
    ranking:
        A :class:`Ranking`, a strategy name from
        :mod:`repro.core.ranking`, or ``"auto"`` (paper defaults:
        degree for undirected, in x out product for directed graphs).
    rule_set:
        ``"minimized"`` (the paper's four simplified rules, default) or
        ``"full"`` (all six rules).
    prune:
        Apply the Section 3.3 pruning step (default).  Disabling it is
        only useful for the ablation benchmarks; indexes stay correct
        but grow far larger.
    final_exhaustive_prune:
        Re-sweep all entries once construction finishes (Section 5.2's
        note that exhaustive pruning equalizes Hop-Doubling's label
        size with Hop-Stepping's).
    max_iterations:
        Optional hard stop (generation rounds), a safety valve for
        adversarial weighted inputs.
    engine:
        ``"auto"`` (default) or ``"array"``: both name the one,
        vectorized struct-of-arrays engine
        (:class:`~repro.core.engine.ArrayBuildEngine`).
    jobs:
        Worker processes for candidate generation.  ``jobs=N`` builds
        are bit-identical to ``jobs=1``.
    on_round:
        Optional callback given each round's :class:`IterationStats`
        as soon as the round finishes (``repro build`` prints them).
    """

    #: Human-readable name used by benchmark tables.
    name = "base"

    def __init__(
        self,
        graph: Graph,
        ranking: Ranking | str = "auto",
        rule_set: str = "minimized",
        prune: bool = True,
        final_exhaustive_prune: bool = False,
        max_iterations: int | None = None,
        engine: str = "auto",
        jobs: int = 1,
        on_round: Callable[[IterationStats], None] | None = None,
    ) -> None:
        self.graph = graph
        if isinstance(ranking, str):
            ranking = make_ranking(graph, ranking)
        if len(ranking) != graph.num_vertices:
            raise ValueError(
                f"ranking covers {len(ranking)} vertices, graph has "
                f"{graph.num_vertices}"
            )
        check_engine_options(engine, jobs)
        self.ranking = ranking
        self.rule_set = rule_set
        self.prune = prune
        self.final_exhaustive_prune = final_exhaustive_prune
        self.max_iterations = max_iterations
        self.jobs = jobs
        self.on_round = on_round

    # -- subclass hook ---------------------------------------------------
    def mode_for(self, iteration: int) -> str:
        """Joining mode for a given iteration number (2 = first round).

        Iteration numbers follow the paper: initialization is
        iteration 1, so the first generation round is iteration 2.
        """
        raise NotImplementedError

    # -- construction ------------------------------------------------------
    def _engine(self) -> BuildEngine:
        """The engine :meth:`build` runs this builder's schedule on.

        A test seam, not an option: the bit-identity tests override it
        to run the same schedule on the per-entry reference engine.
        """
        return make_build_engine(
            self.graph, self.ranking, rule_set=self.rule_set, jobs=self.jobs
        )

    def build(self) -> BuildResult:
        """Run the iterative construction and freeze the index."""
        total_timer = Timer().start()
        engine = self._engine()
        iterations: list[IterationStats] = []
        try:
            prev = engine.initialize()
            iteration = 1  # initialization, per the paper's counting
            while len(prev):
                if (
                    self.max_iterations is not None
                    and iteration - 1 >= self.max_iterations
                ):
                    break
                iteration += 1
                mode = self.mode_for(iteration)
                if mode not in ("step", "double"):  # pragma: no cover
                    raise ValueError(f"unknown mode {mode!r}")
                round_timer = Timer().start()
                prev_size = len(prev)
                candidates = engine.generate(mode, prev)
                # The round's candidates stand for prev from here on,
                # and admission empties them: nothing of this round
                # outlives it but the survivors.
                del prev
                prev, outcome = engine.admit_round(candidates, prune=self.prune)
                del candidates
                elapsed = round_timer.stop()
                iterations.append(
                    IterationStats(
                        iteration=iteration,
                        mode=mode,
                        raw_generated=outcome.raw_generated,
                        distinct_generated=outcome.distinct_generated,
                        admitted=outcome.admitted,
                        pruned=outcome.pruned,
                        survived=outcome.survived,
                        total_entries=engine.total_entries(),
                        prev_size=prev_size,
                        elapsed=elapsed,
                    )
                )
                if self.on_round is not None:
                    self.on_round(iterations[-1])

            if self.final_exhaustive_prune and self.prune:
                engine.exhaustive_prune()

            index = engine.freeze()
        finally:
            engine.close()
        return BuildResult(
            index=index,
            ranking=self.ranking,
            iterations=iterations,
            build_seconds=total_timer.stop(),
            builder_name=self.name,
        )


class HopDoubling(LabelingBuilder):
    """Pure Hop-Doubling (Section 3): label x label joins every round.

    Covered hop lengths double every two iterations (Theorem 2), so at
    most ``2 * ceil(log2(D_H))`` generation rounds occur (Theorem 4).
    The price is the candidate blow-up analysed in Section 5 — each
    round can multiply candidates by ``(log |V|)^{D_H/2}`` — which is
    why the paper prefers stepping early (see
    :class:`~repro.core.hybrid.HybridBuilder`).
    """

    name = "hop-doubling"

    def mode_for(self, iteration: int) -> str:
        return "double"
