"""The hybrid strategy (Section 5.4) — the paper's default configuration.

Hop-Stepping trims the early candidate explosion (growing factors of
3-4 in Figure 10); Hop-Doubling finishes off long-diameter graphs in
logarithmically many rounds.  The hybrid uses stepping for the first
``switch_iteration`` iterations and doubling afterwards; Lemma 8 shows
the combination stays correct under pruning.

The paper's experiments (Section 8): "we apply Hop-Stepping with
pruning in the first 10 iterations and switch to Hop-Doubling with
Pruning from the 11-th iteration", so ``switch_iteration`` defaults
to 10 (in the paper's counting where initialization is iteration 1).
"""

from __future__ import annotations

from repro.core.hop_doubling import LabelingBuilder
from repro.core.ranking import Ranking
from repro.graphs.digraph import Graph

DEFAULT_SWITCH_ITERATION = 10


class HybridBuilder(LabelingBuilder):
    """Hop-Stepping for early iterations, Hop-Doubling afterwards."""

    name = "hybrid"

    def __init__(
        self,
        graph: Graph,
        ranking: Ranking | str = "auto",
        rule_set: str = "minimized",
        prune: bool = True,
        final_exhaustive_prune: bool = False,
        max_iterations: int | None = None,
        switch_iteration: int = DEFAULT_SWITCH_ITERATION,
        engine: str = "auto",
        jobs: int = 1,
        on_round=None,
    ) -> None:
        super().__init__(
            graph,
            ranking=ranking,
            rule_set=rule_set,
            prune=prune,
            final_exhaustive_prune=final_exhaustive_prune,
            max_iterations=max_iterations,
            engine=engine,
            jobs=jobs,
            on_round=on_round,
        )
        if switch_iteration < 1:
            raise ValueError(
                f"switch_iteration must be >= 1, got {switch_iteration}"
            )
        self.switch_iteration = switch_iteration

    def mode_for(self, iteration: int) -> str:
        return "step" if iteration <= self.switch_iteration else "double"


BUILDERS = {
    "doubling": "repro.core.hop_doubling.HopDoubling",
    "stepping": "repro.core.hop_stepping.HopStepping",
    "hybrid": "repro.core.hybrid.HybridBuilder",
}


def make_builder(graph: Graph, strategy: str = "hybrid", **kwargs):
    """Instantiate a builder by strategy name.

    ``strategy`` is one of ``"doubling"``, ``"stepping"`` or
    ``"hybrid"`` (the default, as in the paper's experiments).
    """
    from repro.core.hop_doubling import HopDoubling
    from repro.core.hop_stepping import HopStepping

    classes = {
        "doubling": HopDoubling,
        "stepping": HopStepping,
        "hybrid": HybridBuilder,
    }
    try:
        cls = classes[strategy]
    except KeyError:
        raise ValueError(
            f"unknown strategy {strategy!r}; one of {sorted(classes)}"
        )
    return cls(graph, **kwargs)
