"""Figure 10 — growth and pruning dynamics across iterations.

Asserts the paper's instrumented-build observations on the
long-diameter control graph (the scaled stand-in for wiki-English,
which converges too quickly to show the dynamics — see
`paper.bench.figure10`):

* the growing factor is moderate during the stepping phase and jumps
  at the switch to doubling;
* the pruning factor climbs toward 100% in the late iterations;
* the candidate volume never dwarfs the final index (paper: |cand|
  stayed below 1.5x the final index).
"""

from __future__ import annotations

from paper.bench.figure10 import run


def test_figure10_dynamics(benchmark):
    fig = benchmark.pedantic(
        lambda: run("long-diam", switch_iteration=5), rounds=1, iterations=1
    )
    points = fig.points
    step_points = [p for p in points if p.mode == "step"]
    double_points = [p for p in points if p.mode == "double"]
    assert step_points and double_points

    # Stepping keeps the growing factor at the expansion-factor scale.
    step_growth = max(p.growing_factor for p in step_points)
    assert step_growth < 10.0

    # The first doubling round jumps above the stepping ceiling.
    first_double = double_points[0]
    last_step = step_points[-1]
    assert first_double.growing_factor > 1.5 * last_step.growing_factor

    # Pruning becomes decisive by the end (the final round kills all
    # remaining candidates).
    assert points[-1].pruning_factor == 1.0

    # Candidate volume bounded relative to the final index.
    assert max(p.cand_ratio for p in points) < 3.0

    # Time ratios sum to one.
    assert abs(sum(p.time_ratio for p in points) - 1.0) < 1e-6


def test_pruning_factor_high_on_scale_free(benchmark):
    """On the scale-free stand-ins pruning removes most of what the
    early iterations admit (the paper: 'The pruning strategy was
    powerful throughout the whole process')."""
    fig = benchmark.pedantic(
        lambda: run("skitter", switch_iteration=2), rounds=1, iterations=1
    )
    # At least one iteration prunes more than half of its admissions.
    assert any(p.pruning_factor > 0.5 for p in fig.points)
