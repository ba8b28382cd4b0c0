"""Tests for the index verifier (including failure injection)."""

import pytest

from paper.labels import LabelIndex
from repro.core.hybrid import make_builder
from repro.core.verify import verify_index
from repro.graphs.digraph import Graph
from repro.graphs.generators import glp_graph
from tests.conftest import random_graph
from tests.reference.label_lists import label_lists


@pytest.fixture(scope="module")
def built():
    g = glp_graph(120, seed=40)
    idx = make_builder(g, "hybrid").build().index
    return g, idx


class TestHappyPath:
    def test_valid_index_passes(self, built):
        g, idx = built
        report = verify_index(g, idx)
        assert report.ok, report.violations
        assert report.checked_queries > 0
        assert report.checked_entries > 0
        assert "OK" in str(report)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_graphs_pass(self, seed):
        g = random_graph(seed, max_n=25)
        idx = make_builder(g, "hybrid").build().index
        assert verify_index(g, idx).ok

    def test_empty_graph(self):
        g = Graph.from_edges(0, [])
        idx = make_builder(g, "hybrid").build().index
        assert verify_index(g, idx).ok


class TestFailureInjection:
    def _mutated(self, idx, mutate) -> LabelIndex:
        out, inn = label_lists(idx)
        mutate(out)
        if idx.directed:
            return LabelIndex(idx.n, True, out, inn, idx.rank)
        return LabelIndex(idx.n, False, out, out, idx.rank)

    def test_vertex_count_mismatch(self, built):
        g, idx = built
        small = Graph.from_edges(3, [(0, 1)])
        report = verify_index(small, idx)
        assert not report.ok
        assert "mismatch" in report.violations[0]

    def test_unsorted_label_detected(self, built):
        g, idx = built
        v = next(
            v for v in range(idx.n) if len(idx.out_label(v)) >= 3
        )

        def mutate(out):
            out[v][0], out[v][1] = out[v][1], out[v][0]

        report = verify_index(g, self._mutated(idx, mutate))
        assert any("not sorted" in m for m in report.violations)

    def test_missing_self_entry_detected(self, built):
        g, idx = built

        def mutate(out):
            out[0] = [(p, d) for p, d in out[0] if p != 0]

        report = verify_index(g, self._mutated(idx, mutate))
        assert any("trivial" in m for m in report.violations)

    def test_underestimating_entry_detected(self, built):
        g, idx = built
        v = next(
            v for v in range(idx.n) if len(idx.out_label(v)) >= 2
        )

        def mutate(out):
            entries = out[v]
            for i, (p, d) in enumerate(entries):
                if p != v:
                    entries[i] = (p, d - 0.5)  # impossible shortcut
                    break

        report = verify_index(g, self._mutated(idx, mutate), samples=4000)
        assert not report.ok

    def test_deleted_entry_breaks_completeness(self, built):
        g, idx = built
        # Remove a non-trivial entry from a high-degree vertex: some
        # sampled query should now come out wrong.
        v = max(range(idx.n), key=lambda v: len(idx.out_label(v)))

        def mutate(out):
            out[v] = [e for e in out[v][:1]] + out[v][2:]

        report = verify_index(g, self._mutated(idx, mutate), samples=8000)
        assert not report.ok

    def test_rank_violation_detected(self, built):
        g, idx = built
        # Attach a ranking that contradicts the pivot order.
        flipped = list(reversed(idx.rank))
        bad = LabelIndex(idx.n, idx.directed, *label_lists(idx), flipped)
        report = verify_index(g, bad)
        assert any("outrank" in m for m in report.violations)
