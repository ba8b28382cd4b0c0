"""The paper's worked examples, reproduced entry for entry.

* Tables 3-4: the small canonical covers for the road graph ``GR``
  (Figure 1) and the star ``GS`` (Figure 2);
* Example 1 / Figure 5: the full Hop-Doubling labeling (no pruning) of
  the 8-vertex directed graph in Figure 3;
* Example 2: pruning removes ``(2 -> 1, 2)`` via ``(2 -> 0, 1)`` and
  ``(0 -> 1, 1)``;
* Example 3: Hop-Stepping defers ``(4 -> 2, 4)`` to the iteration
  after the one where Hop-Doubling finds it.
"""

import pytest

from repro.core.hop_doubling import HopDoubling
from repro.core.hop_stepping import HopStepping
from repro.core.ranking import Ranking, degree_ranking
from tests.reference.label_lists import label_lists

A, B, C, D, E = 0, 1, 2, 3, 4  # Figure 1/2 vertex names


def _labels_as_dict(index, v, out=True):
    return dict(index.out_label(v) if out else index.in_label(v))


class TestRoadGraphTable3:
    """Degree ranking on GR reproduces Table 3's minimal cover."""

    @pytest.fixture
    def index(self, road_graph):
        ranking = degree_ranking(road_graph)
        # Paper ranks a highest (degree 3), then b (2), ties by name.
        assert ranking.vertex_at[0] == A
        assert ranking.rank_of[B] < ranking.rank_of[C]
        return HopDoubling(road_graph, ranking=ranking).build().index

    def test_exact_table3_labels(self, index):
        assert _labels_as_dict(index, A) == {A: 0.0}
        assert _labels_as_dict(index, B) == {B: 0.0, A: 1.0}
        assert _labels_as_dict(index, C) == {C: 0.0, A: 2.0, B: 1.0}
        assert _labels_as_dict(index, D) == {D: 0.0, A: 1.0}
        assert _labels_as_dict(index, E) == {E: 0.0, A: 1.0}

    def test_cover_is_half_of_table1(self, index):
        # Table 1's naive cover has 10 non-trivial entries; Table 3 cuts
        # that to 5 ("by half or more", Section 2.1).
        assert index.total_entries() == 5

    def test_all_queries_exact(self, index, road_graph):
        from paper.baselines.apsp import APSPOracle

        truth = APSPOracle(road_graph)
        for s in range(5):
            for t in range(5):
                assert index.query(s, t) == truth.query(s, t)


class TestStarGraphTable4:
    """The star's center covers everything (Table 4)."""

    def test_leaf_labels_are_center_only(self, star5):
        index = HopDoubling(star5, ranking="degree").build().index
        assert _labels_as_dict(index, 0) == {0: 0.0}
        for leaf in range(1, 6):
            assert _labels_as_dict(index, leaf) == {leaf: 0.0, 0: 1.0}

    def test_leaf_to_leaf_distance(self, star5):
        index = HopDoubling(star5, ranking="degree").build().index
        assert index.query(1, 4) == 2.0


class TestFigure3Labeling:
    """Example 1: Hop-Doubling without pruning on Figure 3's graph."""

    @pytest.fixture
    def result(self, figure3_graph):
        # Vertex ids are already the ranks in the paper's example.
        ranking = Ranking.from_order(list(range(8)))
        return HopDoubling(
            figure3_graph, ranking=ranking, prune=False
        ).build()

    def test_figure5_in_labels(self, result):
        idx = result.index
        assert _labels_as_dict(idx, 0, out=False) == {0: 0.0}
        assert _labels_as_dict(idx, 1, out=False) == {1: 0.0, 0: 1.0}
        assert _labels_as_dict(idx, 2, out=False) == {2: 0.0}
        assert _labels_as_dict(idx, 3, out=False) == {3: 0.0, 2: 1.0}
        assert _labels_as_dict(idx, 4, out=False) == {4: 0.0}
        assert _labels_as_dict(idx, 5, out=False) == {5: 0.0, 4: 1.0}
        assert _labels_as_dict(idx, 6, out=False) == {6: 0.0, 0: 1.0, 2: 1.0}
        assert _labels_as_dict(idx, 7, out=False) == {7: 0.0, 3: 1.0, 2: 2.0}

    def test_figure5_out_labels(self, result):
        idx = result.index
        assert _labels_as_dict(idx, 0) == {0: 0.0}
        assert _labels_as_dict(idx, 1) == {1: 0.0, 0: 1.0}
        assert _labels_as_dict(idx, 2) == {2: 0.0, 0: 1.0, 1: 2.0}
        assert _labels_as_dict(idx, 3) == {3: 0.0, 1: 1.0, 2: 2.0, 0: 2.0}
        assert _labels_as_dict(idx, 4) == {
            4: 0.0, 0: 1.0, 1: 1.0, 3: 2.0, 2: 4.0,
        }
        assert _labels_as_dict(idx, 5) == {
            5: 0.0, 3: 1.0, 1: 2.0, 2: 3.0, 0: 3.0,
        }
        assert _labels_as_dict(idx, 6) == {6: 0.0}

    def test_figure5_lout7_paper_discrepancy(self, result):
        """Figure 5 lists Lout(7) = {(7,0), (2,1)} — but the paper's own
        objective [O1] (via Lemma 2) additionally requires (0, 2) and
        (1, 3): 7->2->0 and 7->2->3->1 are trough *shortest* paths
        ending at higher-ranked vertices.  The figure omits them; the
        implementation follows the lemma.  (Recorded in DESIGN.md.)"""
        lout7 = _labels_as_dict(result.index, 7)
        # Figure 5's listed entries are present...
        assert lout7[7] == 0.0
        assert lout7[2] == 1.0
        # ...plus exactly the two entries O1 mandates.
        assert lout7 == {7: 0.0, 2: 1.0, 0: 2.0, 1: 3.0}

    def test_two_productive_iterations(self, result):
        # "In the third iteration, no new label entry is generated."
        productive = [it for it in result.iterations if it.survived > 0]
        assert len(productive) == 2

    def test_iteration_superscripts(self, result):
        """Figure 5 annotates each generated entry with its iteration.
        Example 1 lists 6 first-round and 3 second-round entries; our
        build adds (7->0, 2) to round one and (7->1, 3) to round two —
        the Lout(7) entries the figure omits (see the test above)."""
        by_iteration = {}
        for it in result.iterations:
            by_iteration[it.iteration] = it
        assert by_iteration[2].survived == 7  # paper lists 6 + (7->0, 2)
        assert by_iteration[3].survived == 4  # paper lists 3 + (7->1, 3)


class TestExample2Pruning:
    def test_2_to_1_pruned(self, figure3_graph):
        """(2 -> 1, 2) is pruned by (2 -> 0, 1) + (0 -> 1, 1)."""
        ranking = Ranking.from_order(list(range(8)))
        idx = HopDoubling(figure3_graph, ranking=ranking, prune=True).build().index
        assert 1 not in _labels_as_dict(idx, 2)
        # Queries remain exact despite the pruned entry.
        assert idx.query(2, 1) == 2.0


class TestExample3HopStepping:
    def test_4_to_2_found_at_hop3_iteration(self, figure3_graph):
        """Hop-Stepping covers (4 -> 2, 4) only when 4-hop paths are
        processed (via (4 -> 5, 1) + (5 -> 2, 3)), i.e. one iteration
        later than Hop-Doubling."""
        ranking = Ranking.from_order(list(range(8)))
        doubling = HopDoubling(
            figure3_graph, ranking=ranking, prune=False
        ).build()
        stepping = HopStepping(
            figure3_graph, ranking=ranking, prune=False
        ).build()
        # Same final labels either way...
        assert label_lists(doubling.index) == label_lists(stepping.index)
        # ...but stepping takes one more productive round (3 vs 2).
        d_rounds = sum(1 for it in doubling.iterations if it.survived)
        s_rounds = sum(1 for it in stepping.iterations if it.survived)
        assert d_rounds == 2
        assert s_rounds == 3
