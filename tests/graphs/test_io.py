"""Round-trip tests for graph I/O."""

import pytest

from repro.graphs.digraph import Graph
from repro.graphs.io import read_edge_list, read_records, write_edge_list


class TestEdgeList:
    def test_round_trip_directed(self, tmp_path):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (3, 0)], directed=True)
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        loaded = read_edge_list(path, directed=True)
        assert loaded == g

    def test_round_trip_weighted(self, tmp_path):
        g = Graph.from_edges(
            3, [(0, 1, 2.5), (1, 2, 0.5)], directed=False, weighted=True
        )
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        loaded = read_edge_list(path, directed=False, weighted=True)
        assert loaded == g

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n% konect style\n0 1\n1 2\n")
        g = read_edge_list(path)
        assert g.num_edges == 2

    def test_string_labels_renumbered(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("alice bob\nbob carol\n")
        g = read_edge_list(path, directed=False)
        assert g.num_vertices == 3

    def test_malformed_line_raises_with_location(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\njustone\n")
        with pytest.raises(ValueError, match=":2"):
            read_edge_list(path)

    def test_weighted_needs_weight_column(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        with pytest.raises(ValueError, match="weight"):
            read_edge_list(path, weighted=True)

    def test_gzip_round_trip(self, tmp_path):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        path = tmp_path / "g.txt.gz"
        write_edge_list(g, path)
        assert read_edge_list(path) == g


    def test_integer_ids_kept_as_written(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("5 3\n3 9\n9 0\n0 7\n")
        g = read_edge_list(path, directed=False)
        assert g.num_vertices == 10
        assert sorted(g.out_neighbors(9)) == [0, 3]
        assert g.degree(1) == 0

    def test_any_other_label_renumbers_every_label(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("7 x\n7 3\n")
        g = read_edge_list(path, directed=True)
        assert g.num_vertices == 3
        assert g.has_edge(0, 1) and g.has_edge(0, 2)

    def test_inline_comments_and_weights(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 2.5  # heavy\n1 2 0.5 % light\n")
        g = read_edge_list(path, directed=False, weighted=True)
        assert g.edge_weight(0, 1) == 2.5 and g.edge_weight(2, 1) == 0.5

    @pytest.mark.parametrize("line", ["0 1 2 3", "0 1 heavy"])
    def test_edge_line_needs_u_v_and_a_number(self, tmp_path, line):
        path = tmp_path / "g.txt"
        path.write_text(f"0 1\n{line}\n")
        with pytest.raises(ValueError, match=r"g\.txt:2: expected 'u v \[w\]'"):
            read_edge_list(path)


class TestRecords:
    """The one reader behind pair files and insertion edge files."""

    def test_pairs_and_edges(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("# head\n\n5 3  # inline\n% konect\n9 0 2.5\n")
        assert read_records(path) == [(5, 3, 1.0), (9, 0, 2.5)]
        with pytest.raises(ValueError, match=r"r\.txt:5: expected 's t'"):
            read_records(path, "s t")

    def test_gzip(self, tmp_path):
        import gzip

        path = tmp_path / "r.txt.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("0 4\n4 2\n")
        assert read_records(path, "s t") == [(0, 4), (4, 2)]

    @pytest.mark.parametrize("line", ["a b", "0", "0 1.5", "0 1 2 3"])
    def test_ids_must_be_integers(self, tmp_path, line):
        path = tmp_path / "r.txt"
        path.write_text(f"0 1\n{line}\n")
        with pytest.raises(ValueError, match=r"r\.txt:2: expected 'u v \[w\]'"):
            read_records(path)
