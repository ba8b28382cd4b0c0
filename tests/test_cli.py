"""End-to-end CLI tests (in-process via repro.cli.main)."""

from argparse import Namespace
from contextlib import nullcontext

import pytest

from repro.cli import _open_oracle, build_parser, main
from repro.core.flatstore import load_store
from repro.graphs import Graph, bfs_distances
from repro.graphs.io import read_edge_list
from repro.oracle import DistanceOracle
from tests.reference.dict_build import dict_engine
from tests.reference.v1_writer import write_v1


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "g.txt"
    main(["generate", "glp", "-n", "200", "--density", "4",
          "-o", str(path)])
    return path


class TestGenerate:
    def test_generate_glp(self, tmp_path, capsys):
        out = tmp_path / "g.txt"
        rc = main(["generate", "glp", "-n", "100", "-o", str(out)])
        assert rc == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    @pytest.mark.parametrize("model", ["ba", "er"])
    def test_other_models(self, tmp_path, model):
        out = tmp_path / "g.txt"
        assert main(["generate", model, "-n", "50", "-o", str(out)]) == 0

    def test_directed_flag(self, tmp_path):
        out = tmp_path / "g.txt"
        main(["generate", "glp", "-n", "50", "--directed", "-o", str(out)])
        from repro.graphs.io import read_edge_list

        assert read_edge_list(out, directed=True).num_edges > 0


class TestStats:
    def test_stats_output(self, graph_file, capsys):
        rc = main(["stats", str(graph_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "|V|" in out
        assert "rank exponent" in out


class TestBuildAndQuery:
    def test_build_then_query(self, graph_file, tmp_path, capsys):
        idx = tmp_path / "g.idx"
        rc = main(["build", str(graph_file), "-o", str(idx)])
        assert rc == 0
        assert idx.exists()
        rc = main(["query", str(idx), "0", "10", "3", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dist(0, 10)" in out
        assert "dist(3, 3) = 0" in out

    def test_build_strategies(self, graph_file, tmp_path):
        for strategy in ("stepping", "doubling", "hybrid"):
            idx = tmp_path / f"{strategy}.idx"
            rc = main([
                "build", str(graph_file), "-o", str(idx),
                "--strategy", strategy,
            ])
            assert rc == 0

    def test_query_odd_args_rejected(self, graph_file, tmp_path, capsys):
        idx = tmp_path / "g.idx"
        main(["build", str(graph_file), "-o", str(idx)])
        rc = main(["query", str(idx), "0", "1", "2"])
        assert rc == 2
        assert "even number" in capsys.readouterr().err

    def test_build_refuses_overwrite_without_force(
        self, graph_file, tmp_path, capsys
    ):
        idx = tmp_path / "g.idx"
        assert main(["build", str(graph_file), "-o", str(idx)]) == 0
        capsys.readouterr()
        rc = main(["build", str(graph_file), "-o", str(idx)])
        assert rc == 2
        assert "--force" in capsys.readouterr().err

    def test_build_force_overwrites(self, graph_file, tmp_path):
        idx = tmp_path / "g.idx"
        assert main(["build", str(graph_file), "-o", str(idx)]) == 0
        rc = main(["build", str(graph_file), "-o", str(idx), "--force"])
        assert rc == 0

    def test_build_engines_agree(self, graph_file, tmp_path):
        """The build and the build on the dict reference engine write
        identical index files."""
        outputs = {}
        for name, engine in (("array", nullcontext()), ("dict", dict_engine())):
            idx = tmp_path / f"{name}.idx"
            with engine:
                rc = main(["build", str(graph_file), "-o", str(idx)])
            assert rc == 0
            outputs[name] = idx.read_bytes()
        assert outputs["dict"] == outputs["array"]

    def test_build_streams_rounds_to_stderr(self, graph_file, tmp_path, capsys):
        """One stderr line per round as it finishes; stdout as before."""
        idx = tmp_path / "g.idx"
        assert main(["build", str(graph_file), "-o", str(idx)]) == 0
        captured = capsys.readouterr()
        rounds = captured.err.splitlines()
        assert rounds[0].startswith("round 2 (step): ")
        assert all(line.startswith("round ") for line in rounds)
        for field in ("candidates", "admitted", "survived", "entries"):
            assert field in rounds[0]
        # The last round admits nothing; the paper's count drops it and
        # adds the initialization.
        assert rounds[-1].split(", ")[2] == "0 survived"
        loaded, built, written = captured.out.splitlines()
        assert loaded.startswith("loaded ")
        assert f"({len(rounds)} iterations" in built
        assert written.startswith("index written to ")


class TestConvertAndBatch:
    @pytest.fixture
    def v1_index(self, graph_file, tmp_path):
        """A legacy v1 file of the build's labels (the reference writer)."""
        built = tmp_path / "g.built"
        main(["build", str(graph_file), "-o", str(built)])
        idx = tmp_path / "g.idx"
        write_v1(load_store(built), idx)
        return idx

    def test_convert_to_v2_and_query(self, v1_index, tmp_path, capsys):
        v2 = tmp_path / "g.idx2"
        rc = main(["convert", str(v1_index), "-o", str(v2), "--format",
                   "v2"])
        assert rc == 0
        assert "format v2" in capsys.readouterr().out
        rc = main(["query", str(v2), "0", "10"])
        assert rc == 0
        assert "dist(0, 10)" in capsys.readouterr().out

    def test_convert_round_trip_preserves_answers(self, v1_index, tmp_path,
                                                  capsys):
        """v1 -> v2 -> v3 -> v2: the second v2 file is the first."""
        v2 = tmp_path / "g.idx2"
        v3 = tmp_path / "g.idx3"
        back = tmp_path / "g.back.idx2"
        main(["convert", str(v1_index), "-o", str(v2), "--format", "v2"])
        main(["convert", str(v2), "-o", str(v3)])
        main(["convert", str(v3), "-o", str(back), "--format", "v2"])
        assert back.read_bytes() == v2.read_bytes()
        main(["query", str(v1_index), "0", "17"])
        first = capsys.readouterr().out.splitlines()[-1]
        main(["query", str(back), "0", "17"])
        second = capsys.readouterr().out.splitlines()[-1]
        assert first == second

    def test_convert_v1_to_v3_matches_a_v3_build(self, tmp_path, capsys):
        """A v1 file converts to v3 with the same answer on every pair,
        byte-identical to building v3 directly (BA: no pendants)."""
        graph = tmp_path / "ba.txt"
        main(["generate", "ba", "-n", "120", "--density", "2",
              "-o", str(graph)])
        direct = tmp_path / "direct.idx3"
        main(["build", str(graph), "-o", str(direct)])
        v1 = tmp_path / "ba.idx1"
        write_v1(load_store(direct), v1)
        converted = tmp_path / "converted.idx3"
        assert main(["convert", str(v1), "-o", str(converted)]) == 0
        assert "format v3" in capsys.readouterr().out
        assert converted.read_bytes() == direct.read_bytes()
        old, new = load_store(v1), load_store(converted)
        assert old.encoding == "v2" and new.encoding == "v3"
        assert all(
            old.query(s, t) == new.query(s, t)
            for s in range(old.n)
            for t in range(old.n)
        )

    def test_build_v2_format_directly(self, graph_file, tmp_path, capsys):
        idx = tmp_path / "g.idx2"
        rc = main(["build", str(graph_file), "-o", str(idx), "--format",
                   "v2"])
        assert rc == 0
        assert idx.read_bytes()[4] == 2
        assert main(["query", str(idx), "3", "3"]) == 0
        assert "dist(3, 3) = 0" in capsys.readouterr().out

    def test_convert_to_v3_and_query(self, v1_index, tmp_path, capsys):
        v3 = tmp_path / "g.idx3"
        rc = main(["convert", str(v1_index), "-o", str(v3), "--format",
                   "v3"])
        assert rc == 0
        assert "format v3" in capsys.readouterr().out
        rc = main(["query", str(v3), "0", "10"])
        assert rc == 0
        assert "dist(0, 10)" in capsys.readouterr().out

    def test_convert_v3_stats_report(self, v1_index, tmp_path, capsys):
        v3 = tmp_path / "g.idx3"
        rc = main(["convert", str(v1_index), "-o", str(v3), "--format",
                   "v3", "--stats"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pivot width" in out
        assert "(delta; rank positions)" in out
        assert "dist width" in out
        assert "bytes/entry" in out

    def test_convert_moves_an_id_space_v3_file_to_rank_space(
        self, graph_file, tmp_path, capsys
    ):
        """A v3 file that carries ranks but stores vertex ids (flag bit
        2 clear) converts to the file a v3 build writes."""
        built = tmp_path / "g.idx3"
        main(["build", str(graph_file), "-o", str(built)])
        old = tmp_path / "old.idx3"
        load_store(built).encoded("v3", ranked=False).save(old)
        assert not old.read_bytes()[5] & 4 and built.read_bytes()[5] & 4
        new = tmp_path / "new.idx3"
        capsys.readouterr()
        rc = main(["convert", str(old), "-o", str(new), "--format", "v3",
                   "--stats"])
        assert rc == 0
        assert "(delta; rank positions)" in capsys.readouterr().out
        assert new.read_bytes() == built.read_bytes()

    def test_convert_v3_half_the_v2_size(self, v1_index, tmp_path, capsys):
        v2 = tmp_path / "g.idx2"
        v3 = tmp_path / "g.idx3"
        main(["convert", str(v1_index), "-o", str(v2), "--format", "v2"])
        main(["convert", str(v1_index), "-o", str(v3)])
        assert v3.stat().st_size <= 0.5 * v2.stat().st_size

    def test_convert_v3_round_trip_preserves_answers(
        self, v1_index, tmp_path, capsys
    ):
        v3 = tmp_path / "g.idx3"
        back = tmp_path / "g.back.idx2"
        main(["convert", str(v1_index), "-o", str(v3), "--format", "v3"])
        main(["convert", str(v3), "-o", str(back), "--format", "v2"])
        main(["query", str(v1_index), "0", "17"])
        first = capsys.readouterr().out.splitlines()[-1]
        main(["query", str(back), "0", "17"])
        second = capsys.readouterr().out.splitlines()[-1]
        assert first == second

    def test_build_v3_format_directly(self, graph_file, tmp_path, capsys):
        idx = tmp_path / "g.idx3"
        rc = main(["build", str(graph_file), "-o", str(idx), "--format",
                   "v3"])
        assert rc == 0
        assert main(["query", str(idx), "3", "3"]) == 0
        assert "dist(3, 3) = 0" in capsys.readouterr().out

    def test_batch_kernel_on_off_agree(self, v1_index, graph_file,
                                       tmp_path, capsys):
        """The kernel (a v3 store, a batch of four) and the scalar path
        (the v1 file, one pair per batch) print the same lines."""
        from repro.oracle import kernel

        v3 = tmp_path / "g.idx3"
        main(["convert", str(v1_index), "-o", str(v3), "--format", "v3"])
        lines = ["0 10\n", "3 7\n", "5 5\n", "1 40\n"]
        batch = tmp_path / "pairs.txt"
        batch.write_text("".join(lines))
        capsys.readouterr()
        before = kernel.stats()["pairs"]
        assert main(["query", str(v3), "--batch", str(batch)]) == 0
        on_out = capsys.readouterr().out
        assert kernel.stats()["pairs"] == before + 3  # 5 5 reads 0.0
        off_out = ""
        for line in lines:
            batch.write_text(line)
            assert main(["query", str(v1_index), "--batch", str(batch)]) == 0
            off_out += capsys.readouterr().out
        assert kernel.stats()["pairs"] == before + 3
        assert on_out == off_out

    def test_query_kernel_on_without_vector_path(self, v1_index, tmp_path,
                                                 capsys):
        """Asking for the kernel is refused outright: the store and the
        batch size choose the path, so ``--kernel`` no longer parses."""
        batch = tmp_path / "pairs.txt"
        batch.write_text("0 1\n")
        with pytest.raises(SystemExit) as exc:
            main(["query", str(v1_index), "--batch", str(batch),
                  "--kernel", "on"])
        assert exc.value.code == 2
        assert "--kernel" in capsys.readouterr().err

    def test_query_missing_index(self, tmp_path, capsys):
        rc = main(["query", str(tmp_path / "nope.idx"), "0", "1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_query_corrupt_index(self, tmp_path, capsys):
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"garbage!")
        rc = main(["query", str(bad), "0", "1"])
        assert rc == 2
        assert "not a label index" in capsys.readouterr().err

    def test_convert_missing_input(self, tmp_path, capsys):
        rc = main(["convert", str(tmp_path / "nope.idx"), "-o",
                   str(tmp_path / "out.idx2")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_convert_corrupt_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"garbage!")
        rc = main(["convert", str(bad), "-o", str(tmp_path / "out.idx2")])
        assert rc == 2
        assert "not a label index" in capsys.readouterr().err

    def test_query_batch_file(self, v1_index, tmp_path, capsys):
        batch = tmp_path / "pairs.txt"
        batch.write_text("# workload\n0 10\n3 3\n10 0\n")
        rc = main(["query", str(v1_index), "--batch", str(batch)])
        assert rc == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert len(lines) == 3
        assert lines[1] == "3\t3\t0"
        assert "answered 3 pairs" in captured.err

    def test_query_batch_with_mmap_backend(self, v1_index, tmp_path, capsys):
        v2 = tmp_path / "g.idx2"
        main(["convert", str(v1_index), "-o", str(v2), "--format", "v2"])
        batch = tmp_path / "pairs.txt"
        batch.write_text("0 10\n")
        capsys.readouterr()
        rc = main(["query", str(v2), "--batch", str(batch)])
        assert rc == 0
        out_mmap = capsys.readouterr().out
        rc = main(["query", str(v1_index), "--batch", str(batch)])
        assert rc == 0
        assert capsys.readouterr().out == out_mmap

    def test_query_missing_batch_file(self, v1_index, capsys):
        rc = main(["query", str(v1_index), "--batch", "/nonexistent.txt"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_query_malformed_batch_file(self, v1_index, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 5\nbogus\n")
        rc = main(["query", str(v1_index), "--batch", str(bad)])
        assert rc == 2
        assert "expected 's t'" in capsys.readouterr().err

    def test_query_out_of_range_vertex(self, v1_index, capsys):
        rc = main(["query", str(v1_index), "0", "999999"])
        assert rc == 2
        assert "out of range" in capsys.readouterr().err

    def test_query_batch_out_of_range_vertex(self, v1_index, tmp_path,
                                             capsys):
        batch = tmp_path / "oob.txt"
        batch.write_text("0 5\n0 999999\n")
        rc = main(["query", str(v1_index), "--batch", str(batch)])
        assert rc == 2
        assert "out of range" in capsys.readouterr().err

    def test_query_flags_before_pairs(self, v1_index, tmp_path, capsys):
        batch = tmp_path / "pairs.txt"
        batch.write_text("3 3\n")
        rc = main(["query", str(v1_index), "--batch", str(batch), "0", "10"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "dist(0, 10)" in out
        assert "3\t3\t0" in out

    def test_non_query_extra_args_still_rejected(self, graph_file):
        with pytest.raises(SystemExit):
            main(["stats", str(graph_file), "17"])

    def test_query_without_pairs_or_batch(self, v1_index, capsys):
        rc = main(["query", str(v1_index)])
        assert rc == 2
        assert "provide vertex pairs" in capsys.readouterr().err

    def test_verify_reads_v2(self, graph_file, v1_index, tmp_path, capsys):
        v2 = tmp_path / "g.idx2"
        main(["convert", str(v1_index), "-o", str(v2), "--format", "v2"])
        rc = main(["verify", str(graph_file), str(v2)])
        assert rc == 0
        assert "OK" in capsys.readouterr().out


class TestShardAndParallelQuery:
    @pytest.fixture
    def v2_index(self, graph_file, tmp_path):
        idx = tmp_path / "g.idx2"
        main(["build", str(graph_file), "-o", str(idx), "--format", "v2"])
        return idx

    @pytest.fixture
    def shard_dir(self, v2_index, tmp_path):
        out = tmp_path / "g.shards"
        assert main(["shard", str(v2_index), "-o", str(out),
                     "--shards", "3", "--format", "v2"]) == 0
        return out

    def test_shard_writes_manifest_and_files(self, shard_dir, capsys):
        assert (shard_dir / "manifest.json").exists()
        for i in range(3):
            assert (shard_dir / f"shard-{i:04d}.idx2").exists()

    def test_shard_v3_format_and_query(self, v2_index, tmp_path, capsys):
        out = tmp_path / "g.shards3"
        rc = main(["shard", str(v2_index), "-o", str(out), "--shards", "3"])
        assert rc == 0
        assert "format v3" in capsys.readouterr().out  # the default
        for i in range(3):
            assert (out / f"shard-{i:04d}.idx3").exists()
        main(["query", str(v2_index), "0", "10"])
        single = capsys.readouterr().out
        rc = main(["query", str(out), "0", "10"])
        assert rc == 0
        assert capsys.readouterr().out == single

    def test_shard_v3_smaller_than_v2(self, v2_index, shard_dir, tmp_path):
        out = tmp_path / "g.shards3"
        assert main(["shard", str(v2_index), "-o", str(out),
                     "--shards", "3", "--format", "v3"]) == 0
        v2_total = sum(
            f.stat().st_size for f in shard_dir.glob("shard-*.idx2")
        )
        v3_total = sum(f.stat().st_size for f in out.glob("shard-*.idx3"))
        assert v3_total <= 0.5 * v2_total

    def test_verify_reads_v3_shards(self, graph_file, v2_index, tmp_path,
                                    capsys):
        out = tmp_path / "g.shards3"
        main(["shard", str(v2_index), "-o", str(out), "--shards", "2",
              "--format", "v3"])
        rc = main(["verify", str(graph_file), str(out)])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_shard_refuses_overwrite_without_force(self, v2_index,
                                                   shard_dir, capsys):
        rc = main(["shard", str(v2_index), "-o", str(shard_dir)])
        assert rc == 2
        assert "--force" in capsys.readouterr().err

    def test_shard_force_overwrites_and_prunes(self, v2_index, shard_dir):
        rc = main(["shard", str(v2_index), "-o", str(shard_dir),
                   "--shards", "2", "--format", "v2", "--force"])
        assert rc == 0
        assert not (shard_dir / "shard-0002.idx2").exists()

    def test_shard_missing_input(self, tmp_path, capsys):
        rc = main(["shard", str(tmp_path / "nope.idx"), "-o",
                   str(tmp_path / "out")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_shard_bad_count(self, v2_index, tmp_path, capsys):
        rc = main(["shard", str(v2_index), "-o", str(tmp_path / "out"),
                   "--shards", "0"])
        assert rc == 2
        assert ">= 1" in capsys.readouterr().err

    def test_query_shards_matches_single_index(self, v2_index, shard_dir,
                                               capsys):
        main(["query", str(v2_index), "0", "10", "3", "3"])
        single = capsys.readouterr().out
        rc = main(["query", str(shard_dir), "0", "10", "3", "3"])
        assert rc == 0
        assert capsys.readouterr().out == single

    def test_query_shards_batch_file(self, v2_index, shard_dir, tmp_path,
                                     capsys):
        batch = tmp_path / "pairs.txt"
        batch.write_text("0 10\n3 3\n10 0\n")
        main(["query", str(v2_index), "--batch", str(batch)])
        single = capsys.readouterr().out
        rc = main(["query", str(shard_dir), "--batch", str(batch)])
        assert rc == 0
        assert capsys.readouterr().out == single

    def test_query_executor_flag_is_gone(self, shard_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["query", str(shard_dir), "--executor", "thread", "0", "10"])
        assert exc.value.code == 2
        assert "--executor" in capsys.readouterr().err

    def test_query_index_and_shards_rejected(self, v2_index, shard_dir,
                                             capsys):
        """A shard directory is the INDEX positional: --shards is gone."""
        with pytest.raises(SystemExit) as exc:
            main(["query", str(v2_index), "--shards", str(shard_dir),
                  "0", "10"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --shards" in capsys.readouterr().err

    def test_query_neither_index_nor_shards(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["query", "--batch", "whatever.txt"])
        assert exc.value.code == 2
        assert "required: index" in capsys.readouterr().err

    def test_query_missing_shard_dir(self, tmp_path, capsys):
        rc = main(["query", str(tmp_path / "nope"), "0", "1"])
        assert rc == 2
        assert "not a shard directory" in capsys.readouterr().err

    def test_query_shards_out_of_range(self, shard_dir, capsys):
        rc = main(["query", str(shard_dir), "0", "999999"])
        assert rc == 2
        assert "out of range" in capsys.readouterr().err

    def test_verify_accepts_shard_directory(self, graph_file, shard_dir,
                                            capsys):
        rc = main(["verify", str(graph_file), str(shard_dir)])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_convert_refuses_overwrite_without_force(self, v2_index,
                                                     tmp_path, capsys):
        out = tmp_path / "conv.idx"
        assert main(["convert", str(v2_index), "-o", str(out)]) == 0
        capsys.readouterr()
        rc = main(["convert", str(v2_index), "-o", str(out)])
        assert rc == 2
        assert "--force" in capsys.readouterr().err
        rc = main(["convert", str(v2_index), "-o", str(out), "--force"])
        assert rc == 0


@pytest.mark.parametrize("served", ["v3 file", "shard directory"])
def test_single_pair_facilities_work(served, graph_file, tmp_path):
    """What `query` and `serve` open answers the single-pair surfaces
    like the store it was written from, for a file and a directory."""
    path = tmp_path / "g.idx3"
    main(["build", str(graph_file), "-o", str(path)])
    if served == "shard directory":
        main(["shard", str(path), "-o", str(tmp_path / "s"), "--shards", "3"])
        path = tmp_path / "s"
    flat = load_store(tmp_path / "g.idx3")
    oracle = _open_oracle(Namespace(index=str(path)))
    try:
        assert oracle.n == flat.n
        assert oracle.query(3, 150) == flat.query(3, 150)
        reference = DistanceOracle(flat)
        assert oracle.nearest(9, k=4) == reference.nearest(9, k=4)
        oracle.graph = read_edge_list(graph_file)
        path_3_150 = oracle.reconstruct_path(3, 150)
        assert path_3_150[0] == 3 and path_3_150[-1] == 150
        assert len(path_3_150) - 1 == flat.query(3, 150)
    finally:
        oracle.close()


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "g.idx", "--kernel", "off"],
            ["serve", "g.idx", "--kernel", "on"],
            ["update", "g.idx", "--edges", "new.txt", "--engine", "dict"],
            ["query", "g.idx", "--mmap", "0"],
            ["build", "g.txt", "-o", "g.idx", "--engine", "dict"],
            ["build", "g.txt", "-o", "g.idx", "--jobs", "2"],
            ["query", "g.idx", "--workers", "1"],
        ],
        ids=[
            "query --kernel", "serve --kernel", "update --engine",
            "query --mmap", "build --engine", "build --jobs",
            "query --workers",
        ],
    )
    def test_removed_flags_are_gone(self, argv, capsys):
        """The kernel, the build and repair engines, how an index is
        opened and how many processes answer are not chosen on a command
        line: argparse refuses the flags before any file is read."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert argv[-2] in capsys.readouterr().err


class TestVerify:
    def test_verify_good_index(self, graph_file, tmp_path, capsys):
        idx = tmp_path / "g.idx"
        main(["build", str(graph_file), "-o", str(idx)])
        rc = main(["verify", str(graph_file), str(idx)])
        assert rc == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_wrong_graph_fails(self, graph_file, tmp_path, capsys):
        idx = tmp_path / "g.idx"
        main(["build", str(graph_file), "-o", str(idx)])
        other = tmp_path / "other.txt"
        main(["generate", "glp", "-n", "200", "--density", "4",
              "--seed", "9", "-o", str(other)])
        rc = main(["verify", str(other), str(idx)])
        assert rc == 1
        assert "violation" in capsys.readouterr().out

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_verify_refuses_no_samples(
        self, graph_file, tmp_path, capsys, samples
    ):
        idx = tmp_path / "g.idx"
        main(["build", str(graph_file), "-o", str(idx)])
        capsys.readouterr()
        rc = main(["verify", str(graph_file), str(idx), "--samples", samples])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: samples must be > 0, got {int(samples)}\n"


class TestUpdate:
    @pytest.fixture
    def built(self, graph_file, tmp_path):
        idx = tmp_path / "g.idx"
        main(["build", str(graph_file), "-o", str(idx), "--format", "v2"])
        edges = tmp_path / "new.txt"
        edges.write_text("0 199\n5 123  # comment\n7 7\n5 123\n")
        return idx, edges

    def test_update_in_place(self, built, capsys):
        idx, edges = built
        capsys.readouterr()
        rc = main(["update", str(idx), "--edges", str(edges)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "inserted 2 of 4 edges" in out
        rc = main(["update", str(idx), "--edges", str(edges)])
        assert rc == 0
        capsys.readouterr()
        assert main(["query", str(idx), "0", "199"]) == 0
        assert "dist(0, 199) = 1" in capsys.readouterr().out

    def test_update_to_output_keeps_source(self, built, tmp_path, capsys):
        idx, edges = built
        out_idx = tmp_path / "updated.idx"
        before = idx.read_bytes()
        rc = main(["update", str(idx), "--edges", str(edges),
                   "-o", str(out_idx)])
        assert rc == 0
        assert idx.read_bytes() == before
        capsys.readouterr()
        main(["query", str(out_idx), "0", "199"])
        assert "dist(0, 199) = 1" in capsys.readouterr().out

    def test_update_v1_index_writes_v2(self, built, tmp_path, capsys):
        """An update writes what it loaded: a v1 file loads as v2 arrays."""
        idx, edges = built
        idx1 = tmp_path / "g1.idx"
        write_v1(load_store(idx), idx1)
        capsys.readouterr()
        rc = main(["update", str(idx1), "--edges", str(edges)])
        assert rc == 0
        assert "(format v2)" in capsys.readouterr().out
        assert idx1.read_bytes()[4] == 2
        main(["query", str(idx1), "0", "199"])
        assert "dist(0, 199) = 1" in capsys.readouterr().out

    def test_update_v3_index(self, built, tmp_path, capsys):
        idx, edges = built
        idx3 = tmp_path / "g.idx3"
        main(["convert", str(idx), "-o", str(idx3), "--format", "v3"])
        capsys.readouterr()
        rc = main(["update", str(idx3), "--edges", str(edges)])
        assert rc == 0
        main(["query", str(idx3), "0", "199"])
        assert "dist(0, 199) = 1" in capsys.readouterr().out

    def test_update_shard_directory_in_place(self, built, tmp_path, capsys):
        idx, edges = built
        shards = tmp_path / "shards"
        main(["shard", str(idx), "-o", str(shards), "--shards", "3"])
        capsys.readouterr()
        rc = main(["update", str(shards), "--edges", str(edges)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reconciled" in out
        main(["query", str(shards), "0", "199"])
        assert "dist(0, 199) = 1" in capsys.readouterr().out

    def test_update_index_plus_shards(self, built, tmp_path, capsys):
        idx, edges = built
        shards = tmp_path / "shards"
        main(["shard", str(idx), "-o", str(shards), "--shards", "3"])
        capsys.readouterr()
        rc = main(["update", str(idx), "--edges", str(edges),
                   "--shards", str(shards)])
        assert rc == 0
        assert "reconciled" in capsys.readouterr().out

    def test_update_errors(self, built, tmp_path, capsys):
        idx, edges = built
        rc = main(["update", str(idx), "--edges", str(tmp_path / "no.txt")])
        assert rc == 2
        capsys.readouterr()
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 3 4\n")
        rc = main(["update", str(idx), "--edges", str(bad)])
        assert rc == 2
        assert "expected 'u v [w]'" in capsys.readouterr().err
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n")
        rc = main(["update", str(idx), "--edges", str(empty)])
        assert rc == 2
        assert "no edges" in capsys.readouterr().err
        out_of_range = tmp_path / "oor.txt"
        out_of_range.write_text("0 100000\n")
        rc = main(["update", str(idx), "--edges", str(out_of_range)])
        assert rc == 2
        assert "out of range" in capsys.readouterr().err

    def test_update_shard_dir_refuses_output(self, built, tmp_path, capsys):
        idx, edges = built
        shards = tmp_path / "shards"
        main(["shard", str(idx), "-o", str(shards), "--shards", "2"])
        capsys.readouterr()
        rc = main(["update", str(shards), "--edges", str(edges),
                   "-o", str(tmp_path / "x.idx")])
        assert rc == 2
        assert "in place" in capsys.readouterr().err


class TestFileIds:
    """Every command addresses a file's integer vertex ids as written."""

    @pytest.fixture
    def path_file(self, tmp_path):
        """The path 5 - 3 - 9 - 0 - 7: ids neither dense nor first-seen."""
        path = tmp_path / "p.txt"
        path.write_text("5 3\n3 9\n9 0\n0 7\n")
        index = tmp_path / "p.idx"
        assert main(["build", str(path), "-o", str(index)]) == 0
        return path, index

    @staticmethod
    def distance(capsys, *argv):
        capsys.readouterr()
        assert main(["query", *map(str, argv)]) == 0
        return capsys.readouterr().out.split(" = ")[-1].strip()

    def test_query_reads_the_file_ids(self, path_file, capsys):
        _, index = path_file
        assert self.distance(capsys, index, 0, 3) == "2"
        assert self.distance(capsys, index, 0, 9) == "1"
        assert self.distance(capsys, index, 0, 5) == "3"
        assert self.distance(capsys, index, 5, 7) == "4"
        assert self.distance(capsys, index, 5, 1) == "unreachable"

    def test_stats_counts_every_id_up_to_the_largest(self, path_file, capsys):
        path, _ = path_file
        capsys.readouterr()
        assert main(["stats", str(path)]) == 0
        assert "|V|            10\n" in capsys.readouterr().out

    def test_batch_matches_bfs_over_the_file(self, tmp_path, capsys):
        graph = tmp_path / "ba.txt"
        main(["generate", "ba", "-n", "50", "--seed", "1", "-o", str(graph)])
        index = tmp_path / "ba.idx"
        assert main(["build", str(graph), "-o", str(index)]) == 0
        n = 50
        edges = [
            tuple(map(int, line.split()))
            for line in graph.read_text().splitlines()
            if not line.startswith("#")
        ]
        reference = Graph.from_edges(n, edges, directed=False)
        want = [
            f"{s}\t{t}\t{d:g}"
            for s in range(n)
            for t, d in enumerate(bfs_distances(reference, s))
        ]
        batch = tmp_path / "pairs.txt"
        batch.write_text(
            "".join(f"{s} {t}\n" for s in range(n) for t in range(n))
        )
        capsys.readouterr()
        assert main(["query", str(index), "--batch", str(batch)]) == 0
        assert capsys.readouterr().out.splitlines() == want

    def test_update_and_verify_read_the_file_ids(self, path_file, tmp_path,
                                                 capsys):
        path, index = path_file
        edges = tmp_path / "new.txt"
        edges.write_text("5 7\n")
        assert main(["update", str(index), "--edges", str(edges)]) == 0
        assert self.distance(capsys, index, 5, 7) == "1"
        assert self.distance(capsys, index, 3, 0) == "2"
        grown = tmp_path / "grown.txt"
        grown.write_text(path.read_text() + "5 7\n")
        assert main(["verify", str(grown), str(index)]) == 0
        assert "OK" in capsys.readouterr().out
        assert main(["verify", str(path), str(index)]) == 1

    def test_query_dir_prints_what_query_file_prints(self, path_file,
                                                     tmp_path, capsys):
        _, index = path_file
        shards = tmp_path / "p.shards"
        assert main(["shard", str(index), "-o", str(shards),
                     "--shards", "3"]) == 0
        batch = tmp_path / "pairs.txt"
        batch.write_text("".join(f"{s} {t}\n" for s in range(10)
                                 for t in (0, 3, 7, 9)))
        printed = []
        for source in (index, shards):
            capsys.readouterr()
            assert main(["query", str(source), "--batch", str(batch),
                         "0", "9"]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert printed[0].startswith("dist(0, 9) = 1\n0\t0\t0\n0\t3\t2\n")


class TestErrorBoundary:
    """Every failure below is one `error:` line and exit 2, no traceback."""

    @staticmethod
    def assert_one_error(capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_build_missing_graph(self, tmp_path, capsys):
        rc = main(["build", str(tmp_path / "MISSING.txt"),
                   "-o", str(tmp_path / "x.idx")])
        assert rc == 2
        self.assert_one_error(capsys)

    def test_build_into_missing_directory(self, graph_file, tmp_path,
                                          capsys, monkeypatch):
        """Refused before the build starts, not after it finishes."""
        from repro.core import index

        def no_build(*args, **kwargs):
            raise AssertionError("built before checking the output path")

        monkeypatch.setattr(index.HopDoublingIndex, "build", no_build)
        rc = main(["build", str(graph_file),
                   "-o", str(tmp_path / "nodir" / "x.idx")])
        assert rc == 2
        self.assert_one_error(capsys)

    def test_verify_missing_or_corrupt_index(self, graph_file, tmp_path,
                                             capsys):
        rc = main(["verify", str(graph_file), str(tmp_path / "MISSING.idx")])
        assert rc == 2
        self.assert_one_error(capsys)
        bad = tmp_path / "bad.idx"
        bad.write_bytes(b"garbage!")
        rc = main(["verify", str(graph_file), str(bad)])
        assert rc == 2
        self.assert_one_error(capsys)

    def test_stats_missing_graph(self, tmp_path, capsys):
        rc = main(["stats", str(tmp_path / "MISSING.txt")])
        assert rc == 2
        self.assert_one_error(capsys)

    def test_update_output_never_replaces_another_file(
        self, graph_file, tmp_path, capsys
    ):
        """`update -o` onto an existing file other than INDEX is refused
        and leaves that file intact; onto INDEX itself it is in place."""
        idx = tmp_path / "g.idx"
        main(["build", str(graph_file), "-o", str(idx)])
        edges = tmp_path / "new.txt"
        edges.write_text("0 199\n")
        before = graph_file.read_bytes()
        capsys.readouterr()
        rc = main(["update", str(idx), "--edges", str(edges),
                   "-o", str(graph_file)])
        assert rc == 2
        assert "already exists" in capsys.readouterr().err
        assert graph_file.read_bytes() == before
        rc = main(["update", str(idx), "--edges", str(edges), "-o", str(idx)])
        assert rc == 0
        assert "(format v3)" in capsys.readouterr().out
