"""End-to-end CLI tests (in-process via repro.cli.main)."""

import pytest

from repro.cli import build_parser, main


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

    def test_build_engines_agree(self, graph_file, tmp_path, capsys):
        """--engine dict/array (and --jobs) write identical index files."""
        outputs = {}
        for name, flags in {
            "dict": ["--engine", "dict"],
            "array": ["--engine", "array"],
            "jobs": ["--engine", "array", "--jobs", "2"],
        }.items():
            idx = tmp_path / f"{name}.idx"
            rc = main(["build", str(graph_file), "-o", str(idx)] + flags)
            assert rc == 0
            outputs[name] = idx.read_bytes()
        assert outputs["dict"] == outputs["array"] == outputs["jobs"]
        assert "engine" in capsys.readouterr().out

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

    def test_build_jobs_require_array_engine(
        self, graph_file, tmp_path, capsys
    ):
        idx = tmp_path / "g.idx"
        rc = main([
            "build", str(graph_file), "-o", str(idx),
            "--engine", "dict", "--jobs", "2",
        ])
        assert rc == 2
        assert "engine='array'" in capsys.readouterr().err
        assert not idx.exists()


class TestConvertAndBatch:
    @pytest.fixture
    def v1_index(self, graph_file, tmp_path):
        idx = tmp_path / "g.idx"
        main(["build", str(graph_file), "-o", str(idx)])
        return idx

    def test_convert_to_v2_and_query(self, v1_index, tmp_path, capsys):
        v2 = tmp_path / "g.idx2"
        rc = main(["convert", str(v1_index), "-o", str(v2)])
        assert rc == 0
        assert "format v2" in capsys.readouterr().out
        rc = main(["query", str(v2), "0", "10"])
        assert rc == 0
        assert "dist(0, 10)" in capsys.readouterr().out

    def test_convert_round_trip_preserves_answers(self, v1_index, tmp_path,
                                                  capsys):
        v2 = tmp_path / "g.idx2"
        back = tmp_path / "g.back.idx"
        main(["convert", str(v1_index), "-o", str(v2)])
        main(["convert", str(v2), "-o", str(back), "--format", "v1"])
        main(["query", str(v1_index), "0", "17"])
        first = capsys.readouterr().out.splitlines()[-1]
        main(["query", str(back), "0", "17"])
        second = capsys.readouterr().out.splitlines()[-1]
        assert first == second

    def test_build_v2_format_directly(self, graph_file, tmp_path, capsys):
        idx = tmp_path / "g.idx2"
        rc = main(["build", str(graph_file), "-o", str(idx), "--format",
                   "v2"])
        assert rc == 0
        assert main(["query", str(idx), "3", "3"]) == 0
        assert "dist(3, 3) = 0" in capsys.readouterr().out

    def test_convert_to_v3_and_query(self, v1_index, tmp_path, capsys):
        v3 = tmp_path / "g.idx3"
        rc = main(["convert", str(v1_index), "-o", str(v3), "--format",
                   "v3"])
        assert rc == 0
        assert "format v3" in capsys.readouterr().out
        rc = main(["query", str(v3), "0", "10", "--mmap"])
        assert rc == 0
        assert "dist(0, 10)" in capsys.readouterr().out

    def test_convert_v3_stats_report(self, v1_index, tmp_path, capsys):
        v3 = tmp_path / "g.idx3"
        rc = main(["convert", str(v1_index), "-o", str(v3), "--format",
                   "v3", "--stats"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pivot width" in out
        assert "dist width" in out
        assert "bytes/entry" in out

    def test_convert_v3_half_the_v2_size(self, v1_index, tmp_path, capsys):
        v2 = tmp_path / "g.idx2"
        v3 = tmp_path / "g.idx3"
        main(["convert", str(v1_index), "-o", str(v2)])
        main(["convert", str(v1_index), "-o", str(v3), "--format", "v3"])
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
        (tuple lists) print the same lines."""
        from repro.oracle import kernel

        v3 = tmp_path / "g.idx3"
        main(["convert", str(v1_index), "-o", str(v3), "--format", "v3"])
        batch = tmp_path / "pairs.txt"
        batch.write_text("0 10\n3 7\n5 5\n1 40\n")
        capsys.readouterr()
        before = kernel.stats()["pairs"]
        assert main(["query", str(v3), "--batch", str(batch)]) == 0
        on_out = capsys.readouterr().out
        assert kernel.stats()["pairs"] == before + 3  # 5 5 reads 0.0
        assert main(["query", str(v1_index), "--batch", str(batch),
                     "--backend", "list"]) == 0
        off_out = capsys.readouterr().out
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
                  "--backend", "list", "--kernel", "on"])
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
        main(["convert", str(v1_index), "-o", str(v2)])
        batch = tmp_path / "pairs.txt"
        batch.write_text("0 10\n")
        capsys.readouterr()
        rc = main(["query", str(v2), "--batch", str(batch), "--mmap"])
        assert rc == 0
        out_mmap = capsys.readouterr().out
        rc = main(["query", str(v2), "--batch", str(batch), "--backend",
                   "list"])
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

    def test_query_flags_before_pairs(self, v1_index, capsys):
        rc = main(["query", str(v1_index), "--backend", "list", "0", "10"])
        assert rc == 0
        assert "dist(0, 10)" in capsys.readouterr().out

    def test_non_query_extra_args_still_rejected(self, graph_file):
        with pytest.raises(SystemExit):
            main(["stats", str(graph_file), "17"])

    def test_query_without_pairs_or_batch(self, v1_index, capsys):
        rc = main(["query", str(v1_index)])
        assert rc == 2
        assert "provide vertex pairs" in capsys.readouterr().err

    def test_verify_reads_v2(self, graph_file, v1_index, tmp_path, capsys):
        v2 = tmp_path / "g.idx2"
        main(["convert", str(v1_index), "-o", str(v2)])
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
                     "--shards", "3"]) == 0
        return out

    def test_shard_writes_manifest_and_files(self, shard_dir, capsys):
        assert (shard_dir / "manifest.json").exists()
        for i in range(3):
            assert (shard_dir / f"shard-{i:04d}.idx2").exists()

    def test_shard_v3_format_and_query(self, v2_index, tmp_path, capsys):
        out = tmp_path / "g.shards3"
        rc = main(["shard", str(v2_index), "-o", str(out),
                   "--shards", "3", "--format", "v3"])
        assert rc == 0
        assert "format v3" in capsys.readouterr().out
        for i in range(3):
            assert (out / f"shard-{i:04d}.idx3").exists()
        main(["query", str(v2_index), "0", "10"])
        single = capsys.readouterr().out
        rc = main(["query", "--shards", str(out), "0", "10"])
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
                   "--shards", "2", "--force"])
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
        rc = main(["query", "--shards", str(shard_dir), "0", "10", "3", "3"])
        assert rc == 0
        assert capsys.readouterr().out == single

    def test_query_shards_batch_file(self, v2_index, shard_dir, tmp_path,
                                     capsys, fan_out_everything):
        batch = tmp_path / "pairs.txt"
        batch.write_text("0 10\n3 3\n10 0\n")
        main(["query", str(v2_index), "--batch", str(batch)])
        single = capsys.readouterr().out
        rc = main(["query", "--shards", str(shard_dir), "--workers", "2",
                   "--batch", str(batch)])
        assert rc == 0
        assert capsys.readouterr().out == single

    def test_query_executor_flag_is_gone(self, shard_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["query", "--shards", str(shard_dir), "--executor",
                  "thread", "0", "10"])
        assert exc.value.code == 2
        assert "--executor" in capsys.readouterr().err

    def test_query_index_and_shards_rejected(self, v2_index, shard_dir,
                                             capsys):
        rc = main(["query", str(v2_index), "--shards", str(shard_dir),
                   "0", "10"])
        assert rc == 2
        assert "not both" in capsys.readouterr().err

    def test_query_neither_index_nor_shards(self, capsys):
        rc = main(["query", "--batch", "whatever.txt"])
        assert rc == 2
        assert "INDEX file or --shards" in capsys.readouterr().err

    def test_query_missing_shard_dir(self, tmp_path, capsys):
        rc = main(["query", "--shards", str(tmp_path / "nope"), "0", "1"])
        assert rc == 2
        assert "not a shard directory" in capsys.readouterr().err

    def test_query_shards_out_of_range(self, shard_dir, capsys):
        rc = main(["query", "--shards", str(shard_dir), "0", "999999"])
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
        assert main(["convert", str(v2_index), "-o", str(out),
                     "--format", "v1"]) == 0
        capsys.readouterr()
        rc = main(["convert", str(v2_index), "-o", str(out),
                   "--format", "v1"])
        assert rc == 2
        assert "--force" in capsys.readouterr().err
        rc = main(["convert", str(v2_index), "-o", str(out),
                   "--format", "v1", "--force"])
        assert rc == 0


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
        ],
        ids=["query --kernel", "serve --kernel", "update --engine"],
    )
    def test_removed_flags_are_gone(self, argv, capsys):
        """The kernel and the repair engine are not chosen on a command
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

    def test_update_v1_index_keeps_format(self, built, tmp_path, capsys):
        idx, edges = built
        idx1 = tmp_path / "g1.idx"
        main(["convert", str(idx), "-o", str(idx1), "--format", "v1"])
        rc = main(["update", str(idx1), "--edges", str(edges)])
        assert rc == 0
        assert idx1.read_bytes()[4] == 1  # still a v1 file
        capsys.readouterr()
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
        main(["query", "--shards", str(shards), "--workers", "1",
              "0", "199"])
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
