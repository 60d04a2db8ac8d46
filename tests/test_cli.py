"""End-to-end tests of the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.core.database import paper_table2_database
from repro.data.io import save_uncertain_database


@pytest.fixture
def paper_file(tmp_path):
    path = tmp_path / "paper.utd"
    save_uncertain_database(paper_table2_database(), path)
    return str(path)


class TestMineCommand:
    def test_paper_example(self, paper_file, capsys):
        assert main(["mine", paper_file, "--min-sup", "2", "--pfct", "0.8"]) == 0
        output = capsys.readouterr().out
        assert "2 probabilistic frequent closed itemsets" in output
        assert "a b c d" in output
        assert "0.8754" in output

    def test_relative_min_sup(self, paper_file, capsys):
        assert main(["mine", paper_file, "--min-sup-ratio", "0.5"]) == 0
        assert "min_sup=2" in capsys.readouterr().out

    def test_framework_bfs(self, paper_file, capsys):
        assert main(["mine", paper_file, "--min-sup", "2", "--framework", "bfs"]) == 0
        assert "a b c d" in capsys.readouterr().out

    def test_framework_naive(self, paper_file, capsys):
        assert main(["mine", paper_file, "--min-sup", "2", "--framework", "naive"]) == 0
        assert "a b c d" in capsys.readouterr().out

    def test_disable_prunings(self, paper_file, capsys):
        assert (
            main(
                ["mine", paper_file, "--min-sup", "2",
                 "--disable", "ch", "super", "sub", "bound"]
            )
            == 0
        )
        assert "a b c" in capsys.readouterr().out

    def test_stats_flag(self, paper_file, capsys):
        assert main(["mine", paper_file, "--min-sup", "2", "--stats"]) == 0
        assert "nodes=" in capsys.readouterr().out

    def test_min_sup_required(self, paper_file):
        with pytest.raises(SystemExit):
            main(["mine", paper_file])

    @pytest.mark.parametrize(
        "runner, flags",
        [
            ("run_supervised", ["--max-retries", "0"]),
            ("run_sharded", ["--shards", "2"]),
            ("run_supervised", ["--processes", "2"]),
        ],
    )
    def test_failed_branch_warns_and_exits_one(
        self, paper_file, capsys, monkeypatch, runner, flags
    ):
        import repro.runtime
        from repro.runtime import BranchOutcome, ShardedReport

        failed = BranchOutcome(
            rank=1, item="b", status="failed", attempts=3, error="RuntimeError: boom"
        )
        monkeypatch.setattr(
            repro.runtime,
            runner,
            lambda *args, **kwargs: ShardedReport(results=[], outcomes=[failed]),
        )
        assert main(["mine", paper_file, "--min-sup", "2", *flags]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "warning: branch 1 ('b') failed after 3 attempt(s): RuntimeError: boom",
            "warning: 1 branch(es) failed; results are partial",
        ]

    def test_processes_runs_supervised_with_serial_results(self, paper_file, capsys):
        assert main(["mine", paper_file, "--min-sup", "2", "--json"]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert (
            main(["mine", paper_file, "--min-sup", "2", "--processes", "2",
                  "--json", "--stats"])
            == 0
        )
        parallel = json.loads(capsys.readouterr().out)
        assert parallel["results"] == serial["results"]
        assert parallel["stats_report"]["runtime"]["branches_dispatched"] == 4


class TestStreamMineCommand:
    @pytest.fixture
    def quest_file(self, tmp_path):
        path = tmp_path / "stream.utd"
        assert (
            main(
                ["generate", str(path), "--kind", "quest", "--transactions", "60",
                 "--items", "10", "--avg-length", "4", "--avg-pattern", "2",
                 "--seed", "3"]
            )
            == 0
        )
        return str(path)

    def test_replay_reports_final_window(self, quest_file, capsys):
        assert (
            main(
                ["stream-mine", quest_file, "--window", "20",
                 "--min-sup", "4", "--pfct", "0.5"]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "PFCIs in the final window" in output
        assert "window=20" in output
        assert "60 slides" in output

    def test_relative_min_sup_uses_window(self, quest_file, capsys):
        assert (
            main(
                ["stream-mine", quest_file, "--window", "20",
                 "--min-sup-ratio", "0.2", "--pfct", "0.5", "--max-slides", "30"]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "min_sup=4" in output  # 0.2 of the 20-row window, not the file
        assert "30 slides" in output

    def test_matches_batch_miner_on_final_window(self, quest_file, capsys):
        """The incremental replay's final window equals batch mining the
        same last-20 transactions from scratch."""
        from repro.core.config import MinerConfig
        from repro.core.database import UncertainDatabase
        from repro.core.miner import MPFCIMiner
        from repro.data.io import load_uncertain_database

        assert (
            main(
                ["stream-mine", quest_file, "--window", "20",
                 "--min-sup", "4", "--pfct", "0.5", "--json"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        database = load_uncertain_database(quest_file)
        window = UncertainDatabase(list(database)[-20:])
        config = MinerConfig(min_sup=4, pfct=0.5)
        scratch = MPFCIMiner(window, config).mine()
        assert payload["results"] == [result.to_dict() for result in scratch]

    def test_stats_and_json(self, quest_file, capsys):
        assert (
            main(
                ["stream-mine", quest_file, "--window", "20",
                 "--min-sup", "4", "--pfct", "0.5", "--json", "--stats"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["window"] == 20
        assert payload["slides"] == 60
        assert payload["stats"]["slides_processed"] == 60

    def test_window_required(self, quest_file):
        with pytest.raises(SystemExit):
            main(["stream-mine", quest_file, "--min-sup", "4"])


class TestGenerateAndInspect:
    def test_generate_quest(self, tmp_path, capsys):
        output = tmp_path / "gen.utd"
        assert (
            main(
                ["generate", str(output), "--kind", "quest",
                 "--transactions", "30", "--items", "8", "--seed", "4"]
            )
            == 0
        )
        assert output.exists()
        assert "wrote 30 transactions" in capsys.readouterr().out

    def test_generate_mushroom(self, tmp_path):
        output = tmp_path / "mush.utd"
        assert (
            main(
                ["generate", str(output), "--kind", "mushroom",
                 "--transactions", "20", "--seed", "4"]
            )
            == 0
        )
        assert output.exists()

    def test_generate_then_mine(self, tmp_path, capsys):
        output = tmp_path / "gen.utd"
        main(["generate", str(output), "--transactions", "40", "--items", "6",
              "--avg-length", "3", "--avg-pattern", "2", "--seed", "4"])
        capsys.readouterr()
        assert main(["mine", str(output), "--min-sup-ratio", "0.2",
                     "--pfct", "0.5"]) == 0
        assert "probabilistic frequent closed itemsets" in capsys.readouterr().out

    def test_inspect(self, paper_file, capsys):
        assert main(["inspect", paper_file]) == 0
        output = capsys.readouterr().out
        assert "transactions" in output
        assert "4" in output


class TestConvertCommand:
    def test_text_to_columnar_and_back(self, paper_file, tmp_path, capsys):
        columnar = tmp_path / "paper.utdz"
        assert main(["convert", paper_file, str(columnar)]) == 0
        assert "wrote 4 transactions" in capsys.readouterr().out
        assert columnar.exists()
        round_trip = tmp_path / "round.utd"
        assert main(["convert", str(columnar), str(round_trip)]) == 0
        capsys.readouterr()
        # The converted file mines identically to the original text file.
        assert main(["mine", str(columnar), "--min-sup", "2",
                     "--pfct", "0.8"]) == 0
        assert "a b c d" in capsys.readouterr().out

    def test_inspect_columnar(self, paper_file, tmp_path, capsys):
        columnar = tmp_path / "paper.utdz"
        main(["convert", paper_file, str(columnar)])
        capsys.readouterr()
        assert main(["inspect", str(columnar)]) == 0
        assert "transactions" in capsys.readouterr().out

    def test_corrupt_columnar_reports_error(self, tmp_path, capsys):
        broken = tmp_path / "broken.utdz"
        broken.write_bytes(b"not a columnar file at all")
        assert main(["mine", str(broken), "--min-sup", "2"]) == 2
        assert "not a .utdz file" in capsys.readouterr().err

    def test_missing_input_reports_error(self, tmp_path, capsys):
        assert main(["convert", str(tmp_path / "nope.utd"),
                     str(tmp_path / "out.utdz")]) == 2
        assert capsys.readouterr().err


class TestExperimentsCommand:
    def test_runs_selected_tables(self, capsys):
        assert main(["experiments", "--scale", "ci", "--only", "table7"]) == 0
        assert "Table VII" in capsys.readouterr().out


class TestArgumentErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestJsonAndMaxSize:
    def test_json_output(self, paper_file, capsys):
        import json

        assert main(["mine", paper_file, "--min-sup", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        itemsets = [tuple(r["itemset"]) for r in payload["results"]]
        assert itemsets == [("a", "b", "c"), ("a", "b", "c", "d")]
        assert payload["results"][0]["probability"] == pytest.approx(0.8754)

    def test_json_with_stats(self, paper_file, capsys):
        import json

        assert main(["mine", paper_file, "--min-sup", "2", "--json", "--stats"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["results_emitted"] == 2

    def test_max_size_caps_results(self, paper_file, capsys):
        import json

        assert (
            main(["mine", paper_file, "--min-sup", "2", "--pfct", "0.0",
                  "--json", "--max-size", "3"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]
        assert all(len(r["itemset"]) <= 3 for r in payload["results"])


class TestVerifyFlag:
    def test_verify_passes_on_paper_example(self, paper_file, capsys):
        assert main(["mine", paper_file, "--min-sup", "2", "--verify"]) == 0
        assert "verification:" in capsys.readouterr().out

    def test_verify_works_with_sampled_framework(self, paper_file, capsys):
        assert (
            main(["mine", paper_file, "--min-sup", "2", "--framework", "naive",
                  "--verify"])
            == 0
        )
        assert "violations: none" in capsys.readouterr().out


class TestExperimentsExport:
    def test_export_writes_files(self, tmp_path, capsys):
        out = tmp_path / "reports"
        assert (
            main(["experiments", "--scale", "ci", "--only", "table7",
                  "--export", str(out), "--export-format", "csv"])
            == 0
        )
        files = list(out.glob("*.csv"))
        assert len(files) == 1
        assert "exported 1 report(s)" in capsys.readouterr().out
