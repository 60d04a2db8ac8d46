"""CLI robustness: operational errors exit with code 2 and one line, never a
traceback.

These run the CLI as a real subprocess (not via ``main()``) so they also
regress the top-level entry point: an uncaught exception anywhere on these
paths would print a traceback and exit 1, failing every assertion here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.database import paper_table2_database
from repro.data.columnar import save_shards
from repro.data.io import save_uncertain_database

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def assert_clean_failure(proc):
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1  # exactly one line


@pytest.fixture
def paper_file(tmp_path):
    path = tmp_path / "paper.utd"
    save_uncertain_database(paper_table2_database(), path)
    return str(path)


class TestDatasetErrors:
    def test_mine_missing_file(self, tmp_path):
        proc = run_cli("mine", str(tmp_path / "absent.utd"), "--min-sup", "2")
        assert_clean_failure(proc)
        assert "absent.utd" in proc.stderr

    def test_mine_unreadable_file(self, tmp_path):
        path = tmp_path / "locked.utd"
        path.write_text("t1\t0.9\ta b\n")
        path.chmod(0o000)
        if os.access(path, os.R_OK):
            pytest.skip("running as a user that ignores file modes")
        try:
            proc = run_cli("mine", str(path), "--min-sup", "2")
            assert_clean_failure(proc)
        finally:
            path.chmod(0o644)

    def test_mine_malformed_line(self, tmp_path):
        path = tmp_path / "bad.utd"
        path.write_text("t1\t0.9\ta b\nthis line is not a transaction\n")
        proc = run_cli("mine", str(path), "--min-sup", "2")
        assert_clean_failure(proc)
        assert "bad.utd:2" in proc.stderr  # names file and line

    def test_mine_out_of_range_probability(self, tmp_path):
        path = tmp_path / "bad.utd"
        path.write_text("t1\t1.5\ta b\n")
        proc = run_cli("mine", str(path), "--min-sup", "2")
        assert_clean_failure(proc)

    def test_stream_mine_missing_file(self, tmp_path):
        proc = run_cli(
            "stream-mine", str(tmp_path / "absent.utd"),
            "--window", "5", "--min-sup", "2",
        )
        assert_clean_failure(proc)

    def test_inspect_missing_file(self, tmp_path):
        proc = run_cli("inspect", str(tmp_path / "absent.utd"))
        assert_clean_failure(proc)


class TestConfigErrors:
    def test_invalid_pfct(self, paper_file):
        proc = run_cli("mine", paper_file, "--min-sup", "2", "--pfct", "1.5")
        assert_clean_failure(proc)
        assert "pfct" in proc.stderr

    def test_negative_exact_check_budget(self, paper_file):
        proc = run_cli(
            "mine", paper_file, "--min-sup", "2", "--exact-check-budget", "-1"
        )
        assert_clean_failure(proc)

    def test_non_positive_branch_timeout(self, paper_file):
        proc = run_cli(
            "mine", paper_file, "--min-sup", "2", "--branch-timeout", "0"
        )
        assert_clean_failure(proc)

    def test_non_positive_processes(self, paper_file):
        proc = run_cli("mine", paper_file, "--min-sup", "2", "--processes", "0")
        assert_clean_failure(proc)
        assert "--processes" in proc.stderr

    def test_stream_mine_non_positive_window(self, paper_file):
        proc = run_cli("stream-mine", paper_file, "--window", "0", "--min-sup", "2")
        assert_clean_failure(proc)
        assert "--window" in proc.stderr

    @pytest.mark.parametrize("flag", ["--max-slides", "--report-every"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_stream_mine_non_positive_counts(self, paper_file, flag, value):
        proc = run_cli(
            "stream-mine", paper_file, "--window", "2", "--min-sup", "2", flag, value
        )
        assert_clean_failure(proc)
        assert flag in proc.stderr


class TestSupervisedFlags:
    def test_checkpoint_then_resume(self, paper_file, tmp_path):
        checkpoint = str(tmp_path / "run.ckpt")
        first = run_cli(
            "mine", paper_file, "--min-sup", "2", "--pfct", "0.5",
            "--checkpoint", checkpoint, "--json", "--stats",
        )
        assert first.returncode == 0, first.stderr
        resumed = run_cli(
            "mine", paper_file, "--min-sup", "2", "--pfct", "0.5",
            "--resume", checkpoint, "--json",
        )
        assert resumed.returncode == 0, resumed.stderr
        import json

        assert (
            json.loads(first.stdout)["results"]
            == json.loads(resumed.stdout)["results"]
        )

    def test_resume_with_mismatched_config_refused(self, paper_file, tmp_path):
        checkpoint = str(tmp_path / "run.ckpt")
        assert run_cli(
            "mine", paper_file, "--min-sup", "2", "--pfct", "0.5",
            "--checkpoint", checkpoint,
        ).returncode == 0
        proc = run_cli(
            "mine", paper_file, "--min-sup", "3", "--pfct", "0.5",
            "--resume", checkpoint,
        )
        assert_clean_failure(proc)
        assert "min_sup" in proc.stderr

    def test_resume_from_damaged_checkpoint(self, paper_file, tmp_path):
        checkpoint = tmp_path / "run.ckpt"
        assert run_cli(
            "mine", paper_file, "--min-sup", "2", "--pfct", "0.5",
            "--checkpoint", str(checkpoint),
        ).returncode == 0
        header = checkpoint.read_text().splitlines()[0]
        checkpoint.write_text(
            header + "\n" + '{"kind": "branch", "rank": 0, "item": "a", "stats": {}}\n'
        )
        proc = run_cli(
            "mine", paper_file, "--min-sup", "2", "--pfct", "0.5",
            "--resume", str(checkpoint),
        )
        assert_clean_failure(proc)
        assert "'results'" in proc.stderr

    def test_resume_missing_checkpoint(self, paper_file, tmp_path):
        proc = run_cli(
            "mine", paper_file, "--min-sup", "2",
            "--resume", str(tmp_path / "absent.ckpt"),
        )
        assert_clean_failure(proc)

    def test_checkpoint_requires_dfs(self, paper_file, tmp_path):
        proc = run_cli(
            "mine", paper_file, "--min-sup", "2", "--framework", "bfs",
            "--checkpoint", str(tmp_path / "run.ckpt"),
        )
        assert_clean_failure(proc)
        # The message names the flag actually passed, not --processes.
        assert "--checkpoint" in proc.stderr
        assert "--processes" not in proc.stderr

    def test_fresh_checkpoint_refuses_existing_checkpoint(
        self, paper_file, tmp_path
    ):
        checkpoint = str(tmp_path / "run.ckpt")
        assert run_cli(
            "mine", paper_file, "--min-sup", "2", "--checkpoint", checkpoint,
        ).returncode == 0
        proc = run_cli(
            "mine", paper_file, "--min-sup", "2", "--checkpoint", checkpoint,
        )
        assert_clean_failure(proc)
        assert "--resume" in proc.stderr

    def test_manifest_input_refuses_verify(self, tmp_path):
        # The exact audit needs the whole database, which a manifest run
        # never loads; the combination is refused before any mining.
        manifest = save_shards(paper_table2_database(), tmp_path, 2)
        proc = run_cli("mine", str(manifest), "--min-sup", "2", "--verify")
        assert_clean_failure(proc)
        assert "--verify" in proc.stderr
