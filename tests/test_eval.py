"""Tests for the evaluation harness: metrics, reporting, datasets, drivers."""

import pytest

from repro.eval.datasets import ExperimentScale, mushroom_database, quest_database
from repro.eval.experiments import (
    BudgetedRunner,
    default_config,
    experiment_fig10,
    experiment_fig11,
    experiment_fig12,
    experiment_table7,
    experiment_table8,
    miner_variants,
    run_all,
)
from repro.eval.metrics import compression_ratio, precision_recall
from repro.eval.reporting import format_cell, format_table
from repro.core.config import MinerConfig


class TestMetrics:
    def test_precision_recall_basic(self):
        precision, recall = precision_recall([("a",), ("b",)], [("a",), ("c",)])
        assert precision == 0.5
        assert recall == 0.5

    def test_perfect_match(self):
        assert precision_recall([("a",)], [("a",)]) == (1.0, 1.0)

    def test_empty_found(self):
        precision, recall = precision_recall([], [("a",)])
        assert precision == 1.0
        assert recall == 0.0

    def test_empty_truth(self):
        precision, recall = precision_recall([("a",)], [])
        assert precision == 0.0
        assert recall == 1.0

    def test_compression_ratio(self):
        assert compression_ratio(5, 20) == 0.25
        assert compression_ratio(0, 0) == 1.0

    def test_compression_ratio_validation(self):
        with pytest.raises(ValueError):
            compression_ratio(5, 4)
        with pytest.raises(ValueError):
            compression_ratio(-1, 4)


class TestReporting:
    def test_format_cell(self):
        assert format_cell(True) == "yes"
        assert format_cell(0.123456) == "0.1235"
        assert format_cell("x") == "x"
        assert format_cell(float("nan")) == "-"

    def test_format_table_alignment(self):
        table = format_table(["a", "long"], [[1, 2], [333, 4]])
        lines = table.splitlines()
        assert lines[0].startswith("a")
        assert all(len(line) <= len(max(lines, key=len)) for line in lines)

    def test_format_table_title(self):
        table = format_table(["x"], [[1]], title="T")
        assert table.splitlines()[0] == "T"
        assert table.splitlines()[1] == "="

    def test_row_width_mismatch_raises(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])


class TestDatasets:
    def test_mushroom_shape(self):
        db = mushroom_database(ExperimentScale.CI)
        assert len(db) == ExperimentScale.CI.mushroom_rows
        assert all(len(txn.items) == 23 for txn in db)

    def test_quest_shape(self):
        db = quest_database(ExperimentScale.CI)
        assert len(db) == ExperimentScale.CI.quest_transactions

    def test_caching(self):
        assert mushroom_database(ExperimentScale.CI) is mushroom_database(
            ExperimentScale.CI
        )

    def test_scales_are_ordered(self):
        assert (
            ExperimentScale.CI.mushroom_rows
            < ExperimentScale.STANDARD.mushroom_rows
            < ExperimentScale.PAPER.mushroom_rows
        )


class TestDrivers:
    def test_table7_lists_all_variants(self):
        report = experiment_table7()
        names = [row[0] for row in report.rows]
        assert names == [
            "MPFCI", "MPFCI-NoCH", "MPFCI-NoBound",
            "MPFCI-NoSuper", "MPFCI-NoSub", "MPFCI-BFS",
        ]
        assert "Algorithm" in report.headers
        assert "Table VII" in report.render()

    def test_table8_reports_both_datasets(self):
        report = experiment_table8(ExperimentScale.CI)
        assert [row[0] for row in report.rows] == ["mushroom", "quest"]

    def test_default_config_takes_an_exact_event_limit_override(self):
        db = mushroom_database(ExperimentScale.CI)
        assert default_config(db, 0.3).exact_event_limit == 0
        assert default_config(db, 0.3, exact_event_limit=12).exact_event_limit == 12

    def test_miner_variants_toggle_the_right_flags(self):
        config = MinerConfig(min_sup=2)
        variants = miner_variants(config)
        assert variants["MPFCI"].use_probability_bounds
        assert not variants["MPFCI-NoCH"].use_chernoff_pruning
        assert not variants["MPFCI-NoSuper"].use_superset_pruning
        assert not variants["MPFCI-NoSub"].use_subset_pruning
        assert not variants["MPFCI-NoBound"].use_probability_bounds

    def test_fig10_counts_are_consistent(self):
        report = experiment_fig10("a", ExperimentScale.CI, ratios=[0.3, 0.25])
        for _ratio, num_fi, num_fci, num_pfi, num_pfci, *_rest in report.rows:
            assert num_fci <= num_fi      # closed compresses exact results
            assert num_pfci <= num_pfi    # PFCI compresses PFIs
            assert num_pfi <= num_fi      # uncertainty only removes itemsets

    def test_fig12_dfs_and_bfs_agree(self):
        report = experiment_fig12("mushroom", ExperimentScale.CI)
        agreements = [row[3] for row in report.rows]
        assert all(value is True or value == "-" for value in agreements)

    def test_fig11_recall_high_at_reference_settings(self):
        # Coarse tolerances only: the fine-eps NoBound points cost minutes.
        report = experiment_fig11("epsilon", ExperimentScale.CI, values=[0.3, 0.2])
        recalls = [row[2] for row in report.rows if row[2] != "-"]
        assert recalls
        assert all(recall >= 0.9 for recall in recalls)

    def test_run_all_validates_names(self):
        with pytest.raises(ValueError, match="unknown experiments"):
            run_all(ExperimentScale.CI, only=["nope"])

    def test_run_all_subset(self):
        reports = run_all(ExperimentScale.CI, only=["table7", "table8"])
        assert len(reports) == 2


class TestBudgetedRunner:
    def test_skips_after_budget_exceeded(self):
        runner = BudgetedRunner(budget_seconds=0.0)
        seconds, results = runner.run("algo", lambda: ([1], None))
        assert seconds is not None  # first run always executes
        seconds, results = runner.run("algo", lambda: ([1], None))
        assert seconds is None and results is None

    def test_cell_rendering(self):
        runner = BudgetedRunner(budget_seconds=30)
        assert runner.cell(None) == ">30s"
        assert runner.cell(1.23456) == "1.235"


class TestExport:
    def _sample_report(self):
        from repro.eval.experiments import ExperimentReport

        return ExperimentReport(
            "Fig. 5 (mushroom)",
            "Efficiency",
            ["min_sup", "MPFCI"],
            [[0.4, 0.016], [0.3, 0.051]],
            notes=["shape holds"],
        )

    def test_slugify(self):
        from repro.eval.export import slugify

        assert slugify("Fig. 5 (mushroom)") == "fig-5-mushroom"
        assert slugify("***") == "report"

    def test_json_export(self, tmp_path):
        import json

        from repro.eval.export import export_reports

        paths = export_reports([self._sample_report()], tmp_path, fmt="json")
        assert len(paths) == 1
        payload = json.loads(paths[0].read_text())
        assert payload["headers"] == ["min_sup", "MPFCI"]
        assert payload["rows"] == [[0.4, 0.016], [0.3, 0.051]]
        assert payload["notes"] == ["shape holds"]

    def test_csv_export(self, tmp_path):
        from repro.eval.export import export_reports

        paths = export_reports([self._sample_report()], tmp_path, fmt="csv")
        lines = paths[0].read_text().splitlines()
        assert lines[0].startswith("# Fig. 5")
        assert lines[1].startswith("# note:")
        assert lines[2] == "min_sup,MPFCI"
        assert lines[3] == "0.4,0.016"

    def test_bad_format_rejected(self, tmp_path):
        from repro.eval.export import export_reports

        with pytest.raises(ValueError):
            export_reports([self._sample_report()], tmp_path, fmt="xml")

    def test_round_trip_with_real_driver(self, tmp_path):
        import json

        from repro.eval.export import export_reports, report_to_dict

        report = experiment_table7()
        (path,) = export_reports([report], tmp_path, fmt="json")
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(report_to_dict(report), default=str)
        )


class TestBudgetTruncation:
    """The drivers must degrade gracefully when points blow the budget."""

    def test_fig5_truncates_with_tiny_budget(self):
        from repro.eval.experiments import experiment_fig5

        report = experiment_fig5(
            "mushroom", ExperimentScale.CI, budget_seconds=1e-9
        )
        # The first point of each algorithm runs; everything after shows
        # the >budget marker.
        mpfci_cells = [row[1] for row in report.rows]
        naive_cells = [row[2] for row in report.rows]
        assert not mpfci_cells[0].startswith(">")
        assert all(cell.startswith(">") for cell in mpfci_cells[1:])
        assert not naive_cells[0].startswith(">")
        assert all(cell.startswith(">") for cell in naive_cells[1:])

    def test_fig6_truncates_per_variant(self):
        from repro.eval.experiments import experiment_fig6

        report = experiment_fig6(
            "mushroom", ExperimentScale.CI, budget_seconds=1e-9
        )
        for column in range(1, len(report.headers)):
            cells = [row[column] for row in report.rows]
            assert not cells[0].startswith(">")
            assert all(cell.startswith(">") for cell in cells[1:])

    def test_fig11_truncation_renders_placeholders(self):
        from repro.eval.experiments import experiment_fig11

        report = experiment_fig11(
            "epsilon", ExperimentScale.CI, values=[0.3, 0.05],
            budget_seconds=1e-9,
        )
        assert report.rows[0][1] != "-"     # first point always runs
        assert report.rows[1][1] == "-"     # truncated: no precision
        assert str(report.rows[1][3]).startswith(">")
