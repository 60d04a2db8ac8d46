"""Tests for the prolint static analyzer (repro.analysis).

Two layers: the fixture corpus under ``tests/analysis_fixtures/`` (every
``bad_*.py`` must fire exactly its rule, every ``good_*.py`` must stay
silent), and the clean-tree gate — ``repro-lint src/repro`` exits 0 on the
repository itself.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    RULES,
    Severity,
    analyze_paths,
    analyze_source,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.suppressions import parse_module_override, parse_suppressions

FIXTURE_ROOT = Path(__file__).parent / "analysis_fixtures"
SRC_REPRO = Path(__file__).resolve().parents[1] / "src" / "repro"

RULE_DIRECTORIES = {
    "PROB-RANGE": "prob_range",
    "FSUM-REDUCE": "fsum_reduce",
    "BACKEND-SEAL": "backend_seal",
    "CACHE-PURE": "cache_pure",
    "DETERMINISM": "determinism",
    "REGISTRY-SEAL": "registry_seal",
    "RUNTIME-PICKLE": "runtime_pickle",
}


def fixture_cases():
    for rule_name, directory in sorted(RULE_DIRECTORIES.items()):
        for path in sorted((FIXTURE_ROOT / directory).glob("*.py")):
            yield pytest.param(rule_name, path, id=f"{rule_name}:{path.name}")


class TestFixtureCorpus:
    def test_every_rule_has_fixture_coverage(self):
        assert set(RULE_DIRECTORIES) == set(RULES.names())
        for rule_name, directory in RULE_DIRECTORIES.items():
            names = [path.name for path in (FIXTURE_ROOT / directory).glob("*.py")]
            assert any(name.startswith("bad_") for name in names), rule_name
            assert any(name.startswith("good_") for name in names), rule_name

    @pytest.mark.parametrize("rule_name,path", list(fixture_cases()))
    def test_fixture(self, rule_name, path):
        report = analyze_paths([path], rule_names=[rule_name])
        active = report.active
        if path.name.startswith("bad_"):
            assert active, f"{rule_name} did not fire on {path.name}"
            assert {diagnostic.rule for diagnostic in active} == {rule_name}
            assert all(diagnostic.line > 0 for diagnostic in active)
        else:
            assert not active, [diagnostic.format() for diagnostic in active]


class TestCleanTreeGate:
    def test_repro_lint_over_src_repro_exits_zero(self):
        report = analyze_paths([SRC_REPRO])
        assert report.files_scanned > 50
        assert report.exit_code() == 0, "\n".join(
            diagnostic.format() for diagnostic in report.active
        )

    def test_known_suppressions_are_counted_not_hidden(self):
        # The tree carries a handful of justified suppressions (DP transitions
        # in core/support.py, prefix sums in core/approx.py); the report must
        # still surface them as suppressed diagnostics.
        report = analyze_paths([SRC_REPRO])
        assert len(report.suppressed) >= 4
        assert all(diagnostic.rule == "FSUM-REDUCE" for diagnostic in report.suppressed)


class TestSuppressions:
    def test_inline_suppression_silences_same_line(self):
        source = (
            "def f(probabilities):\n"
            "    return sum(probabilities)  # prolint: ignore[FSUM-REDUCE] why\n"
        )
        diagnostics = analyze_source(
            source, module="repro.core.fake", rule_names=["FSUM-REDUCE"]
        )
        assert len(diagnostics) == 1
        assert diagnostics[0].suppressed

    def test_standalone_suppression_covers_next_line(self):
        source = (
            "def f(probabilities):\n"
            "    # prolint: ignore[FSUM-REDUCE] justification\n"
            "    return sum(probabilities)\n"
        )
        diagnostics = analyze_source(
            source, module="repro.core.fake", rule_names=["FSUM-REDUCE"]
        )
        assert [diagnostic.suppressed for diagnostic in diagnostics] == [True]

    def test_unrelated_rule_name_does_not_suppress(self):
        source = (
            "def f(probabilities):\n"
            "    return sum(probabilities)  # prolint: ignore[DETERMINISM]\n"
        )
        diagnostics = analyze_source(
            source, module="repro.core.fake", rule_names=["FSUM-REDUCE"]
        )
        assert [diagnostic.suppressed for diagnostic in diagnostics] == [False]

    def test_parse_helpers(self):
        lines = (
            "x = 1  # prolint: ignore[A-RULE, B-RULE]",
            "# prolint: module=repro.core.fake",
        )
        suppressions = parse_suppressions(lines)
        assert suppressions[1] == frozenset({"A-RULE", "B-RULE"})
        assert parse_module_override(lines) == "repro.core.fake"


class TestReportShape:
    def test_report_matches_miningstats_layout(self):
        report = analyze_paths([FIXTURE_ROOT / "fsum_reduce"])
        payload = report.report()
        assert set(payload) == {"counters", "derived", "rules_run", "diagnostics"}
        assert set(payload["counters"]) == {
            "files_scanned", "diagnostics", "suppressed",
        }
        assert set(payload["derived"]) == {"by_rule", "by_severity"}
        assert payload["counters"]["diagnostics"] == len(report.active)
        json.dumps(payload)  # must be JSON-serializable as-is

    def test_severity_parse(self):
        assert Severity.parse("error") is Severity.ERROR
        with pytest.raises(ValueError):
            Severity.parse("fatal")

    def test_unknown_rule_selection_raises(self):
        with pytest.raises(ValueError):
            analyze_paths([FIXTURE_ROOT], rule_names=["NO-SUCH-RULE"])

    def test_rule_catalog_metadata(self):
        for name, rule_class in RULES.items():
            assert rule_class.description, name
            assert rule_class.invariant, name
            assert rule_class.severity is Severity.ERROR


class TestCli:
    def test_cli_clean_tree_exit_zero(self, capsys):
        code = lint_main([str(SRC_REPRO)])
        captured = capsys.readouterr()
        assert code == 0
        assert "prolint:" in captured.out

    def test_cli_bad_fixture_exit_one(self, capsys):
        bad = FIXTURE_ROOT / "determinism" / "bad_global_rng.py"
        code = lint_main([str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert "DETERMINISM" in captured.out

    def test_cli_json_output(self, capsys):
        bad = FIXTURE_ROOT / "fsum_reduce" / "bad_plain_sum.py"
        code = lint_main([str(bad), "--json", "--select", "FSUM-REDUCE"])
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert code == 1
        assert payload["counters"]["diagnostics"] == 1
        assert payload["derived"]["by_rule"]["FSUM-REDUCE"] == 1

    def test_cli_list_rules(self, capsys):
        code = lint_main(["--list-rules"])
        captured = capsys.readouterr()
        assert code == 0
        for name in RULES.names():
            assert name in captured.out

    def test_cli_module_entry_point(self):
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_REPRO.parent)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--list-rules"],
            capture_output=True,
            text=True,
            cwd=str(SRC_REPRO.parents[1]),
            env=env,
        )
        assert result.returncode == 0
        assert "FSUM-REDUCE" in result.stdout
