"""``repro-lint`` — the prolint command-line front end.

Examples::

    repro-lint src/repro                 # human-readable diagnostics, exit 0/1
    repro-lint src/repro --json          # MiningStats-style JSON report
    repro-lint --list-rules              # rule catalog with invariants
    repro-lint src --select FSUM-REDUCE,PROB-RANGE
    repro-lint src --show-suppressed     # include silenced findings in output
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .diagnostics import Severity
from .engine import analyze_paths
from .registry import RULES


def _default_paths() -> List[str]:
    for candidate in ("src/repro", "repro"):
        if Path(candidate).is_dir():
            return [candidate]
    return ["."]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "prolint: probability-domain static analysis for the MPFCI "
            "reproduction (see docs/static_analysis.md)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule names to run (default: all)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable AnalysisReport.report() JSON",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog (name, severity, invariant) and exit",
    )
    parser.add_argument(
        "--show-suppressed", action="store_true",
        help="also print findings silenced by prolint: ignore comments",
    )
    parser.add_argument(
        "--fail-on", default="warning", metavar="SEVERITY",
        help="minimum severity that fails the run: advice|warning|error "
             "(default: warning)",
    )
    return parser


def _list_rules() -> int:
    for name, rule_class in RULES.items():
        print(f"{name}  [{rule_class.severity.name}]")
        print(f"    {rule_class.description}")
        if rule_class.invariant:
            print(f"    invariant: {rule_class.invariant}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    if options.list_rules:
        return _list_rules()
    try:
        fail_on = Severity.parse(options.fail_on)
    except ValueError as error:
        parser.error(str(error))
    rule_names = (
        [token for token in options.select.split(",") if token.strip()]
        if options.select
        else None
    )
    try:
        report = analyze_paths(options.paths or _default_paths(), rule_names)
    except ValueError as error:
        parser.error(str(error))
    if options.json:
        print(json.dumps(report.report(), indent=2, sort_keys=True))
    else:
        shown = report.diagnostics if options.show_suppressed else report.active
        for diagnostic in shown:
            print(diagnostic.format())
        print(report.summary())
    return report.exit_code(fail_on)


if __name__ == "__main__":
    sys.exit(main())
