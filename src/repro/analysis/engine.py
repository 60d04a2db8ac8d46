"""File collection, parsing, rule dispatch and suppression filtering."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from .context import ModuleContext, derive_module_name
from .diagnostics import AnalysisReport, Diagnostic, Severity
from .registry import Rule, resolve_rules
from .suppressions import is_suppressed, parse_module_override, parse_suppressions

_SKIP_DIRECTORIES = {"__pycache__", ".git", ".hypothesis", "build", "dist"}


def iter_python_files(paths: Iterable[str | Path]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    collected: List[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(
                candidate
                for candidate in path.rglob("*.py")
                if not _SKIP_DIRECTORIES.intersection(candidate.parts)
            )
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                collected.append(candidate)
    return collected


def analyze_source(
    source: str,
    path: str = "<string>",
    rule_names: Optional[List[str]] = None,
    module: Optional[str] = None,
) -> List[Diagnostic]:
    """Analyze one source string; the building block ``analyze_paths`` loops."""
    return _analyze(source, path, resolve_rules(rule_names), module)


def analyze_paths(
    paths: Sequence[str | Path],
    rule_names: Optional[List[str]] = None,
) -> AnalysisReport:
    """Run the (selected) rules over files/directories; the CLI entry point."""
    selected = resolve_rules(rule_names)
    report = AnalysisReport(rules_run=tuple(rule.name for rule in selected))
    for path in iter_python_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as error:
            report.diagnostics.append(
                Diagnostic(
                    path=str(path), line=1, column=0, rule="IO-ERROR",
                    severity=Severity.ERROR, message=str(error),
                )
            )
            continue
        report.files_scanned += 1
        report.diagnostics.extend(_analyze(source, str(path), selected, None))
    report.diagnostics.sort(key=Diagnostic.sort_key)
    return report


def _analyze(
    source: str,
    path: str,
    selected: List[Rule],
    module: Optional[str],
) -> List[Diagnostic]:
    source_lines = tuple(source.splitlines())
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [
            Diagnostic(
                path=path,
                line=error.lineno or 1,
                column=error.offset or 0,
                rule="PARSE-ERROR",
                severity=Severity.ERROR,
                message=error.msg or "syntax error",
            )
        ]
    if module is None:
        module = parse_module_override(source_lines)
    if module is None:
        module = derive_module_name(Path(path).parts)
    context = ModuleContext(
        path=path, module=module, tree=tree, source_lines=source_lines
    )
    suppressions = parse_suppressions(source_lines)
    diagnostics: List[Diagnostic] = []
    for rule in selected:
        if not rule.applies_to(context):
            continue
        for finding in rule.check(context):
            line = getattr(finding.node, "lineno", 1)
            column = getattr(finding.node, "col_offset", 0)
            diagnostics.append(
                Diagnostic(
                    path=path,
                    line=line,
                    column=column,
                    rule=rule.name,
                    severity=rule.severity,
                    message=finding.message,
                    suppressed=is_suppressed(suppressions, line, rule.name),
                )
            )
    return diagnostics
