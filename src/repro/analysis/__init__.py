"""prolint: probability-domain static analysis for the MPFCI reproduction.

An AST-based analyzer enforcing the invariants the correctness story rests
on — probabilities stay in [0, 1] (PROB-RANGE), probability reductions are
exactly rounded (FSUM-REDUCE), tidset representations stay backend-private
(BACKEND-SEAL), memoized DP kernels stay pure (CACHE-PURE), and all
randomness is seeded and injected (DETERMINISM).  See
``docs/static_analysis.md`` for the rule catalog and the
``# prolint: ignore[RULE]`` suppression syntax.

Entry points: the ``repro-lint`` console script, ``python -m
repro.analysis``, or :func:`analyze_paths` / :func:`analyze_source`.
"""

from .diagnostics import AnalysisReport, Diagnostic, Severity
from .engine import analyze_paths, analyze_source, iter_python_files
from .registry import RULES, Finding, Rule, register

__all__ = [
    "AnalysisReport",
    "Diagnostic",
    "Finding",
    "RULES",
    "Rule",
    "Severity",
    "analyze_paths",
    "analyze_source",
    "iter_python_files",
    "register",
]
