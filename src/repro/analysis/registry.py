"""Rule protocol and registry.

A rule is a class with ``name`` / ``severity`` / ``description`` /
``invariant`` class attributes and a :meth:`Rule.check` generator producing
:class:`Finding` records.  ``@register`` adds it to :data:`RULES`, a
:class:`repro.registry.Registry` the engine and CLI enumerate; its bootstrap
imports the rule modules on first lookup.  ``invariant`` states the
paper/repo contract the rule protects — it is surfaced by ``repro-lint
--list-rules`` and in ``docs/static_analysis.md``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, List, Type

from ..registry import Registry
from .context import ModuleContext
from .diagnostics import Severity


@dataclass(frozen=True)
class Finding:
    """A rule match before it is stamped into a :class:`Diagnostic`."""

    node: ast.AST
    message: str


class Rule:
    """Base class for analyzer rules."""

    name: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""
    invariant: str = ""

    def applies_to(self, context: ModuleContext) -> bool:
        """Path-based scoping hook; default is every module."""
        return True

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError


RULES: Registry[Type[Rule]] = Registry(
    "prolint rule", bootstrap="repro.analysis.rules"
)


def register(rule_class: Type[Rule]) -> Type[Rule]:
    RULES.register(rule_class.name, rule_class)
    return rule_class


def resolve_rules(names: List[str] | None = None) -> List[Rule]:
    """Instantiate the selected rules (all registered rules by default)."""
    if names is None:
        return [rule_class() for _, rule_class in RULES.items()]
    return [RULES.get(name.strip().upper())() for name in names]
