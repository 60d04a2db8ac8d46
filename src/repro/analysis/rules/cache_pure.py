"""CACHE-PURE — SupportDPCache-memoized functions must be pure.

``core/cache.SupportDPCache`` memoizes the support-DP kernels by ``(tidset,
probability tuple, min_sup)`` and *survives* ``rebind()`` across streaming
window generations (PR 2).  That is only sound when the memoized functions
are pure: same arguments, same result, no observable side effects.  A
memoized kernel that mutates its arguments corrupts the caller's data on
cache *misses* only; one that reads module-level mutable state returns
stale values once that state changes — both are unreproducible,
cache-size-dependent heisenbugs.

Flagged inside the known memoized kernel set (``_MEMOIZED_FUNCTIONS``):
``global``/``nonlocal`` statements, stores into parameters (subscript or
attribute), mutating method calls on parameters, and reads of module-level
mutable bindings.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from ..context import ModuleContext
from ..diagnostics import Severity
from ..registry import Finding, Rule, register

# The kernels SupportDPCache memoizes (core/cache.py); keep in sync with the
# cache implementation and docs/static_analysis.md.
_MEMOIZED_FUNCTIONS = {
    "frequent_probability",
    "frequent_probability_python",
    "frequent_probability_padded_batch",
    "tail_probability_table",
    "support_pmf",
}

_MUTATING_METHODS = {
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse", "add", "discard", "update", "setdefault", "popitem", "fill",
}


def _parameter_names(function: ast.FunctionDef | ast.AsyncFunctionDef) -> Set[str]:
    arguments = function.args
    names = {
        arg.arg
        for arg in (
            *arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
        )
    }
    if arguments.vararg is not None:
        names.add(arguments.vararg.arg)
    if arguments.kwarg is not None:
        names.add(arguments.kwarg.arg)
    return names


def _root_name(node: ast.expr) -> str | None:
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    if isinstance(current, ast.Name):
        return current.id
    return None


@register
class CachePureRule(Rule):
    name = "CACHE-PURE"
    severity = Severity.ERROR
    description = (
        "SupportDPCache-memoized kernel mutates its arguments or touches "
        "module-level mutable state"
    )
    invariant = (
        "memoized support-DP kernels are pure functions of (probabilities, "
        "min_sup); the cache survives rebind() across window generations "
        "only under that contract"
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        mutable_globals = set(context.module_level_mutables())
        for node in ast.walk(context.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in _MEMOIZED_FUNCTIONS:
                continue
            yield from self._check_function(node, mutable_globals)

    def _check_function(
        self,
        function: ast.FunctionDef | ast.AsyncFunctionDef,
        mutable_globals: Set[str],
    ) -> Iterator[Finding]:
        parameters = _parameter_names(function)
        rebound: Set[str] = set()
        for node in ast.walk(function):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                yield Finding(
                    node,
                    f"memoized kernel {function.name!r} declares "
                    f"{'global' if isinstance(node, ast.Global) else 'nonlocal'} "
                    f"state; memoization requires purity",
                )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        rebound.add(target.id)
                    else:
                        yield from self._check_store(function, target, parameters, rebound)
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, ast.Name):
                    rebound.add(node.target.id)
                else:
                    yield from self._check_store(function, node.target, parameters, rebound)
            elif isinstance(node, ast.Call):
                yield from self._check_mutating_call(function, node, parameters, rebound)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in mutable_globals and node.id not in rebound:
                    yield Finding(
                        node,
                        f"memoized kernel {function.name!r} reads module-level "
                        f"mutable {node.id!r}; results would depend on hidden "
                        f"state the cache key cannot see",
                    )

    def _check_store(
        self,
        function: ast.FunctionDef | ast.AsyncFunctionDef,
        target: ast.expr,
        parameters: Set[str],
        rebound: Set[str],
    ) -> Iterator[Finding]:
        root = _root_name(target)
        if root in parameters and root not in rebound:
            yield Finding(
                target,
                f"memoized kernel {function.name!r} stores into parameter "
                f"{root!r}; callers (and the cache) hand in shared data",
            )

    def _check_mutating_call(
        self,
        function: ast.FunctionDef | ast.AsyncFunctionDef,
        node: ast.Call,
        parameters: Set[str],
        rebound: Set[str],
    ) -> Iterator[Finding]:
        if not isinstance(node.func, ast.Attribute):
            return
        if node.func.attr not in _MUTATING_METHODS:
            return
        root = _root_name(node.func.value)
        if root in parameters and root not in rebound:
            yield Finding(
                node,
                f"memoized kernel {function.name!r} calls "
                f"{root}.{node.func.attr}(...), mutating a parameter",
            )
