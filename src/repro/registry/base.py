"""The generic name-keyed component registry.

:class:`Registry` is one reusable primitive for every name-keyed table in
the package — the engine's extension seams in :mod:`repro.registry` and the
prolint rule table (:mod:`repro.analysis.registry`): a mapping from
*component names* to components with

* **validated registration** — empty names, duplicate names, and components
  rejected by the registry's ``validator`` raise at registration time, not
  at first use;
* **aliases and deprecation** — a component may be reachable under
  alternative names; resolving a *deprecated* alias emits a
  :class:`DeprecationWarning` naming the canonical spelling;
* **did-you-mean lookups** — resolving an unknown name raises
  :class:`UnknownComponentError` (a :class:`ValueError`) listing the
  registered names and, when close enough, a suggestion;
* **lazy bootstrap** — a registry may name the module whose import
  registers the built-in components.  The module is imported on the first
  ``get``/``names``/``contains`` call, so modules can *use* a registry for
  validation without importing the heavyweight implementations up front
  (and without import cycles: ``repro.registry`` itself imports nothing
  from the rest of the package).

Every error type subclasses :class:`RegistryError`, itself a
:class:`ValueError`, so existing ``pytest.raises(ValueError)`` call sites
and ``except ValueError`` handlers keep working unchanged.
"""

from __future__ import annotations

import difflib
import importlib
import threading
import warnings
from typing import (
    Callable,
    Dict,
    Generic,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

__all__ = [
    "DuplicateComponentError",
    "Registry",
    "RegistryError",
    "UnknownComponentError",
]

T = TypeVar("T")


class RegistryError(ValueError):
    """Base class for registry failures (a :class:`ValueError`)."""


class DuplicateComponentError(RegistryError):
    """A name (or alias) is already taken by another component."""


class UnknownComponentError(RegistryError):
    """A lookup named no registered component.

    The message lists the registered names and appends a did-you-mean
    suggestion when an existing name is close to the requested one.
    """


class Registry(Generic[T]):
    """A name-keyed table of interchangeable components of one *kind*.

    Args:
        kind: human phrase naming what the registry holds (``"tidset
            backend"``, ``"degradation policy"``); every error message
            leads with it.
        bootstrap: dotted module path whose import registers the built-in
            components; imported lazily on first lookup.
        validator: optional ``(name, component) -> None`` hook run at
            registration; raise :class:`RegistryError` to reject a
            component that does not satisfy the kind's contract.
    """

    def __init__(
        self,
        kind: str,
        *,
        bootstrap: Optional[str] = None,
        validator: Optional[Callable[[str, T], None]] = None,
    ) -> None:
        self._kind = kind
        self._bootstrap = bootstrap
        self._validator = validator
        self._components: Dict[str, T] = {}
        # alias -> (canonical name, deprecated?)
        self._aliases: Dict[str, Tuple[str, bool]] = {}
        self._bootstrapped = bootstrap is None
        self._lock = threading.RLock()

    @property
    def kind(self) -> str:
        return self._kind

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        component: Optional[T] = None,
        *,
        aliases: Sequence[str] = (),
        deprecated_aliases: Sequence[str] = (),
    ) -> T | Callable[[T], T]:
        """Register ``component`` under ``name`` (plus any aliases).

        Usable directly (``registry.register("x", thing)``) or as a
        decorator (``@registry.register("x")``).  Raises
        :class:`DuplicateComponentError` when any of the names is taken and
        :class:`RegistryError` when the name is empty or the validator
        rejects the component.
        """
        if component is None:

            def decorator(actual: T) -> T:
                self.register(
                    name,
                    actual,
                    aliases=aliases,
                    deprecated_aliases=deprecated_aliases,
                )
                return actual

            return decorator

        with self._lock:
            if not name or not name.strip():
                raise RegistryError(f"{self._kind} name must be non-empty")
            for candidate in (name, *aliases, *deprecated_aliases):
                if candidate in self._components or candidate in self._aliases:
                    raise DuplicateComponentError(
                        f"duplicate {self._kind} name {candidate!r}"
                    )
            if self._validator is not None:
                self._validator(name, component)
            self._components[name] = component
            for alias in aliases:
                self._aliases[alias] = (name, False)
            for alias in deprecated_aliases:
                self._aliases[alias] = (name, True)
        return component

    def unregister(self, name: str) -> None:
        """Remove a component and every alias pointing at it (test hook)."""
        with self._lock:
            canonical = self._canonical_or_none(name)
            if canonical is None:
                raise self._unknown(name)
            del self._components[canonical]
            self._aliases = {
                alias: target
                for alias, target in self._aliases.items()
                if target[0] != canonical
            }

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def get(self, name: str) -> T:
        """The component registered under ``name`` (aliases resolve).

        Raises :class:`UnknownComponentError` for unregistered names;
        resolving a deprecated alias warns with the canonical spelling.
        """
        return self._components[self.canonicalize(name)]

    def canonicalize(self, name: str) -> str:
        """Resolve ``name`` to its canonical registered spelling.

        Validates without fetching: :class:`MinerConfig`-style call sites
        normalize their fields through this so downstream lookups never see
        aliases.  Deprecated aliases emit a :class:`DeprecationWarning`.
        """
        self._ensure_bootstrapped()
        with self._lock:
            canonical = self._canonical_or_none(name)
            if canonical is None:
                raise self._unknown(name)
            aliased = self._aliases.get(name)
        if aliased is not None and aliased[1]:
            warnings.warn(
                f"{self._kind} name {name!r} is deprecated; "
                f"use {aliased[0]!r} instead",
                DeprecationWarning,
                stacklevel=3,
            )
        return canonical

    def names(self) -> List[str]:
        """Sorted canonical names (aliases excluded)."""
        self._ensure_bootstrapped()
        with self._lock:
            return sorted(self._components)

    def aliases(self) -> Dict[str, str]:
        """``{alias: canonical name}`` for every registered alias."""
        self._ensure_bootstrapped()
        with self._lock:
            return {alias: target for alias, (target, _) in self._aliases.items()}

    def items(self) -> List[Tuple[str, T]]:
        """``(name, component)`` pairs in canonical name order."""
        self._ensure_bootstrapped()
        with self._lock:
            return [(name, self._components[name]) for name in sorted(self._components)]

    def __contains__(self, name: object) -> bool:
        self._ensure_bootstrapped()
        with self._lock:
            return name in self._components or name in self._aliases

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self.names())

    def __repr__(self) -> str:
        return f"Registry(kind={self._kind!r}, names={self.names()!r})"

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _canonical_or_none(self, name: str) -> Optional[str]:
        if name in self._components:
            return name
        aliased = self._aliases.get(name)
        return aliased[0] if aliased is not None else None

    def _unknown(self, name: str) -> UnknownComponentError:
        known = sorted(self._components)
        message = (
            f"unknown {self._kind} {name!r} "
            f"(registered: {', '.join(known) if known else 'none'})"
        )
        suggestions = difflib.get_close_matches(
            name, known + sorted(self._aliases), n=1, cutoff=0.6
        )
        if suggestions:
            message += f" — did you mean {suggestions[0]!r}?"
        return UnknownComponentError(message)

    def _ensure_bootstrapped(self) -> None:
        if self._bootstrapped:
            return
        with self._lock:
            if self._bootstrapped:
                return
            # Flip the flag before importing: the bootstrap module's own
            # ``register`` calls (and any lookups it performs afterwards)
            # must not re-enter the import.
            self._bootstrapped = True
            module = self._bootstrap
            assert module is not None
            importlib.import_module(module)
