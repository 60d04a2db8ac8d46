"""Pluggable component registries for the mining framework's extension seams.

The framework has four places where interchangeable implementations plug in,
and each is now resolved by *registered name* instead of a hardcoded
``if/elif`` ladder:

==========================  ============================================
Registry                    Built-ins (bootstrap module)
==========================  ============================================
:data:`TIDSET_BACKENDS`     ``"tuple"``, ``"bitmap"``
                            (:mod:`repro.core.tidsets`)
:data:`UNCERTAINTY_MODELS`  ``"tuple"``, ``"attribute"``
                            (:mod:`repro.uncertain.models`)
:data:`UNION_LOWER_BOUNDS`  ``"de_caen"``, ``"dawson_sankoff"``
                            (:mod:`repro.core.bounds`)
:data:`UNION_UPPER_BOUNDS`  ``"kwerel"``, ``"boole"``
                            (:mod:`repro.core.bounds`)
:data:`DEGRADATION_POLICIES``"budget-deadline"``, ``"never"``,
                            ``"always-approx"``
                            (:mod:`repro.runtime.degradation`)
:data:`SHARD_LOSS_POLICIES` ``"fail-strict"`` (alias ``"default"``),
                            ``"degrade-bounds"``
                            (:mod:`repro.runtime.sharding`)
==========================  ============================================

``MinerConfig`` validates (and canonicalizes) its component-name fields
against these tables, the CLI derives its ``choices`` from them, and the
conformance suite (``tests/conformance/``) parametrizes over them — so a
newly registered component is validated, selectable, and differential-tested
without touching any of those layers.  ``docs/extending.md`` walks through
registering a component.

Each registry names a *bootstrap* module that registers the built-ins when
first imported; the import happens lazily on first lookup, which is what
keeps ``repro.registry`` import-cycle-free (this package imports nothing
from the rest of ``repro``).

Component contracts
-------------------

* **tidset backend** — ``factory(database, bitmap_parts) -> engine`` where
  ``engine`` implements the tidset-algebra protocol of
  :mod:`repro.core.tidsets` (``item_tidset`` / ``intersect`` /
  ``probabilities`` / ``absent_factor`` / ``superset_covered`` …) and the
  result-parity contract: bit-identical mining output vs the ``"tuple"``
  oracle.
* **uncertainty model** — an :class:`repro.uncertain.models.UncertaintyModel`
  bundle (build/measure/enumerate-worlds/mine callables over the model's
  own database type).
* **union lower/upper bound method** — ``(singletons, events) -> float``
  bounding ``Pr(∪ C_i)`` from below/above (Lemma 4.4).
* **degradation policy** — ``(config, stats, num_events) -> Optional[str]``
  deciding whether an exact-eligible closedness check must degrade to the
  sampling estimator, and why (``"budget"`` / ``"deadline"`` / a policy
  reason).
* **shard-loss policy** — ``(shard, reason, surviving, lost) -> str``
  deciding what a sharded run does when a shard exhausts every recovery
  path: ``"fail"`` aborts the run (:class:`repro.runtime.sharding.ShardLossError`),
  ``"degrade"`` continues on the surviving shards and tags every result
  ``provenance="shard-degraded"`` with certified support/frequency bounds.
"""

from __future__ import annotations

from typing import Any, Callable

from .base import (
    DuplicateComponentError,
    Registry,
    RegistryError,
    UnknownComponentError,
)

__all__ = [
    "DEGRADATION_POLICIES",
    "DuplicateComponentError",
    "Registry",
    "RegistryError",
    "SHARD_LOSS_POLICIES",
    "TIDSET_BACKENDS",
    "UNCERTAINTY_MODELS",
    "UNION_LOWER_BOUNDS",
    "UNION_UPPER_BOUNDS",
    "UnknownComponentError",
]


def _require_callable(name: str, component: Any) -> None:
    if not callable(component):
        raise RegistryError(f"component {name!r} must be callable")


_MODEL_SURFACE = (
    "build",
    "items_of",
    "support_probabilities",
    "expected_support",
    "frequent_probability",
    "enumerate_worlds",
    "mine_frequent",
    "mine_expected",
)


def _require_model_surface(name: str, component: Any) -> None:
    missing = [
        attribute
        for attribute in _MODEL_SURFACE
        if not callable(getattr(component, attribute, None))
    ]
    if missing:
        raise RegistryError(
            f"uncertainty model {name!r} lacks callable "
            f"attribute(s): {', '.join(missing)}"
        )


_BoundMethod = Callable[..., float]

TIDSET_BACKENDS: Registry[Callable[..., Any]] = Registry(
    "tidset backend",
    bootstrap="repro.core.tidsets",
    validator=_require_callable,
)

UNCERTAINTY_MODELS: Registry[Any] = Registry(
    "uncertainty model",
    bootstrap="repro.uncertain.models",
    validator=_require_model_surface,
)

UNION_LOWER_BOUNDS: Registry[_BoundMethod] = Registry(
    "union lower bound method",
    bootstrap="repro.core.bounds",
    validator=_require_callable,
)

UNION_UPPER_BOUNDS: Registry[_BoundMethod] = Registry(
    "union upper bound method",
    bootstrap="repro.core.bounds",
    validator=_require_callable,
)

DEGRADATION_POLICIES: Registry[Callable[..., Any]] = Registry(
    "degradation policy",
    bootstrap="repro.runtime.degradation",
    validator=_require_callable,
)

SHARD_LOSS_POLICIES: Registry[Callable[..., Any]] = Registry(
    "shard-loss policy",
    bootstrap="repro.runtime.sharding",
    validator=_require_callable,
)
