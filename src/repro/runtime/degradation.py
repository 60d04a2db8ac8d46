"""Degradation policies: when an exact closedness check falls back to sampling.

The miners' checking phase (:meth:`repro.core.miner.MPFCIMiner._check_inner`,
which the breadth-first :class:`repro.core.bfs.MPFCIBreadthFirstMiner`
inherits) computes ``Pr_FC`` exactly by inclusion–exclusion when an itemset
has few extension events.  A *degradation policy* decides, per
exact-eligible check, whether to abandon the exact path for the ApproxFCP
sampling estimator — the graceful-degradation seam of
``docs/robustness.md``.

A policy is a callable

    ``policy(config, stats, num_events) -> Optional[str]``

receiving the run's :class:`~repro.core.config.MinerConfig`, its live
:class:`~repro.core.stats.MiningStats` (for cumulative timings), and the
number of extension events of the itemset under check.  It returns ``None``
to run the exact check, or a short *trigger* string naming why it must
degrade — ``"budget"`` and ``"deadline"`` map onto the dedicated stats
counters; any other string counts as ``degraded_by_policy``.  Degraded
results are tagged ``provenance="approx-degraded"`` either way.

Policies are registered in :data:`repro.registry.DEGRADATION_POLICIES` and
selected by name through ``MinerConfig(degradation_policy=...)``:

* ``"budget-deadline"`` (default) — degrade when the worst-case
  inclusion–exclusion term count ``2^m − 1`` exceeds
  ``config.exact_check_budget``, or when the run's cumulative checking time
  has passed ``config.check_deadline_seconds``;
* ``"never"`` — always run the exact check (ignores budget and deadline);
* ``"always-approx"`` — degrade every exact-eligible check (pure-sampling
  ablation; results still satisfy the ApproxFCP ``(ε, δ)`` guarantee).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.config import MinerConfig
from ..core.stats import MiningStats
from ..registry import DEGRADATION_POLICIES

__all__ = [
    "DegradationPolicy",
    "always_approx_policy",
    "budget_deadline_policy",
    "never_degrade_policy",
]

DegradationPolicy = Callable[[MinerConfig, MiningStats, int], Optional[str]]


def budget_deadline_policy(
    config: MinerConfig, stats: MiningStats, num_events: int
) -> Optional[str]:
    """The default policy: per-check term budget plus per-run soft deadline.

    ``"budget"``: the worst-case inclusion–exclusion term count
    (``2^m - 1``) exceeds ``config.exact_check_budget``.  ``"deadline"``:
    the run's cumulative checking time (the ``check_phase_seconds``
    accumulated by every *previous* check) has passed
    ``config.check_deadline_seconds``.
    """
    if (
        config.exact_check_budget is not None
        and (1 << num_events) - 1 > config.exact_check_budget
    ):
        return "budget"
    if (
        config.check_deadline_seconds is not None
        and stats.check_phase_seconds > config.check_deadline_seconds
    ):
        return "deadline"
    return None


def never_degrade_policy(
    config: MinerConfig, stats: MiningStats, num_events: int
) -> Optional[str]:
    """Run every exact-eligible check exactly, whatever the budgets say."""
    return None


def always_approx_policy(
    config: MinerConfig, stats: MiningStats, num_events: int
) -> Optional[str]:
    """Degrade every exact-eligible check to sampling (ablation policy)."""
    return "policy"


DEGRADATION_POLICIES.register(
    "budget-deadline", budget_deadline_policy, deprecated_aliases=("default",)
)
DEGRADATION_POLICIES.register("never", never_degrade_policy)
DEGRADATION_POLICIES.register("always-approx", always_approx_policy)
