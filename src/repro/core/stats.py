"""Per-run mining statistics: counters, DP-cache traffic, phase wall-clock.

The effectiveness experiments (Figs. 6–9) are about *how much work each
pruning rule saves*; these counters make that observable without profiling:
every pruning decision, bound evaluation, DP request, and Monte-Carlo sample
increments a field here.  The harness prints them next to wall-clock times
so the paper's qualitative claims ("bound pruning matters most, CH least")
can be verified structurally as well as by timing.

Accounting invariants (asserted in ``tests/test_mining_stats.py``):

* **node accounting** — every DFS node visited is either superset-pruned
  (Lemma 4.2), absorbed by subset pruning (Lemma 4.3, the node itself is
  known non-closed), or checked::

      nodes_visited == pruned_by_superset + subset_absorbed + checks_performed

  (for BFS, where the structural prunings cannot fire, ``nodes_visited ==
  checks_performed``);

* **check accounting** — every check ends in exactly one outcome::

      checks_performed == check_frequency_rejections
                        + skipped_certain_cooccurrence + trivial_results
                        + rejected_by_upper_bound + accepted_by_lower_bound
                        + fcp_exact_evaluations + fcp_sampled_evaluations

  (``fcp_exact_evaluations`` covers both tight Lemma 4.4 intervals —
  sub-counted in ``decided_by_tight_bounds`` — and the inclusion–exclusion
  path);

* **DP-cache accounting** — every ``Pr_F`` request either hits or misses::

      dp_cache_hits + dp_cache_misses == dp_requests

The class is exported as both ``MiningStats`` (current name) and
``MinerStatistics`` (the original seed name, kept as an alias).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict


@dataclass
class MiningStats:
    """Work counters, DP-cache traffic, and phase timings for one run."""

    # --- enumeration ---------------------------------------------------
    nodes_visited: int = 0
    candidates_generated: int = 0
    # --- pruning (Lemmas 4.1-4.3 plus the plain count filter) ----------
    pruned_by_count: int = 0
    pruned_by_chernoff: int = 0
    pruned_by_frequency: int = 0
    pruned_by_superset: int = 0
    pruned_by_subset: int = 0
    subset_absorbed: int = 0
    # --- checking (Lemma 4.4 bounds, exact IE, ApproxFCP) --------------
    checks_performed: int = 0
    check_frequency_rejections: int = 0
    skipped_certain_cooccurrence: int = 0
    trivial_results: int = 0
    bound_evaluations: int = 0
    accepted_by_lower_bound: int = 0
    rejected_by_upper_bound: int = 0
    decided_by_tight_bounds: int = 0
    fcp_exact_evaluations: int = 0
    fcp_sampled_evaluations: int = 0
    monte_carlo_samples: int = 0
    frequent_probability_evaluations: int = 0
    # --- graceful degradation (repro.runtime / MinerConfig budgets) -----
    degraded_checks: int = 0
    degraded_by_budget: int = 0
    degraded_by_deadline: int = 0
    degraded_by_policy: int = 0
    # --- tidset engine (repro.core.tidsets) -----------------------------
    tidset_intersections: int = 0
    tidset_words_anded: int = 0
    tidset_popcounts: int = 0
    tidset_gathers: int = 0
    # --- support-DP cache ----------------------------------------------
    dp_invocations: int = 0
    dp_batch_invocations: int = 0
    dp_cache_hits: int = 0
    dp_cache_misses: int = 0
    dp_cache_evictions: int = 0
    dp_tail_table_hits: int = 0
    dp_tail_table_misses: int = 0
    dp_tail_table_evictions: int = 0
    dp_generation_invalidations: int = 0
    dp_cross_generation_hits: int = 0
    # --- sliding-window streaming (repro.streaming.PFCIMonitor) --------
    slides_processed: int = 0
    branches_retained: int = 0
    branches_remined: int = 0
    branches_screened_out: int = 0
    # --- supervised parallel runtime (repro.runtime.supervisor) ---------
    branches_dispatched: int = 0
    branch_retries: int = 0
    branch_timeouts: int = 0
    branch_collateral_restarts: int = 0
    pool_rebuilds: int = 0
    branches_recovered_inline: int = 0
    branches_failed: int = 0
    branches_cancelled: int = 0
    checkpoint_branches_written: int = 0
    checkpoint_branches_skipped: int = 0
    # --- sharded runtime (repro.runtime.sharding) ------------------------
    shards_planned: int = 0
    shards_scanned: int = 0
    shards_lost: int = 0
    shard_retries: int = 0
    shard_timeouts: int = 0
    shards_recovered_inline: int = 0
    checkpoint_shards_written: int = 0
    checkpoint_shards_skipped: int = 0
    # --- results and wall-clock ----------------------------------------
    results_emitted: int = 0
    elapsed_seconds: float = 0.0
    candidate_phase_seconds: float = 0.0
    search_phase_seconds: float = 0.0
    check_phase_seconds: float = 0.0
    shard_scan_seconds: float = 0.0
    shard_merge_seconds: float = 0.0

    def merge(self, other: "MiningStats") -> None:
        """Accumulate another run's counters into this one.

        Used by the harness for batching and by the parallel driver to merge
        per-worker branch counters into the planner's totals.
        """
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def fcp_evaluations(self) -> int:
        """Total frequent-closed-probability computations (exact + sampled)."""
        return self.fcp_exact_evaluations + self.fcp_sampled_evaluations

    @property
    def total_pruned(self) -> int:
        return (
            self.pruned_by_count
            + self.pruned_by_chernoff
            + self.pruned_by_frequency
            + self.pruned_by_superset
            + self.pruned_by_subset
        )

    @property
    def dp_requests(self) -> int:
        """``Pr_F`` lookups against the support-DP cache (hits + misses)."""
        return self.dp_cache_hits + self.dp_cache_misses

    @property
    def dp_cache_hit_rate(self) -> float:
        """Fraction of ``Pr_F`` requests served from cache (0 when idle)."""
        requests = self.dp_requests
        return self.dp_cache_hits / requests if requests else 0.0

    @property
    def degraded_fraction(self) -> float:
        """Fraction of closedness checks that degraded to sampling (0 when idle).

        The per-run *degradation provenance* ratio: how much of this run's
        answer rests on the Karp–Luby estimator instead of exact
        inclusion–exclusion (see ``docs/robustness.md``).
        """
        return self.degraded_checks / self.checks_performed if self.checks_performed else 0.0

    @property
    def check_outcomes(self) -> int:
        """Sum over the mutually exclusive check outcomes.

        Equals ``checks_performed`` on any consistent run (the check
        accounting invariant).
        """
        return (
            self.check_frequency_rejections
            + self.skipped_certain_cooccurrence
            + self.trivial_results
            + self.rejected_by_upper_bound
            + self.accepted_by_lower_bound
            + self.fcp_exact_evaluations
            + self.fcp_sampled_evaluations
        )

    # ------------------------------------------------------------------
    # reporting API
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """Flat counter dict (one key per dataclass field)."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def snapshot(self) -> Dict[str, Any]:
        """Point-in-time JSON-safe copy of every counter, safe to take while
        another thread is still mutating this object.

        Counters are plain ints/floats mutated under the GIL, so each field
        read is atomic; the dict is a self-consistent-enough observation for
        live monitoring (a service polling a run in flight) and is exactly
        what :meth:`from_snapshot` reconstructs.  Unlike :meth:`report` it is
        flat and lossless — ``from_snapshot(stats.snapshot()) == stats``.
        """
        return self.as_dict()

    @classmethod
    def from_snapshot(cls, payload: Dict[str, Any]) -> "MiningStats":
        """Rebuild stats from :meth:`snapshot` output (or any superset).

        Unknown keys are ignored so snapshots written by a *newer* version
        (more counters) still load — the checkpoint format and the service
        job store both rely on this for forward compatibility.
        """
        known = cls.__dataclass_fields__
        return cls(**{name: value for name, value in payload.items() if name in known})

    def report(self) -> Dict[str, Any]:
        """Structured, JSON-ready report: counters, derived rates, phases.

        This is what the CLI's ``--stats`` flag emits and what the benchmark
        harness records into its ``BENCH_*.json`` ``extra_info``, so run
        trajectories stay comparable across PRs.
        """
        return {
            "counters": self.as_dict(),
            "derived": {
                "dp_requests": self.dp_requests,
                "dp_cache_hit_rate": round(self.dp_cache_hit_rate, 6),
                "fcp_evaluations": self.fcp_evaluations,
                "total_pruned": self.total_pruned,
                "check_outcomes": self.check_outcomes,
                "degraded_fraction": round(self.degraded_fraction, 6),
            },
            "runtime": {
                "branches_dispatched": self.branches_dispatched,
                "branch_retries": self.branch_retries,
                "branch_timeouts": self.branch_timeouts,
                "branch_collateral_restarts": self.branch_collateral_restarts,
                "pool_rebuilds": self.pool_rebuilds,
                "branches_recovered_inline": self.branches_recovered_inline,
                "branches_failed": self.branches_failed,
                "branches_cancelled": self.branches_cancelled,
                "checkpoint_branches_written": self.checkpoint_branches_written,
                "checkpoint_branches_skipped": self.checkpoint_branches_skipped,
                "degraded_checks": self.degraded_checks,
                "degraded_by_budget": self.degraded_by_budget,
                "degraded_by_deadline": self.degraded_by_deadline,
                "degraded_by_policy": self.degraded_by_policy,
                "shards_planned": self.shards_planned,
                "shards_scanned": self.shards_scanned,
                "shards_lost": self.shards_lost,
                "shard_retries": self.shard_retries,
                "shard_timeouts": self.shard_timeouts,
                "shards_recovered_inline": self.shards_recovered_inline,
                "checkpoint_shards_written": self.checkpoint_shards_written,
                "checkpoint_shards_skipped": self.checkpoint_shards_skipped,
            },
            "phases": {
                "candidate_seconds": self.candidate_phase_seconds,
                "search_seconds": self.search_phase_seconds,
                "check_seconds": self.check_phase_seconds,
                "shard_scan_seconds": self.shard_scan_seconds,
                "shard_merge_seconds": self.shard_merge_seconds,
                "total_seconds": self.elapsed_seconds,
            },
        }

    def summary(self) -> str:
        return (
            f"nodes={self.nodes_visited} results={self.results_emitted} "
            f"pruned(count={self.pruned_by_count}, ch={self.pruned_by_chernoff}, "
            f"freq={self.pruned_by_frequency}, super={self.pruned_by_superset}, "
            f"sub={self.pruned_by_subset}) "
            f"bounds(accept={self.accepted_by_lower_bound}, "
            f"reject={self.rejected_by_upper_bound}, "
            f"tight={self.decided_by_tight_bounds}) "
            f"fcp(exact={self.fcp_exact_evaluations}, "
            f"sampled={self.fcp_sampled_evaluations}, "
            f"samples={self.monte_carlo_samples}) "
            f"dp(requests={self.dp_requests}, "
            f"hit_rate={self.dp_cache_hit_rate:.2f}, "
            f"batched={self.dp_batch_invocations}) "
            f"engine(intersect={self.tidset_intersections}, "
            f"words={self.tidset_words_anded}, "
            f"popcount={self.tidset_popcounts}, "
            f"gather={self.tidset_gathers}) "
            f"time={self.elapsed_seconds:.3f}s"
        )


# The seed's class name; every historical import keeps working.
MinerStatistics = MiningStats

__all__ = ["MiningStats", "MinerStatistics"]
