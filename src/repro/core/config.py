"""Miner configuration: thresholds, approximation knobs, pruning toggles.

One frozen dataclass carries every parameter of the MPFCI framework so the
experiment harness can sweep them declaratively.  The pruning toggles map
one-to-one onto the algorithm variants of Table VII:

===================  ==========================================
Variant              Construction
===================  ==========================================
MPFCI                ``MinerConfig(...)`` (all prunings on)
MPFCI-NoCH           ``use_chernoff_pruning=False``
MPFCI-NoSuper        ``use_superset_pruning=False``
MPFCI-NoSub          ``use_subset_pruning=False``
MPFCI-NoBound        ``use_probability_bounds=False``
===================  ==========================================

(The BFS framework is a separate entry point, :mod:`repro.core.bfs`, since
superset/subset pruning "won't show up in BFS's enumeration".)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Optional


@dataclass(frozen=True)
class MinerConfig:
    """Parameters of the MPFCI mining framework.

    Attributes:
        min_sup: absolute minimum support threshold (>= 1).
        pfct: probabilistic frequent closed threshold in [0, 1); an itemset
            is reported iff ``Pr_FC > pfct`` (Definition 3.8, strict).
        epsilon: relative tolerance of the ApproxFCP estimator.
        delta: failure probability of the ApproxFCP estimator (the paper's
            confidence degree is ``1 - delta``).
        seed: seed of the Monte-Carlo sampler; each sampled check draws
            from a stream derived from ``(seed, itemset)``
            (:func:`repro.core.approx.check_rng`).  Fixed by default so runs
            are reproducible; ``None`` draws fresh entropy.
        use_chernoff_pruning: Lemma 4.1 Chernoff–Hoeffding frequency filter.
        use_superset_pruning: Lemma 4.2.
        use_subset_pruning: Lemma 4.3.
        use_probability_bounds: Lemma 4.4 upper/lower Pr_FC bounds.
        exact_event_limit: when an itemset has at most this many extension
            events, Pr_FC is computed exactly by inclusion–exclusion instead
            of sampling (0 disables the exact path entirely — pure paper
            behaviour).  Exactness never changes *which* itemsets qualify in
            expectation, only the estimator variance.
        lower_bound: name of the union lower bound used in Lemma 4.4
            ("de_caen" or "dawson_sankoff"; ablation hook).
        upper_bound: name of the union upper bound ("kwerel" or "boole").
        max_itemset_size: optional cap on result itemset length; the miner
            stops extending at the cap (sound: discarded nodes could only
            produce longer-than-cap results).  ``None`` = unbounded.
        dp_cache_size: entry bound of the shared support-DP cache (LRU
            eviction beyond it).  Purely a memory/speed trade-off — cached
            and uncached runs return identical results.
        tidset_backend: tidset engine used by the miners ("bitmap" packs
            tidsets into ``numpy.uint64`` words with vectorized probability
            gathers; "tuple" is the original sorted-tuple engine, kept as
            the cross-check oracle).  Both produce identical results; see
            ``docs/performance.md``.
        exact_check_budget: per-itemset budget on the exact
            inclusion–exclusion check, counted in worst-case IE terms
            (``2^m - 1`` for ``m`` extension events).  When an itemset
            qualifies for the exact path but its term count exceeds the
            budget, the check degrades to the ApproxFCP sampling estimator
            and the result is tagged ``provenance="approx-degraded"``
            (see ``docs/robustness.md``).  ``None`` = never degrade.
        check_deadline_seconds: soft per-run deadline on cumulative checking
            time.  Once the run has spent this much wall-clock inside the
            checking phase, subsequent exact-eligible checks degrade to
            sampling the same way.  Non-deterministic by nature (it reads a
            monotonic clock); ``None`` = no deadline.
        degradation_policy: registered name of the policy deciding when an
            exact-eligible closedness check degrades to sampling
            (:data:`repro.registry.DEGRADATION_POLICIES`; the default
            ``"budget-deadline"`` applies the two knobs above, ``"never"``
            and ``"always-approx"`` are the ablation endpoints).

    The four component-name fields (``lower_bound``, ``upper_bound``,
    ``tidset_backend``, ``degradation_policy``) are validated against their
    :mod:`repro.registry` tables and normalized to canonical spelling at
    construction, so an unregistered name fails fast with the registry's
    did-you-mean error instead of deep inside a mining run.
    """

    min_sup: int
    pfct: float = 0.8
    epsilon: float = 0.1
    delta: float = 0.1
    seed: Optional[int] = 20120401
    use_chernoff_pruning: bool = True
    use_superset_pruning: bool = True
    use_subset_pruning: bool = True
    use_probability_bounds: bool = True
    exact_event_limit: int = 12
    lower_bound: str = "de_caen"
    upper_bound: str = "kwerel"
    max_itemset_size: Optional[int] = None
    dp_cache_size: int = 65536
    tidset_backend: str = "bitmap"
    exact_check_budget: Optional[int] = None
    check_deadline_seconds: Optional[float] = None
    degradation_policy: str = "budget-deadline"

    def __post_init__(self) -> None:
        if self.dp_cache_size < 1:
            raise ValueError(
                f"dp_cache_size must be >= 1, got {self.dp_cache_size}"
            )
        if self.max_itemset_size is not None and self.max_itemset_size < 1:
            raise ValueError("max_itemset_size must be >= 1 when set")
        if self.min_sup < 1:
            raise ValueError(f"min_sup must be >= 1, got {self.min_sup}")
        if not 0.0 <= self.pfct < 1.0:
            raise ValueError(f"pfct must be in [0, 1), got {self.pfct}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.exact_event_limit < 0:
            raise ValueError("exact_event_limit must be >= 0")
        # Component-name fields resolve against the registries; aliases
        # (including deprecated ones, which warn) normalize to canonical
        # names here so every downstream lookup is exact.
        from ..registry import (
            DEGRADATION_POLICIES,
            TIDSET_BACKENDS,
            UNION_LOWER_BOUNDS,
            UNION_UPPER_BOUNDS,
        )

        object.__setattr__(
            self, "lower_bound", UNION_LOWER_BOUNDS.canonicalize(self.lower_bound)
        )
        object.__setattr__(
            self, "upper_bound", UNION_UPPER_BOUNDS.canonicalize(self.upper_bound)
        )
        object.__setattr__(
            self,
            "tidset_backend",
            TIDSET_BACKENDS.canonicalize(self.tidset_backend),
        )
        object.__setattr__(
            self,
            "degradation_policy",
            DEGRADATION_POLICIES.canonicalize(self.degradation_policy),
        )
        if self.exact_check_budget is not None and self.exact_check_budget < 0:
            raise ValueError(
                f"exact_check_budget must be >= 0 when set, "
                f"got {self.exact_check_budget}"
            )
        if self.check_deadline_seconds is not None and not (
            self.check_deadline_seconds > 0.0
        ):
            raise ValueError(
                f"check_deadline_seconds must be > 0 when set, "
                f"got {self.check_deadline_seconds}"
            )

    @classmethod
    def with_relative_min_sup(
        cls, database_size: int, ratio: float, **kwargs: Any
    ) -> "MinerConfig":
        """Build a config from a relative support ratio, as the experiments do.

        The paper quotes ``min_sup`` as a fraction of the database size
        (e.g. 0.4 on Mushroom); this converts with ``ceil`` so the absolute
        threshold is never rounded below the requested fraction.
        """
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"relative min_sup must be in (0, 1], got {ratio}")
        return cls(min_sup=max(1, math.ceil(ratio * database_size)), **kwargs)

    def variant(self, **overrides: Any) -> "MinerConfig":
        """A copy with some fields replaced (Table VII variants)."""
        return replace(self, **overrides)

    def describe(self) -> str:
        """Short human-readable form used by the harness output."""
        disabled = [
            name
            for name, enabled in (
                ("CH", self.use_chernoff_pruning),
                ("Super", self.use_superset_pruning),
                ("Sub", self.use_subset_pruning),
                ("PB", self.use_probability_bounds),
            )
            if not enabled
        ]
        suffix = "" if not disabled else " -" + ",-".join(disabled)
        engine = "" if self.tidset_backend == "bitmap" else f" engine={self.tidset_backend}"
        return (
            f"min_sup={self.min_sup} pfct={self.pfct} "
            f"eps={self.epsilon} delta={self.delta}{suffix}{engine}"
        )
