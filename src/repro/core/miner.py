"""MPFCI — the depth-first probabilistic frequent closed itemset miner.

This is the paper's ProbFC algorithm (Fig. 3) inside the
Bounding–Pruning–Checking framework (Fig. 1):

1. **Candidate items** — items whose co-occurrence count reaches ``min_sup``
   and that survive the Chernoff–Hoeffding filter (Lemma 4.1) and the exact
   frequency check ``Pr_F > pfct`` (both sound because
   ``Pr_FC ≤ Pr_F`` and ``Pr_F`` is anti-monotone under extension).
2. **Depth-first enumeration** over the prefix tree in item order, with

   * *superset pruning* (Lemma 4.2): if some item ``e`` outside ``X`` and
     smaller than ``X``'s last item satisfies ``count(X+e) = count(X)``,
     then ``X`` and every prefix-extension of ``X`` are non-closed in all
     worlds — the subtree is abandoned;
   * *count and frequency pruning* on each extension;
   * *subset pruning* (Lemma 4.3): if ``count(X+e_j) = count(X)``, ``X`` is
     non-closed everywhere; the miner recurses into ``X+e_j`` and skips the
     remaining same-level extensions (their closures all contain ``e_j``).

3. **Checking** each surviving node, children first: the Lemma 4.4 interval
   rejects (upper ≤ pfct) or accepts (lower > pfct) without computing
   ``Pr_FC``; otherwise ``Pr_FC`` is computed exactly (inclusion–exclusion)
   when few events remain, or estimated by ApproxFCP.

Every pruning rule is toggleable through :class:`~repro.core.config.MinerConfig`,
which is how the Table VII variants (MPFCI-NoCH/NoSuper/NoSub/NoBound) are
expressed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..registry import DEGRADATION_POLICIES
from .approx import approx_union_probability, check_rng
from .bounds import (
    chernoff_hoeffding_bound_for_tidset,
    frequent_closed_probability_bounds,
)
from .cache import SupportDPCache
from .config import MinerConfig
from .database import Tidset, UncertainDatabase
from .events import ExtensionEventSystem
from .itemsets import Item, Itemset
from .stats import MiningStats

__all__ = ["ProbabilisticFrequentClosedItemset", "MPFCIMiner", "mine_pfci"]


@dataclass(frozen=True)
class ProbabilisticFrequentClosedItemset:
    """One mining result.

    Attributes:
        itemset: the canonical itemset.
        probability: point value (or estimate) of ``Pr_FC``.
        lower / upper: certified interval when the bound pruning decided the
            itemset (equal to ``probability`` when computed exactly).
        method: how the probability was obtained — ``"exact"``
            (inclusion–exclusion), ``"sampled"`` (ApproxFCP), ``"bound"``
            (accepted by Lemma 4.4's lower bound alone) or ``"trivial"``
            (no extension events, so ``Pr_FC = Pr_F``).
        frequent_probability: ``Pr_F`` of the itemset (always exact).
        provenance: ``"exact"`` when the result was produced at the
            configured fidelity, ``"approx-degraded"`` when the exact
            inclusion–exclusion check was abandoned for the sampling
            estimator because a :class:`~repro.core.config.MinerConfig`
            check budget/deadline was exceeded (``method`` still records
            which estimator ran; see ``docs/robustness.md``), or
            ``"shard-degraded"`` when a sharded run lost one or more shards
            under the ``degrade-bounds`` loss policy and the result is a
            bound computed from the surviving shards only.
        frequency_bounds: certified ``[lower, upper]`` interval on ``Pr_F``
            under shard loss; only set with ``"shard-degraded"``
            provenance, where ``frequent_probability`` holds the surviving
            rows' value (the lower end before its rounding margin).
        support_bounds: certified ``[lower, upper]`` interval on the
            itemset's *expected support* under shard loss; only set with
            ``"shard-degraded"`` provenance (each lost shard can contribute
            at most its transaction count).
    """

    itemset: Itemset
    probability: float
    lower: float
    upper: float
    method: str
    frequent_probability: float
    provenance: str = "exact"
    frequency_bounds: Optional[Tuple[float, float]] = None
    support_bounds: Optional[Tuple[float, float]] = None

    def __str__(self) -> str:
        return f"{{{', '.join(map(str, self.itemset))}}}: {self.probability:.4f}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly form (items stringified), used by the CLI and harness."""
        payload = {
            "itemset": [str(item) for item in self.itemset],
            "probability": self.probability,
            "lower": self.lower,
            "upper": self.upper,
            "method": self.method,
            "frequent_probability": self.frequent_probability,
            "provenance": self.provenance,
        }
        if self.frequency_bounds is not None:
            payload["frequency_bounds"] = list(self.frequency_bounds)
        if self.support_bounds is not None:
            payload["support_bounds"] = list(self.support_bounds)
        return payload


class MPFCIMiner:
    """Depth-first MPFCI miner over an uncertain database.

    Typical use::

        miner = MPFCIMiner(database, MinerConfig(min_sup=2, pfct=0.8))
        results = miner.mine()

    The miner is single-use per call but stateless between calls: ``mine()``
    may be invoked repeatedly and resets its statistics each time.
    """

    def __init__(
        self,
        database: UncertainDatabase,
        config: MinerConfig,
        support_cache: Optional[SupportDPCache] = None,
    ) -> None:
        self.database = database
        self.config = config
        self.stats = MiningStats()
        # The tidset engine is cached per backend on the database, so every
        # miner over the same database shares one packed representation.
        self._engine = database.tidset_engine(config.tidset_backend)
        self._degradation_policy: Callable[
            [MinerConfig, MiningStats, int], Optional[str]
        ] = DEGRADATION_POLICIES.get(config.degradation_policy)
        if support_cache is not None:
            # An externally owned cache (the streaming monitor's, which
            # persists across window slides) must already be bound to this
            # exact database and threshold — stale position keys would
            # silently corrupt every DP lookup.
            if support_cache.database is not database:
                raise ValueError(
                    "support_cache is bound to a different database; "
                    "call rebind() before handing it to a miner"
                )
            if support_cache.min_sup != config.min_sup:
                raise ValueError(
                    f"support_cache min_sup={support_cache.min_sup} does not "
                    f"match config min_sup={config.min_sup}"
                )
            support_cache.adopt_engine(self._engine)
        self._external_cache = support_cache is not None
        self._cache: SupportDPCache = (
            support_cache if support_cache is not None else self._new_cache()
        )
        self._item_tidsets: Dict[Item, Tidset] = {
            item: self._engine.item_tidset(item) for item in self._engine.items
        }

    def _new_cache(self) -> SupportDPCache:
        return SupportDPCache(
            self.database, self.config.min_sup,
            max_entries=self.config.dp_cache_size,
            engine=self._engine,
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def mine(self) -> List[ProbabilisticFrequentClosedItemset]:
        """Run the full algorithm and return results sorted by itemset."""
        started = time.perf_counter()
        self._reset_run()
        results: List[ProbabilisticFrequentClosedItemset] = []

        candidates = self.candidate_items()
        before = self._work_counters()
        for position, item in enumerate(candidates):
            self._dfs(
                itemset=(item,),
                tidset=self._item_tidsets[item],
                extensions=candidates[position + 1 :],
                results=results,
            )
        return self._finish_run(results, started, before)

    def mine_branch(
        self, item: Item, extensions: Sequence[Item]
    ) -> List[ProbabilisticFrequentClosedItemset]:
        """Mine the subtree rooted at ``(item,)`` — one root branch.

        The DFS enumeration partitions cleanly at the root (each branch only
        reads its own itemsets plus global tidsets), so this is the public
        entry point branch-parallel drivers use: ``extensions`` is the tail
        of :meth:`candidate_items` after ``item``, exactly what
        :meth:`mine` passes into the subtree.

        Unlike :meth:`mine`, statistics are *not* reset — repeated branch
        calls on one miner accumulate into ``self.stats``, and the shared
        support-DP cache persists across branches.  Results are returned
        sorted the same way :meth:`mine` sorts.
        """
        started = time.perf_counter()
        before = self._work_counters()
        results: List[ProbabilisticFrequentClosedItemset] = []
        self._dfs(
            itemset=(item,),
            tidset=self._item_tidsets[item],
            extensions=list(extensions),
            results=results,
        )
        return self._finish_run(results, started, before)

    def _reset_run(self) -> None:
        """Fresh statistics and support-DP cache for a run."""
        self.stats = MiningStats()
        if self._external_cache:
            self._cache.clear()
        else:
            self._cache = self._new_cache()

    def _finish_run(
        self,
        results: List[ProbabilisticFrequentClosedItemset],
        started: float,
        before: Dict[str, int],
    ) -> List[ProbabilisticFrequentClosedItemset]:
        """Sort ``results`` and add this call's totals to ``self.stats``.

        Counts and wall-clock accumulate, so a run of :meth:`mine_branch`
        calls sums its branches; after :meth:`_reset_run` they are this
        call's own.  The search phase is whatever time is not candidate or
        check time.
        """
        results.sort(key=lambda result: (len(result.itemset), result.itemset))
        self.stats.results_emitted += len(results)
        self.stats.elapsed_seconds += time.perf_counter() - started
        self.stats.search_phase_seconds = max(
            0.0,
            self.stats.elapsed_seconds
            - self.stats.candidate_phase_seconds
            - self.stats.check_phase_seconds,
        )
        self._apply_counter_delta(before)
        return results

    def _work_counters(self) -> Dict[str, int]:
        """The engine's and the support-DP cache's running totals."""
        return {**self._engine.counters(), **self._cache.counters()}

    def _apply_counter_delta(self, before: Dict[str, int]) -> None:
        """Add the engine and cache work since ``before`` to the stats.

        The engine is shared per database and a cache can outlive the miner
        (the streaming monitor's), so their counters are monotonic totals;
        each call records only its own delta.
        """
        for name, value in self._work_counters().items():
            setattr(self.stats, name, getattr(self.stats, name) + value - before[name])

    # ------------------------------------------------------------------
    # phase 1: single-item candidates
    # ------------------------------------------------------------------
    def candidate_items(self, items: Optional[Iterable[Item]] = None) -> List[Item]:
        """Phase 1: the items that survive the frequency filters, in item order.

        The root branches of the DFS are exactly these items, which is how
        the supervised runtime plans its branch split
        (:func:`repro.runtime.supervisor.plan_root_branches`).  ``items``
        screens only that subset of the database's items (the streaming
        monitor passes the items a slide touched); the decision for each
        item is the one the full screen makes.  The call counts its own
        time (``candidate_phase_seconds``), the cache counters and the
        tidset engine's work into ``self.stats``.
        """
        started = time.perf_counter()
        before = self._work_counters()
        screened: Sequence[Item] = self._engine.items
        if items is None:
            if self._engine.vectorized and len(screened) > 1:
                self._seed_extensions(
                    self._engine.universe(),
                    [self._item_tidsets[item] for item in screened],
                )
        else:
            # A subset is a slide's few touched items: their DPs run one by
            # one, because the padded batch's per-column cost outweighs a
            # handful of serial DPs.
            subset = set(items)
            screened = [item for item in screened if item in subset]
        candidates: List[Item] = []
        for item in screened:
            tidset = self._item_tidsets[item]
            if not self._passes_frequency_pruning(tidset):
                continue
            candidates.append(item)
        self.stats.candidate_phase_seconds += time.perf_counter() - started
        self._apply_counter_delta(before)
        return candidates

    def _passes_frequency_pruning(self, tidset: Tidset) -> bool:
        """Count, Chernoff–Hoeffding, and exact ``Pr_F`` filters, in cost order.

        Sound for subtree pruning because each filter upper-bounds ``Pr_F``
        and ``Pr_F`` only decreases for supersets.
        """
        config = self.config
        if len(tidset) < config.min_sup:
            self.stats.pruned_by_count += 1
            return False
        if config.use_chernoff_pruning:
            bound = chernoff_hoeffding_bound_for_tidset(
                self._cache, len(self.database), tidset
            )
            if bound <= config.pfct:
                self.stats.pruned_by_chernoff += 1
                return False
        self.stats.frequent_probability_evaluations += 1
        if self._cache.frequent_probability_of_tidset(tidset) <= config.pfct:
            self.stats.pruned_by_frequency += 1
            return False
        return True

    # ------------------------------------------------------------------
    # phase 2: depth-first enumeration
    # ------------------------------------------------------------------
    def _dfs(
        self,
        itemset: Itemset,
        tidset: Tidset,
        extensions: Sequence[Item],
        results: List[ProbabilisticFrequentClosedItemset],
    ) -> None:
        self.stats.nodes_visited += 1

        if self.config.use_superset_pruning and self._superset_pruned(itemset, tidset):
            self.stats.pruned_by_superset += 1
            return

        itemset_marked_non_closed = False
        max_size = self.config.max_itemset_size
        remaining = (
            [] if max_size is not None and len(itemset) >= max_size
            else list(extensions)
        )
        prepared = None
        if self._engine.vectorized and len(remaining) > 1:
            # One matrix AND yields every same-level extension tidset that
            # reaches min_sup (None for the rest); the survivors' Pr_F
            # values are then seeded as one batched DP.
            prepared = self._engine.intersect_many(
                tidset,
                [self._item_tidsets[item] for item in remaining],
                self.config.min_sup,
            )
            self._seed_extensions(
                tidset, [extended for extended in prepared if extended is not None]
            )
        position = 0
        while position < len(remaining):
            item = remaining[position]
            extended_tidset = (
                prepared[position]
                if prepared is not None
                else self._engine.intersect(tidset, self._item_tidsets[item])
            )
            position += 1
            self.stats.candidates_generated += 1
            if extended_tidset is None:
                self.stats.pruned_by_count += 1
                continue
            if not self._passes_frequency_pruning(extended_tidset):
                continue
            subset_prune_fires = (
                self.config.use_subset_pruning
                and len(extended_tidset) == len(tidset)
            )
            self._dfs(
                itemset=itemset + (item,),
                tidset=extended_tidset,
                extensions=remaining[position:],
                results=results,
            )
            if subset_prune_fires:
                # Lemma 4.3: X is non-closed in every world, and every
                # remaining same-level extension's closure contains `item`,
                # so those branches are redundant.
                itemset_marked_non_closed = True
                self.stats.pruned_by_subset += len(remaining) - position
                break

        if itemset_marked_non_closed:
            self.stats.subset_absorbed += 1
        else:
            self._check(itemset, tidset, results)

    def _seed_extensions(self, base: Tidset, candidates: Sequence[Tidset]) -> None:
        """Batch the surviving extensions' ``Pr_F`` DPs into one padded run.

        Applies the same zero-cost screens ``_passes_frequency_pruning`` will
        apply (count, then the Chernoff–Hoeffding bound when enabled) so the
        batched DP only covers tidsets whose exact ``Pr_F`` is actually
        needed — without touching the pruning statistics, which the real
        per-candidate pass still owns.
        """
        config = self.config
        survivors: List[Tidset] = []
        for extended in candidates:
            if len(extended) < config.min_sup:
                continue
            if config.use_chernoff_pruning:
                bound = chernoff_hoeffding_bound_for_tidset(
                    self._cache, len(self.database), extended
                )
                if bound <= config.pfct:
                    continue
            survivors.append(extended)
        if len(survivors) > 1:
            self._cache.seed_frequent_probabilities(base, survivors)

    def _superset_pruned(self, itemset: Itemset, tidset: Tidset) -> bool:
        """Lemma 4.2: an item before the branch item co-occurs in every world."""
        return self._engine.superset_covered(itemset, tidset)

    # ------------------------------------------------------------------
    # phase 3: checking (bounds, exact inclusion–exclusion, ApproxFCP)
    # ------------------------------------------------------------------
    def _check(
        self,
        itemset: Itemset,
        tidset: Tidset,
        results: List[ProbabilisticFrequentClosedItemset],
    ) -> None:
        started = time.perf_counter()
        try:
            self.stats.checks_performed += 1
            self._check_inner(itemset, tidset, results)
        finally:
            self.stats.check_phase_seconds += time.perf_counter() - started

    def _check_inner(
        self,
        itemset: Itemset,
        tidset: Tidset,
        results: List[ProbabilisticFrequentClosedItemset],
    ) -> None:
        config = self.config
        frequent = self._cache.frequent_probability_of_tidset(tidset)
        if frequent <= config.pfct:
            self.stats.check_frequency_rejections += 1
            return

        events = ExtensionEventSystem(
            self.database,
            itemset,
            config.min_sup,
            base_tidset=tidset,
            support_cache=self._cache,
        )
        if events.has_certain_cooccurrence():
            # Some superset co-occurs in every world: Pr_FC(X) = 0.
            self.stats.skipped_certain_cooccurrence += 1
            return
        if not events.events:
            # No superset can ever tie the support: Pr_FC(X) = Pr_F(X).
            self.stats.trivial_results += 1
            self._emit(
                results, itemset, frequent, frequent, frequent, "trivial", frequent
            )
            return

        if config.use_probability_bounds:
            self.stats.bound_evaluations += 1
            bounds = frequent_closed_probability_bounds(
                frequent,
                events,
                lower_method=config.lower_bound,
                upper_method=config.upper_bound,
            )
            if bounds.upper <= config.pfct:
                self.stats.rejected_by_upper_bound += 1
                return
            if bounds.is_tight:
                method = "exact" if bounds.upper == bounds.lower else "bound"
                self.stats.fcp_exact_evaluations += 1
                self.stats.decided_by_tight_bounds += 1
                self._emit(
                    results,
                    itemset,
                    bounds.midpoint,
                    bounds.lower,
                    bounds.upper,
                    method,
                    frequent,
                )
                return
            if bounds.lower > config.pfct:
                self.stats.accepted_by_lower_bound += 1
                self._emit(
                    results,
                    itemset,
                    bounds.midpoint,
                    bounds.lower,
                    bounds.upper,
                    "bound",
                    frequent,
                )
                return

        provenance = "exact"
        if len(events.events) <= config.exact_event_limit:
            trigger = self._degradation_trigger(len(events.events))
            if trigger is None:
                self.stats.fcp_exact_evaluations += 1
                probability = min(
                    max(frequent - events.union_probability_exact(), 0.0), frequent
                )
                if probability > config.pfct:
                    self._emit(
                        results, itemset, probability, probability, probability,
                        "exact", frequent,
                    )
                return
            # Graceful degradation: the exact path would blow its budget (or
            # the run its deadline), so fall back to the ApproxFCP estimator
            # and tag the result so consumers can tell it apart.
            self.stats.degraded_checks += 1
            if trigger == "budget":
                self.stats.degraded_by_budget += 1
            elif trigger == "deadline":
                self.stats.degraded_by_deadline += 1
            else:
                self.stats.degraded_by_policy += 1
            provenance = "approx-degraded"

        union_estimate, samples = approx_union_probability(
            events, config.epsilon, config.delta, check_rng(config.seed, itemset)
        )
        self.stats.fcp_sampled_evaluations += 1
        self.stats.monte_carlo_samples += samples
        probability = min(max(frequent - union_estimate, 0.0), frequent)
        if probability > config.pfct:
            self._emit(
                results, itemset, probability,
                max(probability - config.epsilon, 0.0),
                min(probability + config.epsilon, 1.0),
                "sampled", frequent,
                provenance=provenance,
            )

    def _degradation_trigger(self, num_events: int) -> Optional[str]:
        """Why an exact-eligible check must degrade, or ``None`` to run it.

        Delegates to the :class:`~repro.core.config.MinerConfig`-selected
        policy from :data:`repro.registry.DEGRADATION_POLICIES` (the default
        ``"budget-deadline"`` policy implements the term-budget and
        checking-deadline triggers of ``docs/robustness.md``).
        """
        return self._degradation_policy(self.config, self.stats, num_events)

    def _emit(
        self,
        results: List[ProbabilisticFrequentClosedItemset],
        itemset: Itemset,
        probability: float,
        lower: float,
        upper: float,
        method: str,
        frequent: float,
        provenance: str = "exact",
    ) -> None:
        results.append(
            ProbabilisticFrequentClosedItemset(
                itemset=itemset,
                probability=probability,
                lower=lower,
                upper=upper,
                method=method,
                frequent_probability=frequent,
                provenance=provenance,
            )
        )


def mine_pfci(
    database: UncertainDatabase,
    min_sup: int,
    pfct: float = 0.8,
    **config_kwargs: Any,
) -> List[ProbabilisticFrequentClosedItemset]:
    """Convenience wrapper: mine with a freshly built configuration.

    >>> from repro.core import paper_table2_database, mine_pfci
    >>> [str(result) for result in mine_pfci(paper_table2_database(), min_sup=2)]
    ['{a, b, c}: 0.8754', '{a, b, c, d}: 0.8100']
    """
    miner = MPFCIMiner(database, MinerConfig(min_sup=min_sup, pfct=pfct, **config_kwargs))
    return miner.mine()
