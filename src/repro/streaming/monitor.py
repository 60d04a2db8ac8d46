"""Incremental maintenance of threshold-based PFCIs over a sliding window.

:class:`PFCIMonitor` keeps the exact MPFCI result set of the current window
current under single-transaction slides without re-mining the whole window.
Three observations make this sound (the full argument is in
``docs/streaming.md``):

1. **Branch locality.**  Every quantity behind a result whose minimum item
   is ``r`` — ``Pr_F``, the extension events, and therefore ``Pr_FC`` — is a
   function of only the transactions that *contain* ``r``.  A slide whose
   entering and leaving transactions both lack ``r`` cannot change any
   result in branch ``r``, so the branch's previous results are retained
   verbatim.  Only branches rooted at a *touched* item (one appearing in the
   slid-in or slid-out transaction) are reconsidered.

2. **Screening.**  A touched branch is re-mined only when its root survives
   the same count → Chernoff–Hoeffding → exact ``Pr_F`` filters the batch
   miner applies to candidate items (each upper-bounds ``Pr_F`` and hence
   every ``Pr_FC`` in the branch, so a screened-out branch is provably
   empty).  The CH screen reads the window's incrementally maintained
   expected supports and is applied with a small numeric slack: a bound
   within the slack of ``pfct`` falls through to the exact check instead of
   pruning, so maintenance drift can only cost work, never results.

3. **Incremental support DP.**  Each item's window support PMF is maintained
   by O(n) convolution peeling (:func:`repro.core.support.pmf_add` /
   :func:`pmf_remove`) instead of the O(n²) full DP; ``Pr_F`` is its tail
   sum.  A tail within the numeric slack of ``pfct`` is recomputed with the
   batch DP (bit-identical to what a from-scratch mine would evaluate), and
   every ``refresh_interval`` updates — or whenever deconvolution reports
   :class:`~repro.core.support.PMFStabilityError` — the PMF is rebuilt from
   scratch, bounding error accumulation.  Incremental vs. full update counts
   land in :class:`~repro.core.stats.MiningStats`.

Re-mined branches run through the ordinary :meth:`MPFCIMiner.mine_branch`
warm-start entry point against the window snapshot, sharing one
:class:`~repro.core.cache.SupportDPCache` that is rebound (and thereby
invalidated) per window generation.  On deterministic checking paths (no
ApproxFCP sampling) the maintained result set is identical to re-mining the
window from scratch — asserted per slide in
``benchmarks/bench_streaming_slide.py`` and property-tested in
``tests/test_streaming_monitor.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..core._types import FloatArray
from ..core.bounds import chernoff_hoeffding_frequency_bound
from ..core.cache import SupportDPCache
from ..core.config import MinerConfig
from ..core.database import UncertainTransaction
from ..core.itemsets import Item, Itemset, canonical
from ..core.miner import MPFCIMiner, ProbabilisticFrequentClosedItemset
from ..core.stats import MiningStats
from ..core.support import PMFStabilityError, frequent_probability, pmf_add, pmf_remove, support_pmf
from .window import WindowedUncertainDatabase

__all__ = ["PFCIMonitor", "SlideDelta"]

# Cache-counter fields are copied (not added) from the shared cache, so the
# per-slide miner stats must be stripped of them before merging into the
# monitor's cumulative stats; the cache's own totals are applied afterwards.
_CACHE_COUNTER_FIELDS: Tuple[str, ...] = (
    "dp_cache_hits",
    "dp_cache_misses",
    "dp_cache_evictions",
    "dp_tail_table_hits",
    "dp_tail_table_misses",
    "dp_tail_table_evictions",
    "dp_invocations",
    "dp_batch_invocations",
    "dp_generation_invalidations",
    "dp_cross_generation_hits",
)

_RESULT_ORDER = lambda result: (len(result.itemset), result.itemset)  # noqa: E731


@dataclass(frozen=True)
class SlideDelta:
    """Structured outcome of one window slide.

    Attributes:
        generation: window generation after the slide.
        added: results present now but not before the slide.
        removed: results present before but not now (carrying their last
            known values).
        retained: results present on both sides (carrying current values —
            a re-mined branch may have refreshed their probabilities).
        remined_branches: branch roots re-mined this slide.
        screened_branches: touched branch roots disposed of without mining
            (count / Chernoff–Hoeffding / exact ``Pr_F`` screens).
    """

    generation: int
    added: Tuple[ProbabilisticFrequentClosedItemset, ...]
    removed: Tuple[ProbabilisticFrequentClosedItemset, ...]
    retained: Tuple[ProbabilisticFrequentClosedItemset, ...]
    remined_branches: Tuple[Item, ...]
    screened_branches: Tuple[Item, ...]

    @property
    def changed(self) -> bool:
        """True when the PFCI set itself changed (membership, not values)."""
        return bool(self.added or self.removed)

    def summary(self) -> str:
        return (
            f"gen={self.generation} +{len(self.added)} -{len(self.removed)} "
            f"={len(self.retained)} "
            f"(remined={len(self.remined_branches)}, "
            f"screened={len(self.screened_branches)})"
        )


class _ItemState:
    """Per-item incremental state: support PMF, ``Pr_F``, candidacy."""

    __slots__ = ("pmf", "pr_f", "candidate", "updates_since_rebuild")

    def __init__(self) -> None:
        self.pmf: Optional[FloatArray] = None
        self.pr_f = 0.0
        self.candidate = False
        self.updates_since_rebuild = 0


class PFCIMonitor:
    """Sliding-window PFCI maintenance over an uncertain transaction stream.

    Typical use::

        monitor = PFCIMonitor(MinerConfig(min_sup=25, pfct=0.7), window=500)
        for transaction in feed:
            delta = monitor.slide(transaction)
            if delta.changed:
                handle(delta.added, delta.removed)
        current = monitor.results()

    Args:
        config: the usual miner configuration; ``min_sup`` is absolute over
            the window.
        window: window length in transactions, or an existing
            :class:`WindowedUncertainDatabase` (a pre-filled one is mined on
            construction).
        refresh_interval: full PMF rebuild is forced after this many
            incremental updates per item, bounding float drift.
        numeric_slack: decision band around ``pfct`` inside which screening
            falls back to the exact batch DP instead of trusting
            incrementally maintained values.
    """

    def __init__(
        self,
        config: MinerConfig,
        window: Union[int, WindowedUncertainDatabase],
        *,
        refresh_interval: int = 64,
        numeric_slack: float = 1e-9,
    ) -> None:
        if refresh_interval < 1:
            raise ValueError(
                f"refresh_interval must be >= 1, got {refresh_interval}"
            )
        if numeric_slack < 0.0:
            raise ValueError(f"numeric_slack must be >= 0, got {numeric_slack}")
        self.config = config
        self.window = (
            window
            if isinstance(window, WindowedUncertainDatabase)
            else WindowedUncertainDatabase(capacity=window)
        )
        self.refresh_interval = refresh_interval
        self.numeric_slack = numeric_slack
        self.stats = MiningStats()
        self._states: Dict[Item, _ItemState] = {}
        self._branch_results: Dict[
            Item, Tuple[ProbabilisticFrequentClosedItemset, ...]
        ] = {}
        self._last_results: Dict[Itemset, ProbabilisticFrequentClosedItemset] = {}
        self._cache: Optional[SupportDPCache] = None
        if len(self.window):
            self._bootstrap()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def slide(self, transaction: UncertainTransaction) -> SlideDelta:
        """Append one transaction (evicting the oldest when full) and
        bring the PFCI set up to date; returns the structured delta."""
        evicted = self.window.append(transaction)
        self.stats.slides_processed += 1
        touched: Set[Item] = set(transaction.items)
        if evicted is not None:
            touched.update(evicted.items)
        for item in touched:
            self._update_item_state(item, transaction, evicted)
        return self._reconcile(touched)

    def append(
        self, tid: str, items: Iterable[Item], probability: float
    ) -> SlideDelta:
        """Convenience wrapper building the transaction from a row triple."""
        return self.slide(UncertainTransaction(tid, canonical(items), probability))

    def extend(
        self, transactions: Iterable[UncertainTransaction]
    ) -> List[SlideDelta]:
        return [self.slide(transaction) for transaction in transactions]

    def results(self) -> List[ProbabilisticFrequentClosedItemset]:
        """The current window's full PFCI set, sorted like ``mine()``."""
        return sorted(self._last_results.values(), key=_RESULT_ORDER)

    @property
    def generation(self) -> int:
        return self.window.generation

    # ------------------------------------------------------------------
    # per-item incremental state
    # ------------------------------------------------------------------
    def _update_item_state(
        self,
        item: Item,
        appended: Optional[UncertainTransaction],
        evicted: Optional[UncertainTransaction],
    ) -> None:
        count = self.window.count_of_item(item)
        if count == 0:
            self._states.pop(item, None)
            return
        state = self._states.get(item)
        if state is None:
            state = self._states[item] = _ItemState()

        pmf = state.pmf
        state.updates_since_rebuild += 1
        if pmf is not None and state.updates_since_rebuild < self.refresh_interval:
            try:
                if appended is not None and item in appended.items:
                    pmf = pmf_add(pmf, appended.probability)
                if evicted is not None and item in evicted.items:
                    pmf = pmf_remove(pmf, evicted.probability)
            except PMFStabilityError:
                pmf = None
        else:
            pmf = None
        if pmf is not None and len(pmf) != count + 1:
            # Defensive: a desynchronized PMF would silently poison every
            # screen decision; rebuild instead.
            pmf = None
        if pmf is None:
            pmf = support_pmf(self.window.item_probabilities(item))
            self.window.refresh_expected_support(item)
            state.updates_since_rebuild = 0
            self.stats.pmf_full_rebuilds += 1
        else:
            self.stats.pmf_incremental_updates += 1
        state.pmf = pmf

        self._screen_item(item, state, count)

    def _screen_item(self, item: Item, state: _ItemState, count: int) -> None:
        """Re-derive candidacy with the batch miner's filters, slack-guarded.

        Matches ``MPFCIMiner.candidate_items`` decision-for-decision: the
        count filter is exact; the CH bound only prunes when it clears
        ``pfct`` by more than the slack (a borderline bound falls through to
        the exact check, so the screen can never drop a branch the bound
        does not provably empty); a tail sum within the slack of ``pfct`` is
        recomputed with the batch DP so the final strict comparison is the
        same float comparison a from-scratch mine performs.
        """
        config = self.config
        if count < config.min_sup:
            state.pr_f = 0.0
            state.candidate = False
            return
        if config.use_chernoff_pruning:
            bound = chernoff_hoeffding_frequency_bound(
                self.window.expected_support_of_item(item),
                len(self.window),
                config.min_sup,
            )
            if bound <= config.pfct - self.numeric_slack:
                state.pr_f = 0.0
                state.candidate = False
                return
        pmf = state.pmf
        assert pmf is not None  # _update_item_state always rebuilds before screening
        pr_f = float(np.sum(pmf[config.min_sup :]))
        if abs(pr_f - config.pfct) <= self.numeric_slack:
            pr_f = frequent_probability(
                self.window.item_probabilities(item), config.min_sup
            )
            self.stats.frequent_probability_evaluations += 1
        state.pr_f = pr_f
        state.candidate = pr_f > config.pfct

    # ------------------------------------------------------------------
    # branch reconciliation
    # ------------------------------------------------------------------
    def _reconcile(self, touched: Set[Item]) -> SlideDelta:
        candidates = [
            item
            for item in self.window.items
            if item in self._states and self._states[item].candidate
        ]
        to_mine = [item for item in candidates if item in touched]
        screened = tuple(
            item for item in canonical(touched) if item not in set(to_mine)
        )
        for item in screened:
            self._branch_results.pop(item, None)
        self.stats.branches_screened_out += len(screened)

        if to_mine:
            self._remine_branches(to_mine, candidates)
        self.stats.branches_remined += len(to_mine)
        self.stats.branches_retained += sum(
            1 for root in self._branch_results if root not in touched
        )

        new_results = {
            result.itemset: result
            for branch in self._branch_results.values()
            for result in branch
        }
        added = sorted(
            (r for key, r in new_results.items() if key not in self._last_results),
            key=_RESULT_ORDER,
        )
        removed = sorted(
            (r for key, r in self._last_results.items() if key not in new_results),
            key=_RESULT_ORDER,
        )
        retained = sorted(
            (r for key, r in new_results.items() if key in self._last_results),
            key=_RESULT_ORDER,
        )
        self._last_results = new_results
        return SlideDelta(
            generation=self.window.generation,
            added=tuple(added),
            removed=tuple(removed),
            retained=tuple(retained),
            remined_branches=tuple(to_mine),
            screened_branches=screened,
        )

    def _remine_branches(
        self, to_mine: Sequence[Item], candidates: Sequence[Item]
    ) -> None:
        snapshot = self.window.snapshot()
        engine = snapshot.tidset_engine(self.config.tidset_backend)
        if self._cache is None:
            self._cache = SupportDPCache(
                snapshot,
                self.config.min_sup,
                max_entries=self.config.dp_cache_size,
                generation=self.window.generation,
                engine=engine,
            )
        else:
            self._cache.rebind(snapshot, self.window.generation, engine=engine)
        miner = MPFCIMiner(snapshot, self.config, support_cache=self._cache)
        for root in to_mine:
            position = candidates.index(root)
            branch = miner.mine_branch(root, candidates[position + 1 :])
            if branch:
                self._branch_results[root] = tuple(branch)
            else:
                self._branch_results.pop(root, None)
        # Cache counters are copied-not-added (they are cumulative on the
        # shared cache), so strip them from the per-slide miner stats before
        # merging, then re-apply the cache totals idempotently.
        slide_stats = miner.stats
        for name in _CACHE_COUNTER_FIELDS:
            setattr(slide_stats, name, 0)
        self.stats.merge(slide_stats)
        self._cache.apply_to(self.stats)

    def _bootstrap(self) -> None:
        """Mine a pre-filled window from cold: every item counts as touched."""
        touched = set(self.window.distinct_items)
        for item in touched:
            self._update_item_state(item, None, None)
        self._reconcile(touched)

    def __repr__(self) -> str:
        return (
            f"PFCIMonitor(window={len(self.window)}, "
            f"results={len(self._last_results)}, "
            f"generation={self.window.generation})"
        )
