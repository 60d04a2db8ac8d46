"""Incremental maintenance of threshold-based PFCIs over a sliding window.

:class:`PFCIMonitor` keeps the exact MPFCI result set of the current window
current under single-transaction slides without re-mining the whole window.
Two observations make this sound (the full argument is in
``docs/streaming.md``):

1. **Branch locality.**  Every quantity behind a result whose minimum item
   is ``r`` — ``Pr_F``, the extension events, and therefore ``Pr_FC`` — is a
   function of only the transactions that *contain* ``r``.  A slide whose
   entering and leaving transactions both lack ``r`` cannot change any
   result in branch ``r``, so the branch's previous results are retained
   verbatim.  Only branches rooted at a *touched* item (one appearing in the
   slid-in or slid-out transaction) are reconsidered.

2. **Screening.**  A touched branch is re-mined only when its root survives
   :meth:`MPFCIMiner.candidate_items` on the window snapshot: the count →
   Chernoff–Hoeffding → exact ``Pr_F`` filters of the batch miner's
   candidate phase (each upper-bounds ``Pr_F`` and hence every ``Pr_FC`` in
   the branch, so a screened-out branch is provably empty).  The screen is
   the batch miner's own code on the same snapshot, so the monitor's
   candidate set is a scratch mine's by construction.  Only touched items
   are screened: an untouched item's transactions, and with them its
   ``Pr_F`` and its candidacy, did not change.

Re-mined branches run through the ordinary :meth:`MPFCIMiner.mine_branch`
warm-start entry point of the same snapshot miner, sharing one
:class:`~repro.core.cache.SupportDPCache` that is rebound (and thereby
invalidated) per window generation, so a re-mined root's ``Pr_F``, already
computed by the screen, is a cache hit.  The maintained result set is
identical to re-mining the window from scratch, sampled checks included
(each draws from a stream seeded by its own itemset) — asserted per slide in
``benchmarks/bench_streaming_slide.py``, ``tests/test_streaming_monitor.py``
and ``tests/conformance/test_sampling_conformance.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from ..core.cache import SupportDPCache
from ..core.config import MinerConfig
from ..core.database import UncertainTransaction
from ..core.itemsets import Item, Itemset, canonical
from ..core.miner import MPFCIMiner, ProbabilisticFrequentClosedItemset
from ..core.stats import MiningStats
from .window import WindowedUncertainDatabase

__all__ = ["PFCIMonitor", "SlideDelta"]

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
    """

    def __init__(
        self,
        config: MinerConfig,
        window: Union[int, WindowedUncertainDatabase],
    ) -> None:
        self.config = config
        self.window = (
            window
            if isinstance(window, WindowedUncertainDatabase)
            else WindowedUncertainDatabase(capacity=window)
        )
        self.stats = MiningStats()
        self._candidates: Set[Item] = set()
        self._branch_results: Dict[
            Item, Tuple[ProbabilisticFrequentClosedItemset, ...]
        ] = {}
        self._last_results: Dict[Itemset, ProbabilisticFrequentClosedItemset] = {}
        self._cache: Optional[SupportDPCache] = None
        if len(self.window):
            # A pre-filled window is mined from cold: every item is touched.
            self._reconcile(set(self.window.distinct_items))

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
    # branch reconciliation
    # ------------------------------------------------------------------
    def _reconcile(self, touched: Set[Item]) -> SlideDelta:
        """Screen the touched items, re-mine the survivors' branches, and
        diff the result set against the previous slide's."""
        self._candidates -= touched
        to_mine: List[Item] = []
        if any(self.window.count_of_item(item) for item in touched):
            miner = self._snapshot_miner()
            to_mine = miner.candidate_items(touched)
            self._candidates.update(to_mine)
            candidates = [
                item for item in self.window.items if item in self._candidates
            ]
            for root in to_mine:
                position = candidates.index(root)
                branch = miner.mine_branch(root, candidates[position + 1 :])
                if branch:
                    self._branch_results[root] = tuple(branch)
                else:
                    self._branch_results.pop(root, None)
            self._merge_stats(miner.stats)
        remined = set(to_mine)
        screened = tuple(item for item in canonical(touched) if item not in remined)
        for item in screened:
            self._branch_results.pop(item, None)
        self.stats.branches_screened_out += len(screened)
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

    def _snapshot_miner(self) -> MPFCIMiner:
        """A batch miner over the current window snapshot, on the shared
        support-DP cache rebound to this generation."""
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
        elif self._cache.rebind(snapshot, self.window.generation, engine=engine):
            # The one cache counter that moves outside a miner call.
            self.stats.dp_generation_invalidations += 1
        return MPFCIMiner(snapshot, self.config, support_cache=self._cache)

    def _merge_stats(self, slide_stats: MiningStats) -> None:
        # mine_branch's clock does not cover the screen, which ran first:
        # the slide's elapsed time is both, and its search phase is the
        # branches' time outside their checks.
        slide_stats.search_phase_seconds = max(
            0.0, slide_stats.elapsed_seconds - slide_stats.check_phase_seconds
        )
        slide_stats.elapsed_seconds += slide_stats.candidate_phase_seconds
        self.stats.merge(slide_stats)

    def __repr__(self) -> str:
        return (
            f"PFCIMonitor(window={len(self.window)}, "
            f"results={len(self._last_results)}, "
            f"generation={self.window.generation})"
        )
