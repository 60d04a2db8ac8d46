"""The Naive baseline of Fig. 5.

The paper's reference point: "directly use our approximation algorithm to
compute frequent closed probability one by one after obtaining all
probabilistic frequent itemsets based on TODIS algorithm [22]".  No bounds,
no structural prunings — every PFI pays a full ApproxFCP evaluation, which
is why its running time explodes as ``min_sup`` shrinks and the PFI count
grows (the effect Fig. 5 plots).
"""

from __future__ import annotations

import time
from typing import List

from .approx import approx_union_probability, check_rng
from .cache import SupportDPCache
from .config import MinerConfig
from .database import UncertainDatabase
from .events import ExtensionEventSystem
from .miner import ProbabilisticFrequentClosedItemset
from .stats import MinerStatistics

__all__ = ["NaiveMiner"]


class NaiveMiner:
    """PFI mining followed by per-itemset ApproxFCP checking."""

    def __init__(
        self,
        database: UncertainDatabase,
        config: MinerConfig,
        use_topdown_pfi: bool = True,
    ) -> None:
        self.database = database
        self.config = config
        self.use_topdown_pfi = use_topdown_pfi
        self.stats = MinerStatistics()

    def mine(self) -> List[ProbabilisticFrequentClosedItemset]:
        from ..uncertain.pfim import mine_probabilistic_frequent_itemsets
        from ..uncertain.todis import mine_probabilistic_frequent_itemsets_topdown

        started = time.perf_counter()
        self.stats = MinerStatistics()
        engine = self.database.tidset_engine(self.config.tidset_backend)
        cache = SupportDPCache(
            self.database, self.config.min_sup,
            max_entries=self.config.dp_cache_size,
            engine=engine,
        )
        before = {**engine.counters(), **cache.counters()}

        miner = (
            mine_probabilistic_frequent_itemsets_topdown
            if self.use_topdown_pfi
            else mine_probabilistic_frequent_itemsets
        )
        frequent_itemsets = miner(
            self.database, self.config.min_sup, self.config.pfct,
            support_cache=cache,
        )
        self.stats.candidates_generated = len(frequent_itemsets)

        results: List[ProbabilisticFrequentClosedItemset] = []
        for itemset, frequent in frequent_itemsets:
            self.stats.nodes_visited += 1
            events = ExtensionEventSystem(
                self.database, itemset, self.config.min_sup, support_cache=cache
            )
            union_estimate, samples = approx_union_probability(
                events, self.config.epsilon, self.config.delta,
                check_rng(self.config.seed, itemset),
            )
            self.stats.fcp_sampled_evaluations += 1
            self.stats.monte_carlo_samples += samples
            probability = min(max(frequent - union_estimate, 0.0), frequent)
            if probability > self.config.pfct:
                results.append(
                    ProbabilisticFrequentClosedItemset(
                        itemset=itemset,
                        probability=probability,
                        lower=max(probability - self.config.epsilon, 0.0),
                        upper=min(probability + self.config.epsilon, 1.0),
                        method="sampled",
                        frequent_probability=frequent,
                    )
                )

        results.sort(key=lambda result: (len(result.itemset), result.itemset))
        self.stats.results_emitted = len(results)
        self.stats.elapsed_seconds = time.perf_counter() - started
        # The engine is shared per database, so record this run's delta.
        for name, value in {**engine.counters(), **cache.counters()}.items():
            setattr(self.stats, name, value - before[name])
        return results
