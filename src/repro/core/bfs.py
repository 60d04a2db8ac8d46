"""MPFCI-BFS — the breadth-first comparison framework (Table VII, Fig. 12).

Level-wise enumeration in the style of Apriori: level ``k+1`` candidates are
prefix-joins of surviving level-``k`` itemsets.  Per the paper, the superset
and subset prunings "won't show up in BFS's enumeration, which nullifies
checking on ensuing pruning conditions", so this variant only uses the
Chernoff–Hoeffding / exact frequency filters and the Lemma 4.4 probability
bounds.  Only the traversal is its own: the candidate filter and the whole
check phase, degradation policy included, are inherited from
:class:`~repro.core.miner.MPFCIMiner`, so every surviving itemset is checked
the same way the DFS miner checks nodes and both frameworks return the same
result sets (a fact the tests assert).
"""

from __future__ import annotations

import time
from typing import Dict, List

from .config import MinerConfig
from .database import Tidset, UncertainDatabase
from .itemsets import Itemset
from .miner import MPFCIMiner, ProbabilisticFrequentClosedItemset

__all__ = ["MPFCIBreadthFirstMiner"]


class MPFCIBreadthFirstMiner(MPFCIMiner):
    """Breadth-first mining of probabilistic frequent closed itemsets.

    Overrides only the traversal of :class:`~repro.core.miner.MPFCIMiner`.
    :meth:`~repro.core.miner.MPFCIMiner.mine_branch` walks one DFS subtree
    and has no meaning here; nothing calls it on a breadth-first miner.
    """

    def __init__(self, database: UncertainDatabase, config: MinerConfig) -> None:
        # Superset/subset pruning are structurally unavailable here.
        super().__init__(
            database,
            config.variant(use_superset_pruning=False, use_subset_pruning=False),
        )

    def mine(self) -> List[ProbabilisticFrequentClosedItemset]:
        """Run the level-wise search and return results sorted by itemset."""
        started = time.perf_counter()
        self._reset_run()
        results: List[ProbabilisticFrequentClosedItemset] = []

        # Every root item is a generated candidate, as every join below is.
        self.stats.candidates_generated += len(self._engine.items)
        level: Dict[Itemset, Tidset] = {
            (item,): self._item_tidsets[item] for item in self.candidate_items()
        }
        before = self._work_counters()
        while level:
            for itemset, tidset in level.items():
                self.stats.nodes_visited += 1
                self._check(itemset, tidset, results)
            level = self._next_level(level)
        return self._finish_run(results, started, before)

    def _next_level(self, level: Dict[Itemset, Tidset]) -> Dict[Itemset, Tidset]:
        ordered = sorted(level)
        next_level: Dict[Itemset, Tidset] = {}
        for index, first in enumerate(ordered):
            for second in ordered[index + 1 :]:
                if first[:-1] != second[:-1]:
                    break
                joined = first + (second[-1],)
                self.stats.candidates_generated += 1
                tidset = self._engine.intersect(level[first], level[second])
                if self._passes_frequency_pruning(tidset):
                    next_level[joined] = tidset
        return next_level
