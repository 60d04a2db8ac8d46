"""TODIS-style top-down probabilistic frequent itemset mining ([22]).

The top-down algorithm of [22] starts from large candidate itemsets and
descends, exploiting the *upward* direction of anti-monotonicity: if ``X``
is a PFI then **every** non-empty subset of ``X`` is a PFI, so a qualifying
itemset certifies its whole powerset at once and the expensive frequentness
DP runs only along the rejection frontier.

Our reconstruction (the original derives support distributions of subsets
incrementally; the enumeration order and output contract are the same):

1. Seed with the *maximal count-frequent* itemsets — itemsets contained in
   at least ``min_sup`` transactions with no count-frequent proper superset
   (computed from the closed itemsets of the certain projection, which is
   sound because ``count`` bounds every world's support from above).
2. Descend: if ``Pr_F(X) > pft``, emit ``X`` and schedule its entire subset
   lattice for emission (deduplicated); otherwise recurse into the
   ``(|X|−1)``-subsets.

The result set is provably identical to the bottom-up miner's
(:mod:`repro.uncertain.pfim`), which the test-suite cross-checks; it exists
because the paper's Naive baseline ("TODIS algorithm [22]") and the PFI
counts of Fig. 10 are defined in terms of it.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ..core.cache import SupportDPCache
from ..core.database import UncertainDatabase
from ..core.itemsets import Itemset
from ..exact.maximal import mine_maximal_itemsets

__all__ = ["mine_probabilistic_frequent_itemsets_topdown"]


def _maximal_count_frequent(
    database: UncertainDatabase, min_sup: int
) -> List[Itemset]:
    """Maximal itemsets with ``count >= min_sup`` on the certain projection."""
    return [
        itemset
        for itemset, _support in mine_maximal_itemsets(
            database.certain_projection(), min_sup
        )
    ]


def mine_probabilistic_frequent_itemsets_topdown(
    database: UncertainDatabase,
    min_sup: int,
    pft: float,
    support_cache: Optional[SupportDPCache] = None,
) -> List[Tuple[Itemset, float]]:
    """All probabilistic frequent itemsets, mined top-down.

    Same contract, ``support_cache`` included, as
    :func:`repro.uncertain.pfim.mine_probabilistic_frequent_itemsets`.
    """
    if min_sup < 1:
        raise ValueError("min_sup must be at least 1")
    if not 0.0 <= pft < 1.0:
        raise ValueError("pft must be in [0, 1)")
    cache = support_cache if support_cache is not None else SupportDPCache(database, min_sup)

    confirmed: Set[Itemset] = set()
    rejected: Set[Itemset] = set()

    def emit_with_subsets(itemset: Itemset) -> None:
        if itemset in confirmed or not itemset:
            return
        confirmed.add(itemset)
        for position in range(len(itemset)):
            emit_with_subsets(itemset[:position] + itemset[position + 1 :])

    def descend(itemset: Itemset) -> None:
        if not itemset or itemset in confirmed or itemset in rejected:
            return
        probability = cache.frequent_probability_of_itemset(itemset)
        if probability > pft:
            emit_with_subsets(itemset)
            return
        rejected.add(itemset)
        for position in range(len(itemset)):
            descend(itemset[:position] + itemset[position + 1 :])

    for maximal in _maximal_count_frequent(database, min_sup):
        descend(maximal)

    results = [
        (itemset, cache.frequent_probability_of_itemset(itemset))
        for itemset in confirmed
    ]
    results.sort(key=lambda pair: (len(pair[0]), pair[0]))
    return results
