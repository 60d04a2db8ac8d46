"""Bottom-up probabilistic frequent itemset mining ([4], [22]).

An itemset ``X`` is a *probabilistic frequent itemset* (PFI) under
``(min_sup, pft)`` iff ``Pr_F(X) = Pr[support(X) ≥ min_sup] > pft``
(Definition 3.5).  ``Pr_F`` is anti-monotone — a superset's containing
transactions are a subset of the itemset's, so its support is pointwise
smaller — which licenses Apriori-style level-wise search: each level joins
surviving prefixes, and candidates are vetted with the ``O(n · min_sup)``
Poisson-binomial DP of :mod:`repro.core.support`.

This miner plays the role of the bottom-up algorithm of [22]; it produces
the PFI sets consumed by the Naive baseline (Fig. 5) and the compression
experiment (Fig. 10).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.cache import SupportDPCache
from ..core.database import UncertainDatabase
from ..core.itemsets import Itemset

__all__ = ["mine_probabilistic_frequent_itemsets"]


def mine_probabilistic_frequent_itemsets(
    database: UncertainDatabase,
    min_sup: int,
    pft: float,
    support_cache: Optional[SupportDPCache] = None,
) -> List[Tuple[Itemset, float]]:
    """All probabilistic frequent itemsets with their frequent probabilities.

    Args:
        database: the uncertain transaction database.
        min_sup: absolute minimum support threshold (>= 1).
        pft: probabilistic frequent threshold; results satisfy
            ``Pr_F(X) > pft`` (strict, per Definition 3.5).
        support_cache: the run's support-DP cache; tidsets come from its
            tidset engine (the tuple engine when it has none), and its
            counters record the DPs.  Defaults to a fresh cache.

    Returns:
        ``[(itemset, Pr_F), ...]`` sorted by (length, itemset).
    """
    if min_sup < 1:
        raise ValueError("min_sup must be at least 1")
    if not 0.0 <= pft < 1.0:
        raise ValueError("pft must be in [0, 1)")
    cache = support_cache if support_cache is not None else SupportDPCache(database, min_sup)
    engine = cache.engine or database.tidset_engine("tuple")

    level: Dict[Itemset, Any] = {}
    results: List[Tuple[Itemset, float]] = []
    for item in database.items:
        tidset = engine.item_tidset(item)
        if len(tidset) < min_sup:
            continue
        probability = cache.frequent_probability_of_tidset(tidset)
        if probability > pft:
            level[(item,)] = tidset
            results.append(((item,), probability))

    while level:
        ordered = sorted(level)
        next_level: Dict[Itemset, Tidset] = {}
        for index, first in enumerate(ordered):
            for second in ordered[index + 1 :]:
                if first[:-1] != second[:-1]:
                    break
                joined = first + (second[-1],)
                tidset = engine.intersect(level[first], level[second])
                if len(tidset) < min_sup:
                    continue
                probability = cache.frequent_probability_of_tidset(tidset)
                if probability > pft:
                    next_level[joined] = tidset
                    results.append((joined, probability))
        level = next_level

    results.sort(key=lambda pair: (len(pair[0]), pair[0]))
    return results
