"""Exact closed / frequent-closed probabilities.

Two exact computations with different scaling:

* :func:`frequent_closed_probability_exact` — polynomial pieces composed by
  inclusion–exclusion over the extension events.  Exponential in the number
  of events (this is the #P-hard core), but aggressively pruned and perfectly
  usable when few items extend ``X`` — the miner uses it below
  ``MinerConfig.exact_event_limit``.
* :mod:`repro.core.possible_worlds` — full world enumeration; exponential in
  the number of *transactions*.  Test oracle only.

Both agree with each other and with the paper's worked example
(``Pr_FC({a,b,c}) = 0.8754`` on Table II), which the test-suite pins down.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .database import UncertainDatabase
from .events import ExtensionEventSystem
from .itemsets import Item
from .support import SupportDistributionCache

__all__ = [
    "frequent_probability_of",
    "frequent_non_closed_probability_exact",
    "frequent_closed_probability_exact",
    "closed_probability_exact",
]


def frequent_probability_of(
    database: UncertainDatabase, itemset: Sequence[Item], min_sup: int
) -> float:
    """``Pr_F(X)`` — Definition 3.4, via the Poisson-binomial DP."""
    cache = SupportDistributionCache(database, min_sup)
    return cache.frequent_probability_of_itemset(itemset)


def frequent_non_closed_probability_exact(
    database: UncertainDatabase,
    itemset: Sequence[Item],
    min_sup: int,
    support_cache: Optional[SupportDistributionCache] = None,
) -> float:
    """Definition 4.1's ``Pr_FNC(X)`` by exact inclusion–exclusion."""
    events = ExtensionEventSystem(
        database, itemset, min_sup, support_cache=support_cache
    )
    return events.union_probability_exact()


def frequent_closed_probability_exact(
    database: UncertainDatabase,
    itemset: Sequence[Item],
    min_sup: int,
    support_cache: Optional[SupportDistributionCache] = None,
) -> float:
    """``Pr_FC(X) = Pr_F(X) − Pr_FNC(X)`` — Definition 3.7, exactly.

    #P-hard in general (Theorem 3.2); practical when the number of extension
    events is modest.
    """
    cache = (
        support_cache
        if support_cache is not None
        else SupportDistributionCache(database, min_sup)
    )
    frequent = cache.frequent_probability_of_itemset(itemset)
    if frequent <= 0.0:
        return 0.0
    non_closed = frequent_non_closed_probability_exact(
        database, itemset, min_sup, support_cache=cache
    )
    return min(max(frequent - non_closed, 0.0), frequent)


def closed_probability_exact(
    database: UncertainDatabase, itemset: Sequence[Item]
) -> float:
    """``Pr_C(X)`` — Definition 3.6.

    The paper observes this is the ``min_sup = 1`` special case of the
    frequent closed probability (and the #P-hardness proof of Theorem 3.1 is
    stated for exactly this quantity).
    """
    return frequent_closed_probability_exact(database, itemset, min_sup=1)
