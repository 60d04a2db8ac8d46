"""Extension events ``C_i`` — the DNF view of frequent non-closedness.

Section IV.B of the paper rewrites the *frequent non-closed probability* of
an itemset ``X`` as the probability of a DNF over events: for every item
``e_i`` outside ``X``,

    C_i  =  "X + e_i always appears together with X, at least min_sup times"
         =  { world w : support_w(X + e_i) = support_w(X) >= min_sup }.

``X`` is frequent-but-not-closed exactly in the worlds of ``C_1 ∨ ... ∨ C_m``
and ``Pr_FC(X) = Pr_F(X) − Pr(C_1 ∨ ... ∨ C_m)``.

Because the transactions are independent, the probability of any conjunction
factors (the paper derives the singleton case):

    Pr(∧_{i∈S} C_i) = Π_{t ⊇ X, t ⊉ X∪S} (1 − p_t)  ·  Pr[ support(X∪S) ≥ min_sup ]

— the transactions containing ``X`` but missing some item of ``S`` must all
be absent, and independently the transactions containing ``X∪S`` must reach
``min_sup``.  This module materializes the events, their singleton and
pairwise probabilities (inputs of the Lemma 4.4 bounds) and arbitrary
conjunctions (inputs of exact inclusion–exclusion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._types import FloatArray, TidsetEngine
from .cache import SupportDPCache
from .database import Tidset, UncertainDatabase
from .itemsets import Item, canonical
from .tidsets import BitmapTidset

__all__ = ["ExtensionEvent", "ExtensionEventSystem"]


@dataclass(frozen=True)
class ExtensionEvent:
    """One event ``C_i`` for extension item ``item``.

    Attributes:
        item: the extension item ``e_i``.
        tidset: positions of transactions containing ``X + e_i``.
        absent_factor: ``Π (1 − p_t)`` over transactions containing ``X`` but
            not ``e_i`` (the first factor of ``Pr(C_i)``).
        frequent_probability: ``Pr_F(X + e_i)`` (the second factor).
    """

    item: Item
    tidset: Tidset
    absent_factor: float
    frequent_probability: float

    @property
    def probability(self) -> float:
        """``Pr(C_i)`` = absent factor × frequent probability."""
        return self.absent_factor * self.frequent_probability


class ExtensionEventSystem:
    """All extension events of one itemset, with conjunction probabilities.

    Only events of positive probability are retained.  An event whose
    absent factor is exactly ``0.0`` (a transaction of probability 1 holds
    ``X`` but not ``e_i``, or the product underflowed) is dropped before its
    ``Pr_F`` DP runs; one whose ``Pr_F(X + e_i)`` is ``0.0`` (in particular,
    a co-occurrence count with ``X`` below ``min_sup``) is dropped after.
    Either way it contributes nothing to the union, and dropping it keeps
    the FPRAS sample count proportional to the *effective* number of events.
    """

    def __init__(
        self,
        database: UncertainDatabase,
        itemset: Sequence[Item],
        min_sup: int,
        base_tidset: Optional[Any] = None,
        support_cache: Optional[SupportDPCache] = None,
        engine: Optional[TidsetEngine] = None,
    ) -> None:
        self.database = database
        self.itemset = canonical(itemset)
        self.min_sup = min_sup
        # Engine resolution: explicit argument, then the cache's engine, then
        # whichever backend matches the supplied base tidset (tuple when in
        # doubt — the historical default for direct construction).
        if engine is None:
            if support_cache is not None and support_cache.engine is not None:
                engine = support_cache.engine
            elif isinstance(base_tidset, BitmapTidset):
                engine = database.tidset_engine("bitmap")
            else:
                engine = database.tidset_engine("tuple")
        self._engine = engine
        self.base_tidset = (
            engine.tidset_of(self.itemset) if base_tidset is None else base_tidset
        )
        # An empty cache is falsy (it has a length), so test for None: a
        # caller's cache must be used even before its first entry.
        self._cache = (
            support_cache
            if support_cache is not None
            else SupportDPCache(database, min_sup, engine=engine)
        )
        # Warm the base tidset's probability tuple; every conjunction query
        # and DP below reads it through the cache.
        self._base_probabilities = self._cache.probabilities_of_tidset(
            self.base_tidset
        )
        self.events: List[ExtensionEvent] = self._build_events()
        self._pairwise: Dict[Tuple[int, int], float] = {}
        self._pairwise_seeded = False
        self._pairwise_matrix: Optional[FloatArray] = None

    @property
    def support_cache(self) -> SupportDPCache:
        """The run-shared support-DP cache this system computes through."""
        return self._cache

    @property
    def engine(self) -> TidsetEngine:
        """The tidset engine the event tidsets live in."""
        return self._engine

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_events(self) -> List[ExtensionEvent]:
        item_set = set(self.itemset)
        base = self.base_tidset
        engine = self._engine
        extended: List[Tuple[Item, Any]]
        if engine.vectorized:
            # One matrix AND extends the base by every item at once.
            extended = [
                (item, with_item)
                for item, with_item in engine.extend_all_items(base, self.min_sup)
                if item not in item_set
            ]
        else:
            extended = []
            for item in engine.items:
                if item in item_set:
                    continue
                with_item = engine.intersect(base, engine.item_tidset(item))
                if len(with_item) >= self.min_sup:
                    extended.append((item, with_item))
        tidsets = [with_item for _, with_item in extended]
        absent_factors = engine.absent_factors(base, tidsets)
        if engine.vectorized:
            self._seed_nonzero(tidsets, absent_factors)
        events: List[ExtensionEvent] = []
        for (item, with_item), absent_factor in zip(extended, absent_factors):
            # Pr(C_i) = absent factor × Pr_F(X + e_i): a zero factor decides
            # the event without its DP.
            if absent_factor == 0.0:
                continue
            freq = self._cache.frequent_probability_of_tidset(with_item)
            if freq <= 0.0:
                continue
            events.append(
                ExtensionEvent(
                    item=item,
                    tidset=with_item,
                    absent_factor=absent_factor,
                    frequent_probability=freq,
                )
            )
        return events

    def _seed_nonzero(self, tidsets: Sequence[Any], absent_factors: Sequence[float]) -> None:
        """One batched ``Pr_F`` DP for the tidsets whose absent factor is not 0.0.

        A zero factor makes the event's or conjunction's probability 0.0
        whatever its ``Pr_F``, so that DP is never run.  Vectorized engines
        only; a single survivor is left to the serial DP, which returns the
        same bits.
        """
        nonzero = [
            tidset for tidset, factor in zip(tidsets, absent_factors) if factor > 0.0
        ]
        if len(nonzero) > 1:
            self._cache.seed_frequent_probabilities(self.base_tidset, nonzero)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)

    @property
    def singleton_probabilities(self) -> List[float]:
        return [event.probability for event in self.events]

    def has_certain_cooccurrence(self) -> bool:
        """True when some event's tidset equals the base tidset.

        Then ``X + e_i`` co-occurs with ``X`` in *every* world, so ``X`` is
        non-closed whenever it appears at all: ``Pr(C_i) = Pr_F(X)`` and
        ``Pr_FC(X) = 0``.  This is the structural fact behind the superset
        and subset pruning lemmas.
        """
        base_size = len(self.base_tidset)
        return any(len(event.tidset) == base_size for event in self.events)

    # ------------------------------------------------------------------
    # conjunctions
    # ------------------------------------------------------------------
    def conjunction_probability(self, indices: Sequence[int]) -> float:
        """``Pr(∧_{i in indices} C_i)`` by the factored formula."""
        if not indices:
            raise ValueError("conjunction over no events is undefined")
        tidset = self.events[indices[0]].tidset
        for index in indices[1:]:
            tidset = self._engine.intersect(tidset, self.events[index].tidset)
            if len(tidset) < self.min_sup:
                return 0.0
        return self._conjunction_from_tidset(tidset)

    def _conjunction_from_tidset(self, tidset: Any) -> float:
        if len(tidset) < self.min_sup:
            return 0.0
        absent = self._engine.absent_factor(self.base_tidset, tidset)
        if absent == 0.0:
            return 0.0
        return absent * self._cache.frequent_probability_of_tidset(tidset)

    def _seed_pairwise(self) -> None:
        """One-time batch fill of the pairwise matrix on vectorized engines.

        All ``m·(m−1)/2`` conjunction tidsets come from one stacked matrix
        AND, every absent factor from one batched gather, and the ``Pr_F``
        of every conjunction with a nonzero factor from one batched DP —
        value-wise identical to the lazy per-pair path (0.0 below
        ``min_sup`` or for a zero factor, the factored formula otherwise).
        The values land directly in the symmetric pairwise matrix the bound
        evaluations bulk-read.
        """
        if self._pairwise_seeded:
            return
        self._pairwise_seeded = True
        engine = self._engine
        if not getattr(engine, "vectorized", False) or len(self.events) < 2:
            return
        conjunctions = engine.pairwise_conjunctions(
            [event.tidset for event in self.events]
        )
        eligible = [ts for ts in conjunctions if len(ts) >= self.min_sup]
        eligible_factors = engine.absent_factors(self.base_tidset, eligible)
        self._seed_nonzero(eligible, eligible_factors)
        absent_factors = iter(eligible_factors)
        count = len(self.events)
        frequent = self._cache.frequent_probability_of_tidset
        matrix = np.empty((count, count))
        for index, event in enumerate(self.events):
            matrix[index, index] = event.probability
        index = 0
        for first in range(count):
            for second in range(first + 1, count):
                tidset = conjunctions[index]
                index += 1
                value = 0.0
                if len(tidset) >= self.min_sup:
                    absent = next(absent_factors)
                    if absent > 0.0:
                        value = absent * frequent(tidset)
                matrix[first, second] = matrix[second, first] = value
        self._pairwise_matrix = matrix

    def pairwise_probability(self, first: int, second: int) -> float:
        """``Pr(C_i ∧ C_j)`` with memoization (Lemma 4.4 needs all pairs)."""
        if first == second:
            return self.events[first].probability
        self._seed_pairwise()
        if self._pairwise_matrix is not None:
            return float(self._pairwise_matrix[first, second])
        key = (first, second) if first < second else (second, first)
        cached = self._pairwise.get(key)
        if cached is None:
            cached = self.conjunction_probability([first, second])
            self._pairwise[key] = cached
        return cached

    def pairwise_matrix(self) -> FloatArray:
        """All pairwise probabilities as one symmetric ``(m, m)`` matrix.

        Entry ``(i, j)`` is ``Pr(C_i ∧ C_j)``; the diagonal holds the
        singleton probabilities (``Pr(C_i ∧ C_i) = Pr(C_i)``).  Built once
        and cached, this is the bulk-read view the Lemma 4.4 bound
        evaluations consume — the same memoized values
        :meth:`pairwise_probability` serves, without one Python call per
        matrix cell per bound.
        """
        if self._pairwise_matrix is None:
            self._seed_pairwise()
        if self._pairwise_matrix is None:
            # Non-vectorized engine (or fewer than two events): build from
            # the lazy per-pair path once and cache.
            count = len(self.events)
            matrix = np.empty((count, count))
            for index, event in enumerate(self.events):
                matrix[index, index] = event.probability
            for first in range(count):
                for second in range(first + 1, count):
                    matrix[first, second] = matrix[second, first] = (
                        self.pairwise_probability(first, second)
                    )
            self._pairwise_matrix = matrix
        return self._pairwise_matrix

    def pairwise_sum(self) -> float:
        """``S2 = Σ_{i<j} Pr(C_i ∧ C_j)`` (input of Kwerel / Dawson–Sankoff).

        Summed with :func:`math.fsum` over the cached pairwise matrix —
        exactly rounded, so the value is independent of enumeration order
        and identical across tidset backends.
        """
        count = len(self.events)
        if count < 2:
            return 0.0
        matrix = self.pairwise_matrix()
        first, second = np.triu_indices(count, k=1)
        return math.fsum(matrix[first, second].tolist())

    # ------------------------------------------------------------------
    # exact union probability (inclusion–exclusion)
    # ------------------------------------------------------------------
    def union_probability_exact(self) -> float:
        """``Pr(C_1 ∨ ... ∨ C_m)`` by inclusion–exclusion.

        Exponential in the number of events in the worst case, but the
        recursion prunes any branch whose running tidset intersection drops
        below ``min_sup`` (every further conjunction there is 0), which makes
        it practical for the small event counts the miner feeds it.

        A conjunction whose absent factor is exactly ``0.0`` has a ``0.0``
        term, which ends its branch, so its ``Pr_F`` is never computed.

        On vectorized engines every expansion node is *frontier-batched*:
        the node's surviving sibling conjunctions come from one
        ``intersect_many`` (one matrix AND), their absent factors from one
        stacked gather, and the ``Pr_F`` values of those with a nonzero
        factor from one padded batched support DP.  The terms are
        then accumulated in the exact order the serial recursion would have
        produced them — same IEEE-754 additions in the same sequence — so
        the batched and serial paths return bit-identical totals.
        """
        total = 0.0
        events = self.events
        engine = self._engine
        min_sup = self.min_sup

        if getattr(engine, "vectorized", False) and events:
            cache = self._cache

            def recurse_batched(start: int, tidset: Any, depth: int) -> None:
                nonlocal total
                intersections = engine.intersect_many(
                    tidset, [event.tidset for event in events[start:]], min_sup
                )
                survivors = [
                    intersection
                    for intersection in intersections
                    if intersection is not None
                ]
                if not survivors:
                    return
                survivor_factors = engine.absent_factors(self.base_tidset, survivors)
                self._seed_nonzero(survivors, survivor_factors)
                absent_factors = iter(survivor_factors)
                for offset, intersection in enumerate(intersections):
                    if intersection is None:
                        continue
                    absent = next(absent_factors)
                    if absent == 0.0:
                        continue
                    term = absent * cache.frequent_probability_of_tidset(intersection)
                    if term > 0.0:
                        total += term if depth % 2 == 0 else -term
                        recurse_batched(start + offset + 1, intersection, depth + 1)

            recurse_batched(0, self.base_tidset, 0)
            return min(max(total, 0.0), 1.0)

        intersect = engine.intersect

        def recurse(start: int, tidset: Any, depth: int) -> None:
            nonlocal total
            for index in range(start, len(events)):
                intersection = intersect(tidset, events[index].tidset)
                if len(intersection) < min_sup:
                    continue
                term = self._conjunction_from_tidset(intersection)
                if term > 0.0:
                    total += term if depth % 2 == 0 else -term
                    recurse(index + 1, intersection, depth + 1)

        recurse(0, self.base_tidset, 0)
        return min(max(total, 0.0), 1.0)
