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

    Only events that can have positive probability are retained: an item
    whose co-occurrence count with ``X`` is below ``min_sup`` yields
    ``Pr_F(X + e_i) = 0`` and contributes nothing to the union, so it is
    dropped up front (this also keeps the FPRAS sample count proportional to
    the *effective* number of events).
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
        self._cache = support_cache or SupportDPCache(database, min_sup, engine=engine)
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
            # One matrix AND extends the base by every item at once; the
            # survivors' Pr_F values are then computed as one batched DP.
            extended = [
                (item, with_item)
                for item, with_item in engine.extend_all_items(base)
                if item not in item_set and len(with_item) >= self.min_sup
            ]
            if len(extended) > 1:
                self._cache.seed_frequent_probabilities(
                    base, [with_item for _, with_item in extended]
                )
        else:
            extended = []
            for item in engine.items:
                if item in item_set:
                    continue
                with_item = engine.intersect(base, engine.item_tidset(item))
                if len(with_item) >= self.min_sup:
                    extended.append((item, with_item))
        absent_factors = engine.absent_factors(
            base, [with_item for _, with_item in extended]
        )
        events: List[ExtensionEvent] = []
        for (item, with_item), absent_factor in zip(extended, absent_factors):
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
        return absent * self._cache.frequent_probability_of_tidset(tidset)

    def _seed_pairwise(self) -> None:
        """One-time batch fill of the pairwise matrix on vectorized engines.

        All ``m·(m−1)/2`` conjunction tidsets come from one stacked matrix
        AND, every surviving ``Pr_F`` from one batched DP, and every absent
        factor from one batched gather — value-wise identical to the lazy
        per-pair path (0.0 below ``min_sup``, the factored formula
        otherwise).  The values land directly in the symmetric pairwise
        matrix the bound evaluations bulk-read.
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
        if len(eligible) > 1:
            self._cache.seed_frequent_probabilities(self.base_tidset, eligible)
        absent_factors = iter(engine.absent_factors(self.base_tidset, eligible))
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
                if len(tidset) < self.min_sup:
                    value = 0.0
                else:
                    value = next(absent_factors) * frequent(tidset)
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

        On vectorized engines every expansion node is *frontier-batched*:
        the node's surviving sibling conjunctions come from one
        ``intersect_many`` (one matrix AND), their ``Pr_F`` values from one
        padded batched support DP,
        and their absent factors from one stacked gather.  The terms are
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
                    tidset, [event.tidset for event in events[start:]]
                )
                survivors = [
                    intersection
                    for intersection in intersections
                    if len(intersection) >= min_sup
                ]
                if not survivors:
                    return
                if len(survivors) > 1:
                    cache.seed_frequent_probabilities(self.base_tidset, survivors)
                absent_factors = iter(
                    engine.absent_factors(self.base_tidset, survivors)
                )
                for offset, intersection in enumerate(intersections):
                    if len(intersection) < min_sup:
                        continue
                    term = next(absent_factors) * cache.frequent_probability_of_tidset(
                        intersection
                    )
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
