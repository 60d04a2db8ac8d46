"""Shared support-DP cache — the memoization substrate of the mining runtime.

The hot path of every miner is the Poisson-binomial machinery of
:mod:`repro.core.support`: the frequent-probability DP behind ``Pr_F``
(Definition 3.4) and the suffix tail tables the ApproxFCP sampler consumes.
Both depend only on (tidset, ``min_sup``), and the enumeration tree revisits
the same tidsets constantly — a node's tidset is re-read when the node is
checked, extension-event tidsets recur across sibling checks, and pairwise
conjunction tidsets overlap heavily (Bernecker et al.'s ProFP-Growth makes
the same observation for plain frequentness mining: memoizing the DP across
the tree is the dominant constant-factor win).

:class:`SupportDPCache` centralizes that reuse behind one keyed, bounded
object:

* ``Pr_F`` values, tail tables, and tidset probability tuples are each
  memoized by tidset under LRU eviction, so memory stays bounded on
  adversarial workloads while typical runs never evict;
* every lookup is counted (hits / misses / evictions per table), which is
  what :class:`repro.core.stats.MiningStats` reports as the DP-cache block;
* one instance is threaded through a whole mining run — ``MPFCIMiner``,
  ``MPFCIBreadthFirstMiner`` and the parallel branch workers hand their
  cache to :class:`repro.core.events.ExtensionEventSystem`, the Lemma 4.4
  bound evaluation, and the ApproxFCP sampler, replacing the former
  per-call recomputation of tail tables and probability tuples.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ._types import FloatArray, TidsetEngine
from .itemsets import Itemset

if TYPE_CHECKING:
    from .database import UncertainDatabase

__all__ = ["SupportDPCache", "DEFAULT_CACHE_SIZE", "DEFAULT_TABLE_CACHE_SIZE"]

# Value entries are one float keyed by a position tuple; generous by default
# so realistic runs behave like an unbounded memo table.
DEFAULT_CACHE_SIZE = 65536
# Tail tables are (k+1) x (min_sup+1) arrays — far heavier per entry.
DEFAULT_TABLE_CACHE_SIZE = 2048


class SupportDPCache:
    """Keyed, bounded-size memo table for the support-DP quantities.

    Keys are the sorted position tuples produced by
    :meth:`repro.core.database.UncertainDatabase.tidset`; the cached value
    depends only on the tidset and ``min_sup``, so one instance must never
    be shared between configurations with different ``min_sup``.

    Three internal tables, each LRU-bounded independently:

    ========================  ==========================================
    table                     holds
    ========================  ==========================================
    values                    ``Pr_F(tidset) = Pr[support >= min_sup]``
    tail tables               suffix tail DP of ``tail_probability_table``
    probabilities             the tidset's probability tuple
    ========================  ==========================================

    Counters (``hits`` / ``misses`` / ``evictions`` for the value table,
    ``table_hits`` / ``table_misses`` / ``table_evictions`` for tail
    tables, ``dp_invocations`` for actual DP runs of either kind) feed the
    :class:`~repro.core.stats.MiningStats` report; by construction
    ``hits + misses`` equals the number of ``Pr_F`` requests.
    """

    def __init__(
        self,
        database: "UncertainDatabase",
        min_sup: int,
        max_entries: int = DEFAULT_CACHE_SIZE,
        max_tables: int = DEFAULT_TABLE_CACHE_SIZE,
        generation: Optional[int] = None,
        engine: Optional[TidsetEngine] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_tables < 1:
            raise ValueError(f"max_tables must be >= 1, got {max_tables}")
        self._database = database
        self._min_sup = min_sup
        # Optional tidset engine (repro.core.tidsets): when set, probability
        # tuples are gathered through it, so bitmap tidsets resolve in one
        # vectorized gather instead of per-position indexing.
        self._engine = engine
        self.generation = generation
        self.max_entries = max_entries
        self.max_tables = max_tables
        self._values: "OrderedDict[Tuple[int, ...], float]" = OrderedDict()
        self._tables: "OrderedDict[Tuple[int, ...], FloatArray]" = OrderedDict()
        self._probabilities: "OrderedDict[Tuple[int, ...], Tuple[float, ...]]" = (
            OrderedDict()
        )
        # Second-level memos keyed by the ordered *probability tuple* rather
        # than by positions.  The DP quantities are pure functions of that
        # tuple, and a sliding window renumbers positions every slide while
        # leaving the surviving rows' probability tuples untouched — so these
        # maps survive rebind() and turn most post-slide recomputation into
        # lookups.  Determinism is preserved: the key is the *ordered* tuple,
        # so a hit returns bit-for-bit what recomputing would.
        self._values_by_probs: "OrderedDict[Tuple[float, ...], float]" = OrderedDict()
        self._tables_by_probs: "OrderedDict[Tuple[float, ...], FloatArray]" = (
            OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.table_hits = 0
        self.table_misses = 0
        self.table_evictions = 0
        self.dp_invocations = 0
        self.batch_invocations = 0
        self.generation_invalidations = 0
        self.cross_generation_hits = 0

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def database(self) -> "UncertainDatabase":
        return self._database

    @property
    def min_sup(self) -> int:
        return self._min_sup

    @property
    def engine(self) -> Optional[TidsetEngine]:
        """The tidset engine lookups go through (``None`` = raw database)."""
        return self._engine

    def adopt_engine(self, engine: TidsetEngine) -> None:
        """Bind an engine to an engine-less cache (miners adopting external
        caches use this); rebinding to a *different* engine is an error —
        that would mean two miners over different databases share the cache.
        """
        if self._engine is None:
            self._engine = engine
        elif self._engine is not engine:
            raise ValueError("support cache is already bound to another engine")

    def __len__(self) -> int:
        """Number of cached ``Pr_F`` values (the primary table)."""
        return len(self._values)

    def rebind(
        self,
        database: "UncertainDatabase",
        generation: Optional[int] = None,
        engine: Optional[TidsetEngine] = None,
    ) -> bool:
        """Adopt a new backing database (e.g. a fresh window snapshot).

        Position-keyed entries are invalidated: positions are renumbered by
        every window slide, so the tidset-keyed tables are cleared and the
        cache starts serving the new database.  The probability-keyed
        second-level memos survive — they are position-independent pure
        function tables, and reusing them across slides is the streaming
        monitor's main DP saving.  Counters survive too (they describe the
        cache's whole life, and ``generation_invalidations`` records how
        often this happened).  Returns True when an invalidation occurred;
        rebinding to the identical database + generation is a no-op.
        """
        if database is self._database and generation == self.generation:
            return False
        self._database = database
        self._engine = engine
        self.generation = generation
        self.generation_invalidations += 1
        self._values.clear()
        self._tables.clear()
        self._probabilities.clear()
        return True

    @property
    def table_count(self) -> int:
        return len(self._tables)

    # ------------------------------------------------------------------
    # cached quantities
    # ------------------------------------------------------------------
    def probabilities_of_tidset(self, tidset: Tuple[int, ...]) -> Tuple[float, ...]:
        """The tidset's probability tuple, memoized.

        Building the tuple is O(|tidset|) per call and sits under every DP,
        absent factor, and expected-support computation, so the miner's
        repeated reads of the same node tidset come from here.
        """
        cached = self._probabilities.get(tidset)
        if cached is not None:
            self._probabilities.move_to_end(tidset)
            return cached
        if self._engine is not None:
            value = self._engine.probabilities(tidset)
        else:
            value = self._database.tidset_probabilities(tidset)
        self._probabilities[tidset] = value
        if len(self._probabilities) > self.max_entries:
            self._probabilities.popitem(last=False)
        return value

    def expected_support_of_tidset(self, tidset: Tuple[int, ...]) -> float:
        """Expected support (the Lemma 4.1 input) from the cached tuple.

        ``math.fsum`` is exactly rounded (order-independent), so the value
        is identical across tidset backends and free of accumulation drift.
        """
        return math.fsum(self.probabilities_of_tidset(tidset))

    def frequent_probability_of_tidset(self, tidset: Tuple[int, ...]) -> float:
        """``Pr_F`` of the tidset, memoized under LRU eviction."""
        cached = self._values.get(tidset)
        if cached is not None:
            self.hits += 1
            self._values.move_to_end(tidset)
            return cached
        self.misses += 1
        probabilities = self.probabilities_of_tidset(tidset)
        value = self._values_by_probs.get(probabilities)
        if value is not None:
            self.cross_generation_hits += 1
            self._values_by_probs.move_to_end(probabilities)
        else:
            self.dp_invocations += 1
            from .support import frequent_probability

            value = frequent_probability(probabilities, self._min_sup)
            self._values_by_probs[probabilities] = value
            if len(self._values_by_probs) > self.max_entries:
                self._values_by_probs.popitem(last=False)
        self._values[tidset] = value
        if len(self._values) > self.max_entries:
            self._values.popitem(last=False)
            self.evictions += 1
        return value

    def frequent_probability_of_itemset(self, itemset: Itemset) -> float:
        """``Pr_F`` of the itemset, its tidset from the bound engine."""
        if self._engine is not None:
            return self.frequent_probability_of_tidset(self._engine.tidset_of(itemset))
        return self.frequent_probability_of_tidset(self._database.tidset(itemset))

    def seed_frequent_probabilities(
        self,
        base_tidset: Tuple[int, ...],
        candidates: Iterable[Tuple[int, ...]],
    ) -> int:
        """Batch-fill the ``Pr_F`` memo for tidsets that refine ``base_tidset``.

        ``candidates`` are tidsets obtained by intersecting ``base_tidset``
        with sibling item tidsets, so each is a sub-mask of the base.  Their
        already-memoized probability tuples are packed into one left-aligned
        zero-padded matrix and evaluated as ONE batched DP
        (:func:`repro.core.support.frequent_probability_padded_batch`) —
        bit-for-bit identical to running
        :func:`~repro.core.support.frequent_probability` per tidset, but
        with the Python-level column loop amortized across the batch.

        Seeding is a supply-side operation: it fills ``_values`` (and the
        probability-keyed second level) without touching ``hits``/``misses``,
        so the ``hits + misses == requests`` invariant still describes
        demand-side lookups only.  Each DP actually run counts toward both
        ``dp_invocations`` and ``batch_invocations``.  Requires a vectorized
        engine; returns the number of DP values computed.
        """
        engine = self._engine
        if engine is None or not getattr(engine, "vectorized", False):
            raise ValueError("seed_frequent_probabilities needs a vectorized engine")
        pending: List[Tuple[int, ...]] = []
        pending_probs: List[Tuple[float, ...]] = []
        seen: Set[Tuple[int, ...]] = set()
        for tidset in candidates:
            if tidset in self._values or tidset in seen:
                continue
            seen.add(tidset)
            probabilities = self.probabilities_of_tidset(tidset)
            value = self._values_by_probs.get(probabilities)
            if value is not None:
                self.cross_generation_hits += 1
                self._values_by_probs.move_to_end(probabilities)
                self._store_value(tidset, value)
                continue
            pending.append(tidset)
            pending_probs.append(probabilities)
        if not pending:
            return 0
        from .support import frequent_probability_padded_batch

        padded = np.zeros(
            (len(pending), max(len(probs) for probs in pending_probs))
        )
        for row, probabilities in enumerate(pending_probs):
            padded[row, : len(probabilities)] = probabilities
        values = frequent_probability_padded_batch(padded, self._min_sup)
        self.dp_invocations += len(pending)
        self.batch_invocations += len(pending)
        for tidset, probabilities, raw_value in zip(pending, pending_probs, values):
            scalar = float(raw_value)
            self._values_by_probs[probabilities] = scalar
            if len(self._values_by_probs) > self.max_entries:
                self._values_by_probs.popitem(last=False)
            self._store_value(tidset, scalar)
        return len(pending)

    def _store_value(self, tidset: Tuple[int, ...], value: float) -> None:
        self._values[tidset] = value
        if len(self._values) > self.max_entries:
            self._values.popitem(last=False)
            self.evictions += 1

    def tail_table_of_tidset(self, tidset: Tuple[int, ...]) -> FloatArray:
        """The suffix tail table of the tidset (ApproxFCP's sampler input)."""
        cached = self._tables.get(tidset)
        if cached is not None:
            self.table_hits += 1
            self._tables.move_to_end(tidset)
            return cached
        self.table_misses += 1
        probabilities = self.probabilities_of_tidset(tidset)
        table = self._tables_by_probs.get(probabilities)
        if table is not None:
            self.cross_generation_hits += 1
            self._tables_by_probs.move_to_end(probabilities)
        else:
            self.dp_invocations += 1
            from .support import tail_probability_table

            table = tail_probability_table(probabilities, self._min_sup)
            self._tables_by_probs[probabilities] = table
            if len(self._tables_by_probs) > self.max_tables:
                self._tables_by_probs.popitem(last=False)
        self._tables[tidset] = table
        if len(self._tables) > self.max_tables:
            self._tables.popitem(last=False)
            self.table_evictions += 1
        return table

    # ------------------------------------------------------------------
    # statistics plumbing
    # ------------------------------------------------------------------
    @property
    def requests(self) -> int:
        """Total ``Pr_F`` lookups; equals ``hits + misses`` by construction."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of ``Pr_F`` requests served from cache (0 when idle)."""
        return self.hits / self.requests if self.requests else 0.0

    def counters(self) -> Dict[str, int]:
        """Snapshot of every counter, in ``MiningStats`` field naming."""
        return {
            "dp_cache_hits": self.hits,
            "dp_cache_misses": self.misses,
            "dp_cache_evictions": self.evictions,
            "dp_tail_table_hits": self.table_hits,
            "dp_tail_table_misses": self.table_misses,
            "dp_tail_table_evictions": self.table_evictions,
            "dp_invocations": self.dp_invocations,
            "dp_batch_invocations": self.batch_invocations,
            "dp_generation_invalidations": self.generation_invalidations,
            "dp_cross_generation_hits": self.cross_generation_hits,
        }

    def clear(self) -> None:
        """Drop every entry (both key levels); counters are preserved."""
        self._values.clear()
        self._tables.clear()
        self._probabilities.clear()
        self._values_by_probs.clear()
        self._tables_by_probs.clear()

    def __repr__(self) -> str:
        return (
            f"SupportDPCache(min_sup={self._min_sup}, entries={len(self._values)}, "
            f"tables={len(self._tables)}, hits={self.hits}, misses={self.misses})"
        )
