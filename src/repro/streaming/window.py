"""Sliding-window uncertain transaction database.

A :class:`WindowedUncertainDatabase` is the streaming counterpart of
:class:`repro.core.database.UncertainDatabase`: an ordered window over an
unbounded uncertain transaction stream, holding the most recent ``capacity``
rows (or every row, in landmark mode).  It maintains, incrementally:

* the **vertical index** — per item, the positions of the window rows that
  contain it, as a deque of monotonically increasing *absolute sequence
  numbers*; appending pushes right, evicting pops left, so both are O(items
  per transaction) amortized;
* per-item **expected supports** (the Chernoff–Hoeffding screening input of
  :class:`repro.uncertain.stream.ProbabilisticItemStream`), updated by one
  add/subtract per touched item;
* a **generation** counter, bumped once per append (covering the paired
  eviction), which keys downstream invalidation: window positions are
  renumbered by every slide, so any position-keyed structure — notably
  :class:`repro.core.cache.SupportDPCache` — must be rebound when the
  generation changes.

Window-relative tidsets (``tidset_of_item``) are derived from the absolute
sequence numbers by subtracting the eviction count; because rows only ever
leave from the front, the relative order of surviving rows is stable, which
is what makes branch results reusable across slides (see
``docs/streaming.md``).

``snapshot()`` materializes the current window as a plain
:class:`UncertainDatabase` (cached per generation) so the batch miners run
on it unchanged.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..core._types import WordArray
from ..core.database import Tidset, UncertainDatabase, UncertainTransaction
from ..core.itemsets import Item, Itemset, canonical
from ..core.tidsets import pack_positions

__all__ = ["WindowedUncertainDatabase"]


class WindowedUncertainDatabase:
    """Bounded window of uncertain transactions with an incremental index.

    Args:
        capacity: sliding-window length in transactions; ``None`` keeps
            every appended row (landmark mode, used by the item-level
            stream adapter).

    Usage::

        window = WindowedUncertainDatabase(capacity=500)
        for txn in feed:
            evicted = window.append(txn)     # None until the window fills
        database = window.snapshot()         # plain UncertainDatabase
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 when set, got {capacity}")
        self._capacity = capacity
        # Rows are keyed by absolute sequence number; the live window is the
        # contiguous range [_evicted_count, _appended_count).
        self._rows: Dict[int, UncertainTransaction] = {}
        self._positions: Dict[Item, Deque[int]] = {}
        self._expected: Dict[Item, float] = {}
        self._appended_count = 0
        self._evicted_count = 0
        self._generation = 0
        self._snapshot: Optional[UncertainDatabase] = None
        self._snapshot_generation = -1
        # Incrementally maintained packed bitmaps for the bitmap tidset
        # engine: per-item uint64 word arrays (all `_bitmap_capacity` words
        # long) plus one probability layout, where bit ``b`` is the row with
        # absolute sequence number ``b + _pack_base``.  Appends set one bit
        # per item, evictions clear it; when too many dead leading bits
        # accumulate, `_repack()` rebases everything (generation-aware
        # re-pack) so the arrays stay proportional to the window.
        self._bitmap_capacity = 1  # words
        self._bitmap_words: Dict[Item, WordArray] = {}
        self._bitmap_prob = np.zeros(64, dtype=np.float64)
        self._pack_base = 0
        self._bitmap_repacks = 0

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def append(
        self, transaction: UncertainTransaction
    ) -> Optional[UncertainTransaction]:
        """Append one transaction; returns the evicted row when full.

        One append (plus its paired eviction) is one *slide* and bumps the
        generation exactly once.
        """
        sequence = self._appended_count
        self._rows[sequence] = transaction
        self._appended_count += 1
        bit = sequence - self._pack_base
        if bit >= self._bitmap_capacity * 64:
            self._grow_bitmaps(bit + 1)
        word, mask = bit >> 6, np.uint64(1 << (bit & 63))
        self._bitmap_prob[bit] = transaction.probability
        for item in transaction.items:
            self._positions.setdefault(item, deque()).append(sequence)
            self._expected[item] = (
                self._expected.get(item, 0.0) + transaction.probability
            )
            words = self._bitmap_words.get(item)
            if words is None:
                words = np.zeros(self._bitmap_capacity, dtype=np.uint64)
                self._bitmap_words[item] = words
            words[word] |= mask
        evicted = None
        if self._capacity is not None and len(self._rows) > self._capacity:
            evicted = self._evict_oldest()
        self._generation += 1
        return evicted

    def append_row(
        self, tid: str, items: Iterable[Item], probability: float
    ) -> Optional[UncertainTransaction]:
        """Convenience wrapper building the transaction from a row triple."""
        return self.append(UncertainTransaction(tid, canonical(items), probability))

    def extend(
        self, transactions: Iterable[UncertainTransaction]
    ) -> List[UncertainTransaction]:
        """Append many transactions; returns the evicted rows in order."""
        evictions: List[UncertainTransaction] = []
        for transaction in transactions:
            evicted = self.append(transaction)
            if evicted is not None:
                evictions.append(evicted)
        return evictions

    def _evict_oldest(self) -> UncertainTransaction:
        sequence = self._evicted_count
        transaction = self._rows.pop(sequence)
        self._evicted_count += 1
        bit = sequence - self._pack_base
        word, mask = bit >> 6, np.uint64(1 << (bit & 63))
        self._bitmap_prob[bit] = 0.0
        for item in transaction.items:
            bucket = self._positions[item]
            # Sequence numbers are appended in order, so the oldest is
            # always leftmost.
            bucket.popleft()
            if bucket:
                self._expected[item] -= transaction.probability
                self._bitmap_words[item][word] &= ~mask
            else:
                del self._positions[item]
                del self._expected[item]
                del self._bitmap_words[item]
        dead = self._evicted_count - self._pack_base
        if dead > max(64, 2 * len(self._rows)):
            self._repack()
        return transaction

    # ------------------------------------------------------------------
    # bitmap maintenance
    # ------------------------------------------------------------------
    def _grow_bitmaps(self, needed_bits: int) -> None:
        """Double the shared word capacity until ``needed_bits`` fit."""
        capacity = self._bitmap_capacity
        while capacity * 64 < needed_bits:
            capacity *= 2
        grown_prob = np.zeros(capacity * 64, dtype=np.float64)
        grown_prob[: len(self._bitmap_prob)] = self._bitmap_prob
        self._bitmap_prob = grown_prob
        for item, words in self._bitmap_words.items():
            grown = np.zeros(capacity, dtype=np.uint64)
            grown[: len(words)] = words
            self._bitmap_words[item] = grown
        self._bitmap_capacity = capacity

    def _repack(self) -> None:
        """Rebase bit 0 onto the oldest live row, dropping dead leading bits.

        Amortized O(window) every O(window) evictions, so the per-slide cost
        stays O(1) while the arrays never exceed ~3x the live window.
        """
        self._pack_base = self._evicted_count
        needed_bits = max(self._appended_count - self._pack_base, 1)
        self._bitmap_capacity = (needed_bits + 63) // 64
        n_bits = self._bitmap_capacity * 64
        self._bitmap_words = {
            item: pack_positions(
                [sequence - self._pack_base for sequence in positions], n_bits
            )
            for item, positions in self._positions.items()
        }
        prob = np.zeros(n_bits, dtype=np.float64)
        for sequence, transaction in self._rows.items():
            prob[sequence - self._pack_base] = transaction.probability
        self._bitmap_prob = prob
        self._bitmap_repacks += 1

    @property
    def bitmap_repacks(self) -> int:
        """How often the packed bitmaps were rebased (observability hook)."""
        return self._bitmap_repacks

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[UncertainTransaction]:
        return (
            self._rows[sequence]
            for sequence in range(self._evicted_count, self._appended_count)
        )

    def __getitem__(self, position: int) -> UncertainTransaction:
        if not 0 <= position < len(self._rows):
            raise IndexError(f"window position out of range: {position}")
        return self._rows[self._evicted_count + position]

    @property
    def capacity(self) -> Optional[int]:
        return self._capacity

    @property
    def generation(self) -> int:
        """Monotonic slide counter; changes whenever positions are renumbered."""
        return self._generation

    @property
    def total_appended(self) -> int:
        """Transactions ever appended (ignores eviction)."""
        return self._appended_count

    @property
    def total_evicted(self) -> int:
        return self._evicted_count

    @property
    def transactions(self) -> Tuple[UncertainTransaction, ...]:
        return tuple(self)

    @property
    def items(self) -> Itemset:
        """Distinct in-window items, in canonical order."""
        return canonical(self._positions.keys())

    @property
    def distinct_items(self) -> Tuple[Item, ...]:
        """Distinct in-window items, unordered (safe for unsortable mixes)."""
        return tuple(self._positions.keys())

    # ------------------------------------------------------------------
    # per-item quantities (the screening inputs)
    # ------------------------------------------------------------------
    def count_of_item(self, item: Item) -> int:
        """Number of in-window transactions containing ``item``."""
        positions = self._positions.get(item)
        return len(positions) if positions is not None else 0

    def expected_support_of_item(self, item: Item) -> float:
        """Incrementally maintained ``E[support(item)]`` over the window."""
        return self._expected.get(item, 0.0)

    def tidset_of_item(self, item: Item) -> Tidset:
        """Window-relative positions of the transactions containing ``item``."""
        offset = self._evicted_count
        return tuple(
            sequence - offset for sequence in self._positions.get(item, ())
        )

    def item_probabilities(self, item: Item) -> Tuple[float, ...]:
        """Existence probabilities of ``item``'s transactions, window order."""
        return tuple(
            self._rows[sequence].probability
            for sequence in self._positions.get(item, ())
        )

    # ------------------------------------------------------------------
    # batch-miner bridge
    # ------------------------------------------------------------------
    def snapshot(self) -> UncertainDatabase:
        """The current window as a plain :class:`UncertainDatabase`.

        Cached per generation, so repeated reads between slides are free.
        The maintained vertical index is handed to the database directly
        (window-relative positions), skipping the constructor's index
        rebuild; transaction ids must be unique within the window.
        """
        if self._snapshot_generation != self._generation:
            offset = self._evicted_count
            vertical = {
                item: tuple(sequence - offset for sequence in positions)
                for item, positions in self._positions.items()
            }
            # Hand the incrementally maintained bitmaps to the snapshot so
            # its bitmap tidset engine skips the O(rows × items) re-pack.
            # Bit b of the handed words is window position b - dead_bits.
            dead_bits = self._evicted_count - self._pack_base
            n_words = (dead_bits + len(self._rows) + 63) // 64
            bitmap_parts = {
                "offset": dead_bits,
                "words": {
                    item: words[:n_words].copy()
                    for item, words in self._bitmap_words.items()
                },
                "probabilities": self._bitmap_prob[: max(n_words, 1) * 64].copy(),
            }
            self._snapshot = UncertainDatabase.from_indexed_parts(
                list(self), vertical, bitmap_parts=bitmap_parts
            )
            self._snapshot_generation = self._generation
        snapshot = self._snapshot
        assert snapshot is not None
        return snapshot

    def __repr__(self) -> str:
        capacity = "landmark" if self._capacity is None else self._capacity
        return (
            f"WindowedUncertainDatabase(size={len(self)}, capacity={capacity}, "
            f"items={len(self._positions)}, generation={self._generation})"
        )
