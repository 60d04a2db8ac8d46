"""Pluggable tidset backends: the sorted-tuple oracle and the packed-bitmap engine.

Every quantity the MPFCI framework computes — counts, Chernoff–Hoeffding
screens, support DPs, extension events, pairwise bounds, ApproxFCP draws —
is a function of a *tidset* (the positions of the transactions containing an
itemset).  This module makes the tidset representation pluggable:

* :class:`TupleTidsetEngine` keeps the historical representation — sorted
  tuples of integer positions, intersected through Python sets.  It is the
  cross-check oracle: simple, obviously correct, and what every result-parity
  test compares against.
* :class:`BitmapTidsetEngine` packs tidsets into ``numpy.uint64`` word
  arrays (:class:`BitmapTidset`).  Intersection is a word-wise ``&``,
  support counting is a vectorized popcount, and probability access is a
  boolean-mask gather from one contiguous ``float64`` layout — so the hot
  loops run word-parallel instead of per-tid.

Both engines expose the same algebra (``item_tidset`` / ``intersect`` /
``positions`` / ``probabilities`` / ``absent_factor`` / ``superset_covered``)
and are constructed through :meth:`UncertainDatabase.tidset_engine`, which
caches one instance per backend per database.  Numeric parity is exact, not
approximate: the bitmap paths evaluate the same IEEE-754 operations in the
same order as the tuple paths (ascending position order everywhere), so the
two backends produce bit-for-bit identical mining results — a property the
backend-parity tests assert field by field.

Word layout.  Bit ``b`` of the packed array (little-endian bit order within
each 64-bit word) corresponds to transaction position ``b - offset``.  The
``offset`` is 0 for batch databases; sliding-window snapshots hand over
bitmap words whose leading ``offset`` bits are dead (already-evicted rows,
kept zero) so the window can maintain its bitmaps incrementally without
re-packing on every slide.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..registry import TIDSET_BACKENDS as _BACKEND_REGISTRY
from ._types import FloatArray, IntArray, TidsetEngine, WordArray
from .itemsets import Item, Itemset, canonical

if TYPE_CHECKING:
    from .database import UncertainDatabase

__all__ = [
    "BitmapTidset",
    "TupleTidsetEngine",
    "BitmapTidsetEngine",
    "TIDSET_BACKENDS",
    "make_engine",
    "pack_positions",
]

TIDSET_BACKENDS = ("tuple", "bitmap")

# numpy >= 2.0 exposes a vectorized popcount ufunc; older versions fall back
# to a 256-entry byte lookup table (the classic LUT popcount).
_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")
_POPCOUNT_LUT = np.array(
    [bin(value).count("1") for value in range(256)], dtype=np.uint32
)


def _popcount_words(words: WordArray) -> int:
    """Number of set bits in a packed uint64 word array."""
    if not len(words):
        return 0
    if _HAS_BITWISE_COUNT:
        return int(np.bitwise_count(words).sum())
    return int(_POPCOUNT_LUT[words.view(np.uint8)].sum())


def _popcount_rows(matrix: WordArray) -> IntArray:
    """Per-row popcount of a ``(rows, words)`` uint64 matrix."""
    if matrix.size == 0:
        return np.zeros(matrix.shape[0], dtype=np.int64)
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(matrix).sum(axis=1, dtype=np.int64)
    bytes_view = matrix.view(np.uint8).reshape(matrix.shape[0], -1)
    return _POPCOUNT_LUT[bytes_view].sum(axis=1, dtype=np.int64)


def pack_positions(positions: Sequence[int], n_bits: int) -> WordArray:
    """Pack bit indices into a little-endian uint64 word array.

    ``n_bits`` is the logical bit width; the result has ``ceil(n_bits / 64)``
    words with every bit beyond ``n_bits`` clear, so word-wise ``&`` / ``|``
    never see stray padding bits.
    """
    n_words = (n_bits + 63) // 64
    mask = np.zeros(n_words * 64, dtype=bool)
    if len(positions):
        mask[np.asarray(positions, dtype=np.int64)] = True
    packed = np.packbits(mask, bitorder="little")
    return np.ascontiguousarray(packed).view(np.uint64)


def _bit_indices(words: WordArray) -> IntArray:
    """Indices of the set bits of a packed word array, ascending."""
    if not len(words):
        return np.zeros(0, dtype=np.int64)
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    return np.flatnonzero(bits)


class BitmapTidset:
    """One tidset as a packed ``uint64`` word array.

    Bit ``b`` set means transaction position ``b - offset`` is in the set.
    Instances are value objects: equality and hashing go through the raw
    word bytes (the *bitmap digest*), which is what lets the support-DP
    cache key its memo tables on bitmaps exactly as it keys on tuples.
    The words array is treated as immutable; engines hand out read-only
    arrays.
    """

    __slots__ = (
        "words",
        "offset",
        "_count",
        "_digest",
        "_hash",
        "_bits",
        "_positions",
    )

    def __init__(
        self, words: WordArray, offset: int = 0, count: Optional[int] = None
    ) -> None:
        self.words = words
        self.offset = offset
        self._count = count
        self._digest: Optional[bytes] = None
        self._hash: Optional[int] = None
        self._bits: Optional[IntArray] = None
        self._positions: Optional[Tuple[int, ...]] = None

    def __len__(self) -> int:
        if self._count is None:
            self._count = _popcount_words(self.words)
        return self._count

    def __bool__(self) -> bool:
        if self._count is not None:
            return self._count > 0
        return bool(self.words.any())

    @property
    def digest(self) -> bytes:
        """Raw little-endian word bytes; the cache key of this tidset."""
        if self._digest is None:
            self._digest = self.words.tobytes()
        return self._digest

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.digest)
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BitmapTidset):
            return self.digest == other.digest
        return NotImplemented

    def bit_index_array(self) -> IntArray:
        """Set-bit indices (gather indices into the probability layout)."""
        if self._bits is None:
            self._bits = _bit_indices(self.words)
        return self._bits

    def positions(self) -> Tuple[int, ...]:
        """Transaction positions as a sorted tuple (offset removed)."""
        if self._positions is None:
            bits = self.bit_index_array()
            if self.offset:
                bits = bits - self.offset
            self._positions = tuple(bits.tolist())
        return self._positions

    def __iter__(self) -> Iterator[int]:
        return iter(self.positions())

    # __slots__ classes need explicit pickle support on Python < 3.11; the
    # compact state is just the word array (lazy caches rebuild on demand).
    def __getstate__(self) -> Tuple[WordArray, int, Optional[int]]:
        return (self.words, self.offset, self._count)

    def __setstate__(self, state: Tuple[WordArray, int, Optional[int]]) -> None:
        self.words, self.offset, self._count = state
        self._digest = None
        self._hash = None
        self._bits = None
        self._positions = None

    def __repr__(self) -> str:
        return f"BitmapTidset(count={len(self)}, words={len(self.words)})"


class _EngineCounters:
    """Shared work counters; snapshotted into ``MiningStats`` per run."""

    def __init__(self) -> None:
        self.intersections = 0
        self.words_anded = 0
        self.popcounts = 0
        self.gathers = 0

    def counters(self) -> Dict[str, int]:
        """Snapshot in ``MiningStats`` field naming (monotonic totals)."""
        return {
            "tidset_intersections": self.intersections,
            "tidset_words_anded": self.words_anded,
            "tidset_popcounts": self.popcounts,
            "tidset_gathers": self.gathers,
        }


class TupleTidsetEngine(_EngineCounters):
    """Sorted-tuple tidset algebra — the cross-check oracle backend."""

    name = "tuple"
    vectorized = False

    def __init__(self, database: "UncertainDatabase") -> None:
        super().__init__()
        self._database = database
        # database.items sorts on every property read; cache the canonical
        # order once (the database is immutable after construction).
        self._items: Itemset = database.items
        self._probabilities = database.probabilities
        self._size = len(database)

    @property
    def database(self) -> "UncertainDatabase":
        return self._database

    @property
    def items(self) -> Itemset:
        return self._items

    def item_tidset(self, item: Item) -> Tuple[int, ...]:
        return self._database.tidset_of_item(item)

    def universe(self) -> Tuple[int, ...]:
        return tuple(range(self._size))

    def tidset_of(self, items: Iterable[Item]) -> Tuple[int, ...]:
        return self._database.tidset(items)

    def intersect(
        self, first: Tuple[int, ...], second: Tuple[int, ...]
    ) -> Tuple[int, ...]:
        self.intersections += 1
        from .database import intersect_tidsets

        return intersect_tidsets(first, second)

    def positions(self, tidset: Tuple[int, ...]) -> Tuple[int, ...]:
        return tidset

    def probabilities(self, tidset: Tuple[int, ...]) -> Tuple[float, ...]:
        return self._database.tidset_probabilities(tidset)

    def probabilities_array(self, tidset: Tuple[int, ...]) -> FloatArray:
        self.gathers += 1
        return np.asarray(self.probabilities(tidset), dtype=np.float64)

    def absent_factor(
        self, base: Tuple[int, ...], kept: Tuple[int, ...]
    ) -> float:
        """``Π (1 − p_t)`` over positions of ``base`` not in ``kept``."""
        kept_set = set(kept)
        probabilities = self._probabilities
        factor = 1.0
        for position in base:
            if position not in kept_set:
                factor *= 1.0 - probabilities[position]
        return factor

    def absent_factors(
        self, base: Tuple[int, ...], kept_list: Sequence[Tuple[int, ...]]
    ) -> List[float]:
        """:meth:`absent_factor` for every kept tidset (serial loop here)."""
        return [self.absent_factor(base, kept) for kept in kept_list]

    def superset_covered(self, itemset: Itemset, tidset: Tuple[int, ...]) -> bool:
        """Lemma 4.2 scan: an item before the branch item covering ``tidset``."""
        last_item = itemset[-1]
        item_set = set(itemset)
        tid_count = len(tidset)
        tid_set = set(tidset)
        database = self._database
        for item in self._items:
            if item >= last_item:
                break
            if item in item_set:
                continue
            other = database.tidset_of_item(item)
            if len(other) >= tid_count and tid_set.issubset(other):
                return True
        return False


class BitmapTidsetEngine(_EngineCounters):
    """Packed-bitmap tidset algebra with vectorized probability gathering.

    The item tidsets live as rows of one ``(items, words)`` uint64 matrix,
    so batch operations (extension scans, pairwise conjunctions, superset
    cover checks) are matrix ``&`` plus row popcounts.  The per-position
    probabilities live in one contiguous ``float64`` layout indexed by bit
    position, so a tidset's probability vector is a single fancy-index
    gather.

    ``item_words`` / ``probability_layout`` / ``offset`` let a sliding
    window hand over incrementally maintained bitmaps (see
    ``repro.streaming.window``); ``item_matrix`` lets the columnar loader
    (:mod:`repro.data.columnar`) hand over the whole packed matrix as one
    read-only memmap without copying; otherwise everything is packed fresh
    from the database's vertical index.
    """

    name = "bitmap"
    vectorized = True

    def __init__(
        self,
        database: "UncertainDatabase",
        item_words: Optional[Dict[Item, WordArray]] = None,
        probability_layout: Optional[FloatArray] = None,
        offset: int = 0,
        item_matrix: Optional[WordArray] = None,
    ) -> None:
        super().__init__()
        if item_words is None and item_matrix is None and offset:
            raise ValueError("offset requires pre-packed item words")
        if item_words is not None and item_matrix is not None:
            raise ValueError("pass item_words or item_matrix, not both")
        self._database = database
        self._items: Itemset = database.items
        self._item_index = {item: row for row, item in enumerate(self._items)}
        size = len(database)
        self._size = size
        self._offset = offset
        n_bits = offset + size
        self._n_words = (n_bits + 63) // 64

        if item_matrix is not None:
            # Zero-copy adoption: the packed matrix (typically a read-only
            # numpy memmap over a .utdz region) is used as-is.
            if item_matrix.shape != (len(self._items), self._n_words):
                raise ValueError(
                    f"item_matrix shape {item_matrix.shape} does not match "
                    f"({len(self._items)}, {self._n_words})"
                )
            matrix = item_matrix
            if matrix.flags.writeable:
                matrix.setflags(write=False)
        else:
            matrix = np.zeros((len(self._items), self._n_words), dtype=np.uint64)
            for row, item in enumerate(self._items):
                if item_words is None:
                    matrix[row] = pack_positions(database.tidset_of_item(item), n_bits)
                else:
                    words = item_words.get(item)
                    if words is not None:
                        matrix[row, : len(words)] = words
            matrix.setflags(write=False)
        self._matrix = matrix

        width = max(self._n_words, 1) * 64
        if (
            probability_layout is not None
            and isinstance(probability_layout, np.ndarray)
            and probability_layout.dtype == np.float64
            and len(probability_layout) == width
        ):
            # Already in layout form (e.g. the padded .utdz region): adopt
            # the array without copying.
            layout = probability_layout
            if layout.flags.writeable:
                layout.setflags(write=False)
        else:
            layout = np.zeros(width, dtype=np.float64)
            if probability_layout is None:
                if size:
                    layout[offset : offset + size] = database.probabilities
            else:
                supplied = np.asarray(probability_layout, dtype=np.float64)
                limit = min(len(supplied), len(layout))
                layout[:limit] = supplied[:limit]
            layout.setflags(write=False)
        self._prob = layout

        if item_matrix is not None:
            # Adopted matrix: counts come from one row popcount, so the
            # lazy columnar database never materializes its vertical index
            # just to construct this engine.
            row_counts = _popcount_rows(matrix)
            self._item_tidsets: Dict[Item, BitmapTidset] = {
                item: BitmapTidset(matrix[row], offset, count=int(row_counts[row]))
                for row, item in enumerate(self._items)
            }
        else:
            # Counts come from the vertical index (already known).
            self._item_tidsets = {
                item: BitmapTidset(
                    matrix[row], offset, count=len(database.tidset_of_item(item))
                )
                for row, item in enumerate(self._items)
            }
        universe_words = pack_positions(range(offset, offset + size), n_bits)
        universe_words.setflags(write=False)
        self._universe = BitmapTidset(universe_words, offset, count=size)
        empty_words = np.zeros(self._n_words, dtype=np.uint64)
        empty_words.setflags(write=False)
        self._empty = BitmapTidset(empty_words, offset, count=0)

    @property
    def database(self) -> "UncertainDatabase":
        return self._database

    @property
    def items(self) -> Itemset:
        return self._items

    @property
    def offset(self) -> int:
        return self._offset

    @property
    def word_count(self) -> int:
        return self._n_words

    # ------------------------------------------------------------------
    # tidset algebra
    # ------------------------------------------------------------------
    def item_tidset(self, item: Item) -> BitmapTidset:
        tidset = self._item_tidsets.get(item)
        return tidset if tidset is not None else self._empty

    def universe(self) -> BitmapTidset:
        return self._universe

    def tidset_of(self, items: Iterable[Item]) -> BitmapTidset:
        items = canonical(items)
        if not items:
            return self._universe
        rows: List[int] = []
        for item in items:
            row = self._item_index.get(item)
            if row is None:
                return self._empty
            rows.append(row)
        if len(rows) == 1:
            return self._item_tidsets[items[0]]
        words = np.bitwise_and.reduce(self._matrix[rows], axis=0)
        self.intersections += len(rows) - 1
        self.words_anded += (len(rows) - 1) * self._n_words
        self.popcounts += 1
        return BitmapTidset(words, self._offset, count=_popcount_words(words))

    def intersect(self, first: BitmapTidset, second: BitmapTidset) -> BitmapTidset:
        words = first.words & second.words
        self.intersections += 1
        self.words_anded += self._n_words
        self.popcounts += 1
        return BitmapTidset(words, self._offset, count=_popcount_words(words))

    def intersect_many(
        self, base: BitmapTidset, others: Sequence[BitmapTidset], min_count: int = 0
    ) -> List[Optional[BitmapTidset]]:
        """``base ∧ other`` for every other, as one matrix AND; ``None``
        where the intersection holds fewer than ``min_count`` transactions.

        As in :meth:`extend_all_items`, the surviving rows are copied out of
        the ``others × words`` AND result, so a kept tidset does not pin
        the rows that were filtered out.
        """
        if not others:
            return []
        stacked = np.stack([tidset.words for tidset in others])
        intersected = stacked & base.words
        counts = _popcount_rows(intersected)
        self.intersections += len(others)
        self.words_anded += len(others) * self._n_words
        self.popcounts += len(others)
        rows = np.flatnonzero(counts >= min_count)
        kept = intersected[rows]
        out: List[Optional[BitmapTidset]] = [None] * len(others)
        for index, row in enumerate(rows.tolist()):
            out[row] = BitmapTidset(kept[index], self._offset, count=int(counts[row]))
        return out

    def extend_all_items(
        self, base: BitmapTidset, min_count: int = 0
    ) -> List[Tuple[Item, BitmapTidset]]:
        """``(item, base ∧ tidset(item))`` for every item whose extension
        holds at least ``min_count`` transactions, in canonical order.

        The count filter runs on the row popcounts, and the surviving rows
        are copied out of the ``items × words`` AND result, so the tidsets
        a caller keeps (e.g. as support-DP cache keys) do not pin the rows
        that were filtered out.
        """
        intersected = self._matrix & base.words
        counts = _popcount_rows(intersected)
        self.intersections += len(self._items)
        self.words_anded += len(self._items) * self._n_words
        self.popcounts += len(self._items)
        rows = np.flatnonzero(counts >= min_count)
        kept = intersected[rows]
        return [
            (self._items[row], BitmapTidset(kept[index], self._offset, count=int(counts[row])))
            for index, row in enumerate(rows.tolist())
        ]

    def pairwise_conjunctions(
        self, tidsets: Sequence[BitmapTidset]
    ) -> List[BitmapTidset]:
        """All pairwise intersections ``tidsets[i] ∧ tidsets[j]`` for i < j."""
        count = len(tidsets)
        if count < 2:
            return []
        words = np.stack([tidset.words for tidset in tidsets])
        first_index, second_index = np.triu_indices(count, k=1)
        intersected = words[first_index] & words[second_index]
        counts = _popcount_rows(intersected)
        pairs = len(first_index)
        self.intersections += pairs
        self.words_anded += pairs * self._n_words
        self.popcounts += pairs
        return [
            BitmapTidset(intersected[row], self._offset, count=int(counts[row]))
            for row in range(pairs)
        ]

    # ------------------------------------------------------------------
    # probability access (the vectorized gather paths)
    # ------------------------------------------------------------------
    def positions(self, tidset: BitmapTidset) -> Tuple[int, ...]:
        return tidset.positions()

    def probabilities_array(self, tidset: BitmapTidset) -> FloatArray:
        """The tidset's probability vector, one fancy-index gather."""
        self.gathers += 1
        return self._prob[tidset.bit_index_array()]

    def probabilities(self, tidset: Any) -> Tuple[float, ...]:
        if not isinstance(tidset, BitmapTidset):
            # Plain position tuples reach the cache through itemset-keyed
            # entry points; serve them straight from the database.
            return self._database.tidset_probabilities(tidset)
        return tuple(self.probabilities_array(tidset).tolist())

    def absent_factor(self, base: BitmapTidset, kept: BitmapTidset) -> float:
        """``Π (1 − p_t)`` over ``base \\ kept``, ascending position order.

        The sequential product mirrors the tuple engine's loop exactly
        (``math.prod`` multiplies left to right from 1.0), so the factor is
        bit-identical across backends.
        """
        difference = base.words & ~kept.words
        self.words_anded += self._n_words
        indices = _bit_indices(difference)
        if not len(indices):
            return 1.0
        self.gathers += 1
        complements = 1.0 - self._prob[indices]
        return math.prod(complements.tolist())

    def absent_factors(
        self, base: BitmapTidset, kept_list: Sequence[BitmapTidset]
    ) -> List[float]:
        """:meth:`absent_factor` for every kept tidset, one stacked pass.

        The difference masks come from one matrix AND.  Only the base's
        set-bit columns can be in a difference, so each row's product runs
        over those columns alone, ascending, with 1.0 where the kept tidset
        has the bit.  ``x * 1.0`` is an IEEE-754 identity, and
        ``np.multiply.reduce`` runs strictly left to right, so every row
        equals the serial :meth:`absent_factor` bit-for-bit.
        """
        if not kept_list:
            return []
        stacked = np.stack([kept.words for kept in kept_list])
        differences = base.words & ~stacked
        self.words_anded += len(kept_list) * self._n_words
        columns = base.bit_index_array()
        bits = (differences[:, columns >> 6] >> (columns & 63).astype(np.uint64)) & 1
        self.gathers += len(kept_list)
        factors = np.where(bits.astype(bool), 1.0 - self._prob[columns], 1.0)
        return np.multiply.reduce(factors, axis=1).tolist()

    def superset_covered(self, itemset: Itemset, tidset: BitmapTidset) -> bool:
        """Lemma 4.2 scan as one matrix AND over the preceding item rows."""
        last_item = itemset[-1]
        cut = bisect_left(self._items, last_item)
        if cut == 0:
            return False
        missing = ~self._matrix[:cut] & tidset.words
        self.words_anded += cut * self._n_words
        covers = ~missing.any(axis=1)
        if not covers.any():
            return False
        item_set = set(itemset)
        for row in np.flatnonzero(covers):
            if self._items[row] not in item_set:
                return True
        return False


def make_engine(
    database: "UncertainDatabase",
    backend: str,
    bitmap_parts: Optional[Dict[str, Any]] = None,
) -> TidsetEngine:
    """Engine factory used by :meth:`UncertainDatabase.tidset_engine`.

    Resolves the backend by registered name, so engines added through
    :data:`repro.registry.TIDSET_BACKENDS` are constructible everywhere the
    built-ins are (miner configs, the CLI, the sliding window).
    """
    factory = _BACKEND_REGISTRY.get(backend)
    return factory(database, bitmap_parts)


def _make_tuple_engine(
    database: "UncertainDatabase",
    bitmap_parts: Optional[Dict[str, Any]] = None,
) -> TidsetEngine:
    """``"tuple"`` backend: the sorted-tuple oracle (ignores bitmap parts)."""
    return TupleTidsetEngine(database)


def _make_bitmap_engine(
    database: "UncertainDatabase",
    bitmap_parts: Optional[Dict[str, Any]] = None,
) -> TidsetEngine:
    """``"bitmap"`` backend; ``bitmap_parts`` hands over pre-packed words.

    Two hand-over shapes: the streaming window's per-item word dict
    (``{"words": ..., "probabilities": ..., "offset": ...}``) and the
    columnar loader's whole packed matrix (``{"matrix": ...,
    "probabilities": ..., "offset": 0}``), adopted zero-copy.
    """
    if bitmap_parts:
        if "matrix" in bitmap_parts:
            return BitmapTidsetEngine(
                database,
                probability_layout=bitmap_parts["probabilities"],
                offset=bitmap_parts.get("offset", 0),
                item_matrix=bitmap_parts["matrix"],
            )
        return BitmapTidsetEngine(
            database,
            item_words=bitmap_parts["words"],
            probability_layout=bitmap_parts["probabilities"],
            offset=bitmap_parts["offset"],
        )
    return BitmapTidsetEngine(database)


_BACKEND_REGISTRY.register("tuple", _make_tuple_engine)
_BACKEND_REGISTRY.register("bitmap", _make_bitmap_engine)
