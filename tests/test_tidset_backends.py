"""Backend parity and packed-word edge cases for the tidset engines.

The bitmap engine's contract is *bit-for-bit* parity with the tuple oracle:
every numeric quantity (absent factors, ``Pr_F`` DPs, sampled estimates) is
evaluated through the same IEEE-754 operation sequence in both backends, so
mining results must be identical field for field — not merely close.  These
tests assert exactly that, on random databases, through 60+ streaming
slides, and at every packed-word boundary (0, 1, 63, 64, 65 rows).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bfs import MPFCIBreadthFirstMiner
from repro.core.config import MinerConfig
from repro.core.database import (
    UncertainDatabase,
    UncertainTransaction,
    intersect_tidsets,
    paper_table2_database,
)
from repro.core.miner import MPFCIMiner
from repro.core.support import (
    frequent_probability,
    sample_conditional_presence,
    sample_conditional_presence_batch,
    tail_probability_table,
)
from repro.core.tidsets import (
    TIDSET_BACKENDS,
    BitmapTidset,
    BitmapTidsetEngine,
    TupleTidsetEngine,
    pack_positions,
)
from repro.streaming.window import WindowedUncertainDatabase
from tests.strategies import random_uncertain_database, uncertain_databases

RESULT_FIELDS = (
    "itemset",
    "probability",
    "lower",
    "upper",
    "method",
    "frequent_probability",
)


def assert_identical_results(first, second) -> None:
    """Field-for-field equality of two result lists (exact floats)."""
    assert len(first) == len(second)
    for left, right in zip(first, second):
        for name in RESULT_FIELDS:
            assert getattr(left, name) == getattr(right, name), name


def mine_both(database: UncertainDatabase, **config_kwargs):
    results = {}
    for backend in TIDSET_BACKENDS:
        config = MinerConfig(tidset_backend=backend, **config_kwargs)
        results[backend] = MPFCIMiner(database, config).mine()
    return results["tuple"], results["bitmap"]


# ----------------------------------------------------------------------
# configuration plumbing
# ----------------------------------------------------------------------
class TestConfig:
    def test_default_backend_is_bitmap(self):
        assert MinerConfig(min_sup=2).tidset_backend == "bitmap"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="tidset backend"):
            MinerConfig(min_sup=2, tidset_backend="roaring")

    def test_describe_mentions_non_default_backend_only(self):
        assert "engine" not in MinerConfig(min_sup=2).describe()
        assert "engine=tuple" in MinerConfig(
            min_sup=2, tidset_backend="tuple"
        ).describe()


# ----------------------------------------------------------------------
# tuple-backend intersection (the oracle path satellite fix)
# ----------------------------------------------------------------------
class TestIntersectTidsets:
    def test_preserves_sorted_order_without_resort(self):
        assert intersect_tidsets((0, 2, 5, 9), (2, 3, 5, 6, 9)) == (2, 5, 9)

    def test_walks_the_shorter_side(self):
        assert intersect_tidsets(tuple(range(100)), (3, 97)) == (3, 97)
        assert intersect_tidsets((3, 97), tuple(range(100))) == (3, 97)

    def test_empty_cases(self):
        assert intersect_tidsets((), (1, 2)) == ()
        assert intersect_tidsets((1, 2), ()) == ()
        assert intersect_tidsets((1,), (2,)) == ()


# ----------------------------------------------------------------------
# packed-word edge cases
# ----------------------------------------------------------------------
class TestPackedWords:
    @pytest.mark.parametrize("rows", [0, 1, 63, 64, 65])
    def test_word_boundaries(self, rows):
        rng = random.Random(rows)
        data = [
            (f"T{index}", "ab" if index % 2 else "a", round(rng.uniform(0.1, 1.0), 3))
            for index in range(rows)
        ]
        database = (
            UncertainDatabase.from_rows(data)
            if rows
            else UncertainDatabase([])
        )
        engine = database.tidset_engine("bitmap")
        oracle = database.tidset_engine("tuple")
        assert engine.word_count == max((rows + 63) // 64, 0)
        for item in database.items:
            bitmap = engine.item_tidset(item)
            assert bitmap.positions() == oracle.item_tidset(item)
            assert engine.probabilities(bitmap) == oracle.probabilities(
                oracle.item_tidset(item)
            )
        universe = engine.universe()
        assert len(universe) == rows
        assert universe.positions() == tuple(range(rows))

    def test_pack_positions_padding_bits_are_zero(self):
        words = pack_positions([0, 63, 64], 65)
        assert len(words) == 2
        bitmap = BitmapTidset(words)
        assert bitmap.positions() == (0, 63, 64)
        # No stray bits beyond n_bits.
        assert int(words[1]) == 1

    def test_bitmap_tidset_is_a_cache_key(self):
        first = BitmapTidset(pack_positions([1, 2], 64))
        second = BitmapTidset(pack_positions([1, 2], 64))
        third = BitmapTidset(pack_positions([1, 3], 64))
        assert first == second and hash(first) == hash(second)
        assert first != third
        assert len({first, second, third}) == 2

    def test_bitmap_tidset_pickles(self):
        import pickle

        bitmap = BitmapTidset(pack_positions([0, 70], 128), offset=0)
        clone = pickle.loads(pickle.dumps(bitmap))
        assert clone == bitmap and clone.positions() == (0, 70)

    def test_empty_itemset_tidset_is_universe(self):
        database = paper_table2_database()
        engine = database.tidset_engine("bitmap")
        assert engine.tidset_of(()).positions() == (0, 1, 2, 3)

    def test_unknown_item_tidset_is_empty(self):
        database = paper_table2_database()
        engine = database.tidset_engine("bitmap")
        assert engine.tidset_of(("z",)).positions() == ()
        assert engine.item_tidset("z").positions() == ()


# ----------------------------------------------------------------------
# batched kernels are bit-exact against their serial references
# ----------------------------------------------------------------------
class TestBatchedKernels:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_batch_sampler_replays_serial_uniform_stream(self, seed):
        rng = random.Random(seed)
        width = rng.choice((rng.randint(1, 12), rng.randint(13, 300)))
        shape = rng.choice(("uniform", "tiny", "near-certain"))
        if shape == "near-certain":
            # Every lane meets a min_sup <= prefix inside the near-certain
            # prefix, so the all-lanes-done early finish draws the low tail
            # as plain Bernoulli bits.  At prefix + 1 every lane still
            # needs one tail row, and its draws there are not Bernoulli.
            width = rng.randint(96, 300)
            prefix = rng.randint(1, width - 33)
            level = rng.choice((0.02, 0.3))
            probabilities = [rng.uniform(1.0 - 1e-9, 1.0) for _ in range(prefix)] + [
                rng.uniform(0.0, level) for _ in range(width - prefix)
            ]
            min_sup = rng.choice((rng.randint(1, prefix), prefix, prefix + 1))
        else:
            if shape == "tiny":
                # Rows down to 1e-300 leave unreachable 0/0 (NaN) cells in
                # the conditional table; they must compare False.
                probabilities = [
                    rng.choice((1e-300, 1e-150, rng.uniform(0.05, 1.0)))
                    for _ in range(width)
                ]
            else:
                probabilities = [round(rng.uniform(0.05, 1.0), 4) for _ in range(width)]
            # Any threshold, or one above 48 once the width allows it.
            min_sup = rng.choice((rng.randint(1, width), rng.randint(min(49, width), width)))
        tail = tail_probability_table(probabilities, min_sup)
        if tail[0][min_sup] <= 0.0:
            return
        lanes = rng.randint(64, 70)
        uniforms = np.array(
            [[rng.random() for _ in range(width)] for _ in range(lanes)]
        )
        batch = sample_conditional_presence_batch(
            np.asarray(probabilities), min_sup, uniforms, tail
        )
        assert batch.shape == (lanes, width)
        if shape == "near-certain" and min_sup <= prefix:
            assert (batch[:, :prefix].sum(axis=1) >= min_sup).all()

        class Replay:
            def __init__(self, values):
                self._values = iter(values)

            def random(self):
                return next(self._values)

        for row in range(lanes):
            serial = sample_conditional_presence(
                probabilities, min_sup, Replay(uniforms[row]), tail_table=tail
            )
            assert list(batch[row]) == [bool(bit) for bit in serial]


# ----------------------------------------------------------------------
# mining parity: batch
# ----------------------------------------------------------------------
def clustered_database(rows: int = 192, seed: int = 7) -> UncertainDatabase:
    """A 3-word database whose frequent items live in the first word only."""
    rng = random.Random(seed)
    transactions = []
    for tid in range(rows):
        items = []
        if tid < 40:
            items.append("a")
        if tid < 30:
            items.append("b")
        if tid < 25:
            items.append("c")
        if rng.random() < 0.3:
            items.append("x")
        if rng.random() < 0.3:
            items.append("y")
        if not items:
            items.append("z")
        transactions.append((f"T{tid}", items, 0.3 + 0.6 * rng.random()))
    return UncertainDatabase.from_rows(transactions)


class TestMiningParity:
    @given(uncertain_databases(min_transactions=2, max_transactions=8))
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_dfs_parity_on_random_databases(self, database):
        tuple_results, bitmap_results = mine_both(
            database, min_sup=2, pfct=0.3, exact_event_limit=64
        )
        assert_identical_results(tuple_results, bitmap_results)

    @given(uncertain_databases(min_transactions=2, max_transactions=8))
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_dfs_parity_on_sampling_path(self, database):
        # exact_event_limit=0 forces every surviving check through ApproxFCP;
        # the vectorized sampler must replay the serial rng stream exactly.
        tuple_results, bitmap_results = mine_both(
            database, min_sup=1, pfct=0.2, exact_event_limit=0, seed=97
        )
        assert_identical_results(tuple_results, bitmap_results)

    def test_dfs_parity_on_wide_sampled_events(self):
        # 120 rows and min_sup 60 give sampled events of about 60-80 rows,
        # so the batch sampler walks past its 32- and 64-column checks.
        rng = random.Random(2)
        database = UncertainDatabase.from_rows(
            [
                (
                    f"T{index}",
                    "a" + "".join(item for item in "bcdef" if rng.random() < 0.8),
                    round(rng.uniform(0.6, 1.0), 3),
                )
                for index in range(120)
            ]
        )
        tuple_results, bitmap_results = mine_both(
            database,
            min_sup=60,
            pfct=0.2,
            exact_event_limit=0,
            use_probability_bounds=False,
            epsilon=0.3,
            delta=0.3,
            seed=11,
        )
        assert bitmap_results
        assert all(result.method == "sampled" for result in bitmap_results)
        assert_identical_results(tuple_results, bitmap_results)

    @pytest.mark.parametrize("rows", [17, 65, 90])
    def test_dfs_parity_on_larger_random_databases(self, rows):
        rng = random.Random(rows)
        database = random_uncertain_database(rng, rows)
        tuple_results, bitmap_results = mine_both(
            database, min_sup=max(2, rows // 5), pfct=0.4, exact_event_limit=16
        )
        assert_identical_results(tuple_results, bitmap_results)

    def test_dfs_parity_on_clustered_database(self):
        # Three words wide with the frequent items in the first word only,
        # so every frequent prefix has two all-zero words.
        tuple_results, bitmap_results = mine_both(
            clustered_database(), min_sup=5, pfct=0.4
        )
        assert bitmap_results
        assert_identical_results(tuple_results, bitmap_results)

    def test_bfs_parity(self):
        rng = random.Random(5)
        database = random_uncertain_database(rng, 40)
        results = {}
        for backend in TIDSET_BACKENDS:
            config = MinerConfig(min_sup=8, pfct=0.4, tidset_backend=backend)
            results[backend] = MPFCIBreadthFirstMiner(database, config).mine()
        assert_identical_results(results["tuple"], results["bitmap"])

    def test_engine_counters_land_in_stats(self):
        database = paper_table2_database()
        miner = MPFCIMiner(database, MinerConfig(min_sup=2))
        miner.mine()
        stats = miner.stats
        assert stats.tidset_intersections > 0
        assert stats.tidset_words_anded > 0
        assert stats.tidset_popcounts > 0
        assert stats.tidset_gathers > 0
        assert stats.dp_batch_invocations > 0
        assert stats.dp_batch_invocations <= stats.dp_invocations
        # Counters are per-run deltas: a second mine() reports the same work.
        first = (stats.tidset_intersections, stats.tidset_gathers)
        miner.mine()
        assert (
            miner.stats.tidset_intersections,
            miner.stats.tidset_gathers,
        ) == first

    def test_tuple_backend_reports_intersections_only(self):
        database = paper_table2_database()
        miner = MPFCIMiner(
            database, MinerConfig(min_sup=2, tidset_backend="tuple")
        )
        miner.mine()
        assert miner.stats.tidset_intersections > 0
        assert miner.stats.tidset_words_anded == 0
        assert miner.stats.dp_batch_invocations == 0


# ----------------------------------------------------------------------
# mining parity: streaming (incremental bitmaps + generation re-pack)
# ----------------------------------------------------------------------
class TestStreamingParity:
    def _replay(self, backend, transactions, window, min_sup):
        from repro.streaming import PFCIMonitor

        config = MinerConfig(
            min_sup=min_sup,
            pfct=0.4,
            exact_event_limit=64,
            tidset_backend=backend,
        )
        monitor = PFCIMonitor(config, window=window)
        per_slide = []
        for transaction in transactions:
            monitor.slide(transaction)
            per_slide.append(monitor.results())
        return per_slide

    def test_sixty_slides_identical_per_slide(self):
        rng = random.Random(23)
        transactions = [
            UncertainTransaction(
                f"T{index}",
                tuple(rng.sample("abcde", rng.randint(1, 4))),
                round(rng.uniform(0.2, 1.0), 3),
            )
            for index in range(60)
        ]
        tuple_slides = self._replay("tuple", transactions, window=12, min_sup=3)
        bitmap_slides = self._replay("bitmap", transactions, window=12, min_sup=3)
        for left, right in zip(tuple_slides, bitmap_slides):
            assert_identical_results(left, right)

    def test_eviction_wraparound_forces_repacks(self):
        # A tiny window slid far past its capacity must repack repeatedly
        # and still serve exact tidsets.
        window = WindowedUncertainDatabase(capacity=4)
        rng = random.Random(3)
        for index in range(400):
            window.append(
                UncertainTransaction(
                    f"T{index}",
                    tuple(rng.sample("abc", rng.randint(1, 3))),
                    round(rng.uniform(0.1, 1.0), 3),
                )
            )
            snapshot = window.snapshot()
            engine = snapshot.tidset_engine("bitmap")
            for item in snapshot.items:
                assert engine.item_tidset(item).positions() == (
                    snapshot.tidset_of_item(item)
                )
                assert engine.probabilities(engine.item_tidset(item)) == (
                    snapshot.tidset_probabilities(snapshot.tidset_of_item(item))
                )
        assert window.bitmap_repacks > 0

    @pytest.mark.parametrize("capacity", [1, 63, 64, 65])
    def test_window_bitmap_boundaries(self, capacity):
        window = WindowedUncertainDatabase(capacity=capacity)
        rng = random.Random(capacity)
        for index in range(capacity + 70):
            window.append(
                UncertainTransaction(
                    f"T{index}", ("a",), round(rng.uniform(0.1, 1.0), 3)
                )
            )
        snapshot = window.snapshot()
        engine = snapshot.tidset_engine("bitmap")
        assert engine.item_tidset("a").positions() == tuple(range(capacity))
        assert engine.probabilities(engine.item_tidset("a")) == snapshot.probabilities


# ----------------------------------------------------------------------
# engine algebra parity (direct, no miner)
# ----------------------------------------------------------------------
class TestEngineAlgebra:
    def test_absent_factor_and_superset_cover_parity(self):
        rng = random.Random(41)
        for _ in range(25):
            database = random_uncertain_database(rng, rng.randint(2, 50))
            bitmap = database.tidset_engine("bitmap")
            oracle = database.tidset_engine("tuple")
            items = database.items
            for _ in range(10):
                size = rng.randint(1, min(3, len(items)))
                itemset = tuple(sorted(rng.sample(items, size)))
                base_t = oracle.tidset_of(itemset)
                base_b = bitmap.tidset_of(itemset)
                assert base_b.positions() == base_t
                extension = rng.choice(items)
                with_t = oracle.intersect(base_t, oracle.item_tidset(extension))
                with_b = bitmap.intersect(base_b, bitmap.item_tidset(extension))
                assert with_b.positions() == with_t
                assert bitmap.absent_factor(base_b, with_b) == oracle.absent_factor(
                    base_t, with_t
                )
                assert bitmap.superset_covered(itemset, base_b) == (
                    oracle.superset_covered(itemset, base_t)
                )

    def test_intersect_many_keeps_a_compact_copy_of_counted_rows(self):
        database = clustered_database()
        engine = database.tidset_engine("bitmap")
        base = engine.item_tidset(database.items[0])
        others = [engine.item_tidset(item) for item in database.items]
        before = engine.counters()
        kept = engine.intersect_many(base, others, 20)
        after = engine.counters()
        # Every row is still ANDed and popcounted.
        assert after["tidset_intersections"] - before["tidset_intersections"] == len(others)
        assert after["tidset_popcounts"] - before["tidset_popcounts"] == len(others)
        survivors = [tidset for tidset in kept if tidset is not None]
        assert 0 < len(survivors) < len(others)
        for other, tidset in zip(others, kept):
            full = engine.intersect(base, other)
            if len(full) < 20:
                assert tidset is None
            else:
                assert tidset == full and len(tidset) == len(full)
                # The row views share one matrix of the survivors only.
                assert tidset.words.base.shape == (len(survivors), engine.word_count)

    def test_engine_is_cached_per_backend(self):
        database = paper_table2_database()
        assert database.tidset_engine("bitmap") is database.tidset_engine("bitmap")
        assert isinstance(database.tidset_engine("tuple"), TupleTidsetEngine)
        assert isinstance(database.tidset_engine("bitmap"), BitmapTidsetEngine)
        with pytest.raises(ValueError, match="unknown tidset backend"):
            database.tidset_engine("roaring")
