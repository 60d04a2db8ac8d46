"""Tests for the sliding-window uncertain database."""

import random

import pytest

from repro.core.database import UncertainDatabase
from repro.streaming import WindowedUncertainDatabase
from tests.strategies import make_transaction as txn
from tests.strategies import random_uncertain_transactions


class TestAppendEvict:
    def test_append_fills_then_evicts_fifo(self):
        window = WindowedUncertainDatabase(capacity=2)
        assert window.append(txn("T1", "ab", 0.5)) is None
        assert window.append(txn("T2", "bc", 0.9)) is None
        evicted = window.append(txn("T3", "a", 0.4))
        assert evicted is not None and evicted.tid == "T1"
        assert [row.tid for row in window] == ["T2", "T3"]
        assert len(window) == 2
        assert window.total_appended == 3
        assert window.total_evicted == 1

    def test_landmark_mode_never_evicts(self):
        window = WindowedUncertainDatabase()
        for index in range(10):
            assert window.append(txn(f"T{index}", "a", 0.5)) is None
        assert len(window) == 10

    def test_generation_bumps_once_per_slide(self):
        window = WindowedUncertainDatabase(capacity=1)
        assert window.generation == 0
        window.append(txn("T1", "a", 0.5))
        assert window.generation == 1
        window.append(txn("T2", "b", 0.5))  # paired append + evict
        assert window.generation == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowedUncertainDatabase(capacity=0)
        window = WindowedUncertainDatabase(capacity=2)
        with pytest.raises(IndexError):
            window[0]


class TestMaintainedIndex:
    def test_tidsets_and_expected_supports_track_eviction(self):
        window = WindowedUncertainDatabase(capacity=2)
        window.append(txn("T1", "ab", 0.5))
        window.append(txn("T2", "a", 0.9))
        assert window.tidset_of_item("a") == (0, 1)
        assert window.expected_support_of_item("a") == pytest.approx(1.4)
        window.append(txn("T3", "b", 0.4))  # T1 leaves
        assert window.tidset_of_item("a") == (0,)
        assert window.item_probabilities("a") == (0.9,)
        assert window.expected_support_of_item("a") == pytest.approx(0.9)
        assert window.tidset_of_item("b") == (1,)
        assert window.count_of_item("a") == 1
        # "b" from T1 is gone entirely once T1's other copy leaves too.
        window.append(txn("T4", "c", 0.8))
        window.append(txn("T5", "c", 0.8))
        assert window.count_of_item("b") == 0
        assert window.tidset_of_item("b") == ()
        assert window.expected_support_of_item("b") == 0.0
        assert window.items == ("c",)

    def test_index_matches_plain_database_over_random_slides(self):
        rng = random.Random(99)
        window = WindowedUncertainDatabase(capacity=7)
        for transaction in random_uncertain_transactions(rng, 60, max_size=3):
            window.append(transaction)
            reference = UncertainDatabase(list(window))
            assert window.items == reference.items
            for item in reference.items:
                assert window.tidset_of_item(item) == reference.tidset_of_item(item)
                assert window.item_probabilities(item) == reference.tidset_probabilities(
                    reference.tidset_of_item(item)
                )
                assert window.expected_support_of_item(item) == pytest.approx(
                    reference.expected_support((item,))
                )


class TestSnapshot:
    def test_snapshot_equals_plain_database(self):
        window = WindowedUncertainDatabase(capacity=3)
        for index in range(5):
            window.append(txn(f"T{index}", "ab"[: 1 + index % 2], 0.5))
        snapshot = window.snapshot()
        reference = UncertainDatabase(list(window))
        assert snapshot.transactions == reference.transactions
        assert snapshot.probabilities == reference.probabilities
        assert snapshot.items == reference.items
        for item in reference.items:
            assert snapshot.tidset_of_item(item) == reference.tidset_of_item(item)

    def test_snapshot_cached_per_generation(self):
        window = WindowedUncertainDatabase(capacity=3)
        window.append(txn("T1", "a", 0.5))
        first = window.snapshot()
        assert window.snapshot() is first
        window.append(txn("T2", "b", 0.5))
        assert window.snapshot() is not first
