"""Tests for the extension-event system (Section IV.B's DNF machinery).

Every probability produced by :class:`ExtensionEventSystem` is validated
against a direct possible-world computation of the event semantics:
``C_i = { w : support_w(X+e_i) = support_w(X) >= min_sup }``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import UncertainDatabase
from repro.core.events import ExtensionEventSystem
from repro.core.itemsets import canonical
from repro.core.possible_worlds import enumerate_worlds, world_support
from tests.conftest import uncertain_databases


def oracle_conjunction(database, itemset, extension_items, min_sup):
    """Pr(∧ C_i) straight from the definition, by world enumeration."""
    itemset = canonical(itemset)
    total = 0.0
    for world, probability in enumerate_worlds(database):
        base_support = world_support(database, world, itemset)
        if base_support < min_sup:
            continue
        if all(
            world_support(database, world, canonical(itemset + (item,)))
            == base_support
            for item in extension_items
        ):
            total += probability
    return total


class TestEventConstruction:
    def test_paper_running_example(self, paper_db):
        events = ExtensionEventSystem(paper_db, "abc", min_sup=2)
        assert [event.item for event in events.events] == ["d"]
        event = events.events[0]
        # Pr(C_d) = (1-0.6)(1-0.7) * Pr_F({abcd}) = 0.12 * 0.81 = 0.0972.
        assert event.absent_factor == pytest.approx(0.12)
        assert event.frequent_probability == pytest.approx(0.81)
        assert event.probability == pytest.approx(0.0972)

    def test_no_events_for_maximal_itemset(self, paper_db):
        events = ExtensionEventSystem(paper_db, "abcd", min_sup=2)
        assert len(events) == 0

    def test_low_count_extensions_are_dropped(self, paper_db):
        # min_sup=3 makes the d-extension impossible (count 2 < 3).
        events = ExtensionEventSystem(paper_db, "abc", min_sup=3)
        assert len(events) == 0

    def test_certain_cooccurrence_detection(self, paper_db):
        # b always co-occurs with a (same tidset).
        events = ExtensionEventSystem(paper_db, "a", min_sup=2)
        assert events.has_certain_cooccurrence()
        events = ExtensionEventSystem(paper_db, "abc", min_sup=2)
        assert not events.has_certain_cooccurrence()


class TestEventProbabilities:
    @given(uncertain_databases(max_transactions=6, max_items=4))
    @settings(max_examples=30, deadline=None)
    def test_singletons_match_oracle(self, db):
        itemset = (db.items[0],)
        min_sup = 2
        events = ExtensionEventSystem(db, itemset, min_sup)
        for event in events.events:
            oracle = oracle_conjunction(db, itemset, [event.item], min_sup)
            assert event.probability == pytest.approx(oracle, abs=1e-9)

    @given(uncertain_databases(max_transactions=6, max_items=5))
    @settings(max_examples=30, deadline=None)
    def test_pairwise_matches_oracle(self, db):
        itemset = (db.items[0],)
        min_sup = 1
        events = ExtensionEventSystem(db, itemset, min_sup)
        for first in range(len(events.events)):
            for second in range(first + 1, len(events.events)):
                oracle = oracle_conjunction(
                    db,
                    itemset,
                    [events.events[first].item, events.events[second].item],
                    min_sup,
                )
                assert events.pairwise_probability(first, second) == pytest.approx(
                    oracle, abs=1e-9
                )

    def test_pairwise_is_memoized_and_symmetric(self, paper_db):
        events = ExtensionEventSystem(paper_db, "a", min_sup=2)
        assert len(events) >= 2
        forward = events.pairwise_probability(0, 1)
        backward = events.pairwise_probability(1, 0)
        assert forward == backward
        assert len(events._pairwise) == 1

    def test_diagonal_pairwise_is_singleton(self, paper_db):
        events = ExtensionEventSystem(paper_db, "a", min_sup=2)
        assert events.pairwise_probability(0, 0) == events.events[0].probability

    def test_conjunction_of_nothing_raises(self, paper_db):
        events = ExtensionEventSystem(paper_db, "a", min_sup=2)
        with pytest.raises(ValueError):
            events.conjunction_probability([])


class TestUnionProbability:
    def test_paper_value(self, paper_db):
        events = ExtensionEventSystem(paper_db, "abc", min_sup=2)
        # Single event: union = Pr(C_d) = 0.0972.
        assert events.union_probability_exact() == pytest.approx(0.0972)

    @given(uncertain_databases(max_transactions=6, max_items=5))
    @settings(max_examples=40, deadline=None)
    def test_union_matches_oracle(self, db):
        itemset = (db.items[0],)
        min_sup = 2
        events = ExtensionEventSystem(db, itemset, min_sup)
        oracle = 0.0
        for world, probability in enumerate_worlds(db):
            base_support = world_support(db, world, itemset)
            if base_support < min_sup:
                continue
            if any(
                world_support(db, world, canonical(itemset + (event.item,)))
                == base_support
                for event in events.events
            ):
                oracle += probability
        assert events.union_probability_exact() == pytest.approx(oracle, abs=1e-9)

    def test_union_bounded_by_singleton_sum(self, paper_db):
        events = ExtensionEventSystem(paper_db, "a", min_sup=2)
        assert events.union_probability_exact() <= sum(
            events.singleton_probabilities
        ) + 1e-12


class TestZeroAbsentFactor:
    """An event whose absent factor is exactly 0.0 never runs its DP."""

    @pytest.fixture
    def database(self):
        # Base "a" holds all four rows.  T2 (probability 1) lacks "b", so
        # b's absent factor is 1 - 1.0 = 0.0; c's is 1 - 0.7 (T3 lacks "c").
        return UncertainDatabase.from_rows(
            [
                ("T0", "abc", 0.9),
                ("T1", "abc", 0.8),
                ("T2", "ac", 1.0),
                ("T3", "ab", 0.7),
            ]
        )

    @pytest.mark.parametrize("backend", ["tuple", "bitmap"])
    def test_zero_factor_event_is_dropped_before_its_dp(self, database, backend):
        events = ExtensionEventSystem(
            database, "a", min_sup=2, engine=database.tidset_engine(backend)
        )
        assert [event.item for event in events.events] == ["c"]
        assert events.events[0].absent_factor == 1.0 - 0.7
        # One DP, for c alone: b's Pr_F was never computed.
        assert events.support_cache.dp_invocations == 1
        assert oracle_conjunction(database, "a", ["b"], 2) == 0.0
        oracle = oracle_conjunction(database, "a", ["c"], 2)
        assert events.union_probability_exact() == pytest.approx(oracle, abs=1e-12)

    @given(
        uncertain_databases(max_transactions=7, max_items=5, allow_certain=True),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_conjunctions_match_tuple_engine_and_oracle(self, db, min_sup):
        itemset = (db.items[0],)
        systems = {
            backend: ExtensionEventSystem(
                db, itemset, min_sup, engine=db.tidset_engine(backend)
            )
            for backend in ("tuple", "bitmap")
        }
        tuple_events, bitmap_events = systems["tuple"], systems["bitmap"]
        assert [(e.item, e.absent_factor, e.frequent_probability)
                for e in bitmap_events.events] == [
            (e.item, e.absent_factor, e.frequent_probability)
            for e in tuple_events.events
        ]
        matrix = bitmap_events.pairwise_matrix()
        assert np.array_equal(matrix, tuple_events.pairwise_matrix())
        union = bitmap_events.union_probability_exact()
        assert union == tuple_events.union_probability_exact()

        items = [event.item for event in bitmap_events.events]
        for first in range(len(items)):
            for second in range(first, len(items)):
                oracle = oracle_conjunction(
                    db, itemset, [items[first], items[second]], min_sup
                )
                assert matrix[first, second] == pytest.approx(oracle, abs=1e-12)
        oracle_union = 0.0
        for world, probability in enumerate_worlds(db):
            base_support = world_support(db, world, itemset)
            if base_support < min_sup:
                continue
            if any(
                world_support(db, world, canonical(itemset + (item,))) == base_support
                for item in db.items
                if item not in itemset
            ):
                oracle_union += probability
        assert union == pytest.approx(oracle_union, abs=1e-12)
