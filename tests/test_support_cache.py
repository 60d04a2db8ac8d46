"""Tests for the shared support-DP cache (``repro.core.cache``).

Two obligations:

* **Transparency** — every cached quantity must agree with the uncached
  :mod:`repro.core.support` computation to 1e-12; the cache is a pure
  memoization layer and must never change a result.
* **Boundedness** — the LRU tables respect their entry bounds, evict the
  least recently used key first, and account every hit/miss/eviction.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import SupportDPCache
from repro.core.database import UncertainDatabase, paper_table2_database
from repro.core.support import frequent_probability, tail_probability_table
from tests.conftest import uncertain_databases


@st.composite
def databases_with_tidsets(draw, max_transactions: int = 8, max_queries: int = 12):
    """An uncertain database plus a workload of tidset queries (with repeats)."""
    database = draw(
        uncertain_databases(min_transactions=1, max_transactions=max_transactions)
    )
    positions = list(range(len(database)))
    queries = draw(
        st.lists(
            st.lists(st.sampled_from(positions), unique=True).map(
                lambda chosen: tuple(sorted(chosen))
            ),
            min_size=1,
            max_size=max_queries,
        )
    )
    return database, queries


class TestCachedValuesMatchUncached:
    @given(databases_with_tidsets(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_frequent_probability_agrees(self, db_and_queries, min_sup):
        database, queries = db_and_queries
        cache = SupportDPCache(database, min_sup)
        for tidset in queries:
            expected = frequent_probability(
                database.tidset_probabilities(tidset), min_sup
            )
            # Query twice: the second read is served from cache and must be
            # bit-identical to what the cache stored.
            first = cache.frequent_probability_of_tidset(tidset)
            second = cache.frequent_probability_of_tidset(tidset)
            assert first == second
            assert first == pytest.approx(expected, abs=1e-12)

    @given(databases_with_tidsets(max_queries=6), st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_tail_table_agrees(self, db_and_queries, min_sup):
        database, queries = db_and_queries
        cache = SupportDPCache(database, min_sup)
        for tidset in queries:
            expected = tail_probability_table(
                database.tidset_probabilities(tidset), min_sup
            )
            table = cache.tail_table_of_tidset(tidset)
            np.testing.assert_allclose(table, expected, atol=1e-12)
            # Second fetch returns the very same cached array.
            assert cache.tail_table_of_tidset(tidset) is table

    @given(databases_with_tidsets(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_probability_tuples_and_expected_support(self, db_and_queries, min_sup):
        database, queries = db_and_queries
        cache = SupportDPCache(database, min_sup)
        for tidset in queries:
            expected = database.tidset_probabilities(tidset)
            assert cache.probabilities_of_tidset(tidset) == expected
            assert cache.expected_support_of_tidset(tidset) == pytest.approx(
                sum(expected), abs=1e-12
            )

    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_itemset_lookup_matches_direct_dp(self, probabilities, min_sup):
        database = UncertainDatabase.from_rows(
            [(f"T{index}", "a", probability)
             for index, probability in enumerate(probabilities)]
        )
        cache = SupportDPCache(database, min_sup)
        assert cache.frequent_probability_of_itemset(("a",)) == pytest.approx(
            frequent_probability(probabilities, min_sup), abs=1e-12
        )


class TestAccounting:
    def test_hits_misses_requests(self):
        database = paper_table2_database()
        cache = SupportDPCache(database, min_sup=2)
        tidset = database.tidset(("a", "b", "c"))
        assert cache.requests == 0 and cache.hit_rate == 0.0
        cache.frequent_probability_of_tidset(tidset)
        assert (cache.hits, cache.misses) == (0, 1)
        cache.frequent_probability_of_tidset(tidset)
        cache.frequent_probability_of_tidset(tidset)
        assert (cache.hits, cache.misses) == (2, 1)
        assert cache.requests == cache.hits + cache.misses == 3
        assert cache.hit_rate == pytest.approx(2 / 3)
        assert cache.dp_invocations == 1

    def test_counters_use_stats_field_names(self):
        database = paper_table2_database()
        cache = SupportDPCache(database, min_sup=2)
        cache.frequent_probability_of_itemset(("a",))
        cache.tail_table_of_tidset(database.tidset(("a",)))
        counters = cache.counters()
        assert counters["dp_cache_misses"] == 1
        assert counters["dp_tail_table_misses"] == 1
        assert counters["dp_invocations"] == 2

    def test_miner_stats_count_only_their_own_cache_work(self):
        """Cache counters are running totals; a miner on a cache that has
        already served another miner adds only its own calls' deltas."""
        from repro.core.config import MinerConfig
        from repro.core.miner import MPFCIMiner

        database = paper_table2_database()
        config = MinerConfig(min_sup=2, pfct=0.5)
        cache = SupportDPCache(database, min_sup=2)
        MPFCIMiner(database, config, support_cache=cache).candidate_items()
        requests_before, invocations_before = cache.requests, cache.dp_invocations
        assert requests_before > 0
        second = MPFCIMiner(database, config, support_cache=cache)
        second.candidate_items()
        second.candidate_items()
        assert second.stats.dp_requests == cache.requests - requests_before
        assert second.stats.dp_invocations == cache.dp_invocations - invocations_before

    def test_clear_drops_entries_but_keeps_counters(self):
        database = paper_table2_database()
        cache = SupportDPCache(database, min_sup=2)
        cache.frequent_probability_of_tidset(database.tidset(("a",)))
        cache.tail_table_of_tidset(database.tidset(("a",)))
        cache.clear()
        assert len(cache) == 0 and cache.table_count == 0
        assert cache.misses == 1 and cache.table_misses == 1


class TestEviction:
    @staticmethod
    def _distinct_tidsets(database, count):
        positions = list(range(len(database)))
        tidsets = []
        # Singleton and pair position tuples are distinct keys.
        for position in positions:
            tidsets.append((position,))
        for first in positions:
            for second in positions[first + 1 :]:
                tidsets.append((first, second))
        assert len(tidsets) >= count
        return tidsets[:count]

    def test_value_table_respects_bound(self):
        database = paper_table2_database()
        cache = SupportDPCache(database, min_sup=1, max_entries=3)
        tidsets = self._distinct_tidsets(database, 6)
        for tidset in tidsets:
            cache.frequent_probability_of_tidset(tidset)
        assert len(cache) == 3
        assert cache.evictions == 3
        assert cache.misses == 6

    def test_least_recently_used_is_evicted_first(self):
        database = paper_table2_database()
        cache = SupportDPCache(database, min_sup=1, max_entries=2)
        first, second, third = self._distinct_tidsets(database, 3)
        cache.frequent_probability_of_tidset(first)
        cache.frequent_probability_of_tidset(second)
        cache.frequent_probability_of_tidset(first)  # refresh: first is now MRU
        cache.frequent_probability_of_tidset(third)  # evicts second, not first
        assert cache.evictions == 1
        hits_before = cache.hits
        cache.frequent_probability_of_tidset(first)
        assert cache.hits == hits_before + 1  # survived the eviction
        cache.frequent_probability_of_tidset(second)
        assert cache.misses == 4  # second was evicted and recomputed

    def test_evicted_value_recomputes_identically(self):
        database = paper_table2_database()
        cache = SupportDPCache(database, min_sup=2, max_entries=1)
        first, second = self._distinct_tidsets(database, 2)
        original = cache.frequent_probability_of_tidset(first)
        cache.frequent_probability_of_tidset(second)  # evicts `first`
        assert cache.frequent_probability_of_tidset(first) == original
        assert cache.dp_invocations == 3  # recomputation really happened

    def test_tail_table_bound_is_independent(self):
        database = paper_table2_database()
        cache = SupportDPCache(database, min_sup=1, max_entries=64, max_tables=2)
        for tidset in self._distinct_tidsets(database, 5):
            cache.tail_table_of_tidset(tidset)
        assert cache.table_count == 2
        assert cache.table_evictions == 3
        assert len(cache) == 0  # value table untouched by tail-table traffic

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=10))
    @settings(max_examples=30, deadline=None)
    def test_bound_holds_under_any_workload(self, max_entries, workload_size):
        database = paper_table2_database()
        cache = SupportDPCache(database, min_sup=1, max_entries=max_entries)
        tidsets = self._distinct_tidsets(database, min(workload_size, 10))
        for tidset in tidsets:
            cache.frequent_probability_of_tidset(tidset)
            assert len(cache) <= max_entries
        assert cache.evictions == max(0, len(tidsets) - max_entries)

    def test_rejects_non_positive_bounds(self):
        database = paper_table2_database()
        with pytest.raises(ValueError):
            SupportDPCache(database, min_sup=1, max_entries=0)
        with pytest.raises(ValueError):
            SupportDPCache(database, min_sup=1, max_tables=0)
