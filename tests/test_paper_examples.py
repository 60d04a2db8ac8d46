"""Every concrete number the paper states, pinned as a test.

Sources: Example 1.1/1.2 (Tables I-III), Section II.B (Table IV), the
Definition 4.2 count example, Examples 4.1-4.3, and the final result of the
ProbFC walk-through ({abc, fcp: 0.875}, {abcd, fcp: 0.81}).
"""

import pytest

from repro import (
    MinerConfig,
    MPFCIMiner,
    frequent_closed_probability_exact,
    frequent_probability_of,
    mine_pfci,
    paper_table2_database,
    paper_table4_database,
)
from repro.core.events import ExtensionEventSystem
from repro.core.possible_worlds import enumerate_worlds, exact_probabilities
from repro.uncertain.pfim import mine_probabilistic_frequent_itemsets


class TestTable3PossibleWorlds:
    """Table III: the 16 worlds of Table II and their probabilities."""

    def test_world_count_and_total(self, paper_db):
        worlds = dict(enumerate_worlds(paper_db))
        assert len(worlds) == 16
        assert sum(worlds.values()) == pytest.approx(1.0)

    def test_selected_world_probabilities(self, paper_db):
        worlds = dict(enumerate_worlds(paper_db))
        # PW5 = {T1, T2, T3}: 0.9 * 0.6 * 0.7 * (1 - 0.9) = 0.0378.
        assert worlds[(0, 1, 2)] == pytest.approx(0.0378)
        # PW8 = {T1, T2, T3, T4}: 0.9 * 0.6 * 0.7 * 0.9 = 0.3402.
        assert worlds[(0, 1, 2, 3)] == pytest.approx(0.3402)
        # PW16 = {}: 0.1 * 0.4 * 0.3 * 0.1 = 0.0012.
        assert worlds[()] == pytest.approx(0.0012)


class TestExample12FrequentClosedProbabilities:
    """Example 1.2: Pr_FC({abc}) and Pr_FC({abcd}) with min_sup=2."""

    def test_abc(self, paper_db):
        assert exact_probabilities(paper_db, "abc", 2)[
            "frequent_closed"
        ] == pytest.approx(0.8754)

    def test_abcd(self, paper_db):
        assert exact_probabilities(paper_db, "abcd", 2)[
            "frequent_closed"
        ] == pytest.approx(0.81)

    def test_thirteen_other_pfis_have_zero(self, paper_db):
        """'frequent closed probabilities of 13 other PFIs are 0'."""
        pfis = mine_probabilistic_frequent_itemsets(paper_db, 2, 0.8)
        zeros = [
            itemset
            for itemset, _probability in pfis
            if itemset not in {("a", "b", "c"), ("a", "b", "c", "d")}
        ]
        assert len(zeros) == 13
        for itemset in zeros:
            assert frequent_closed_probability_exact(
                paper_db, itemset, 2
            ) == pytest.approx(0.0, abs=1e-12)


class TestExample11ProbabilisticFrequentItemsets:
    """Example 1.1: 15 PFIs, 7 sharing one Pr_F and 8 sharing another."""

    def test_counts(self, paper_db):
        pfis = mine_probabilistic_frequent_itemsets(paper_db, 2, 0.8)
        assert len(pfis) == 15
        values = [round(probability, 4) for _itemset, probability in pfis]
        assert values.count(0.9726) == 7   # all non-empty subsets of {abc}
        assert values.count(0.81) == 8     # all subsets containing d


class TestDefinition42Count:
    def test_count_of_abcd_is_two(self, paper_db):
        assert paper_db.count("abcd") == 2


class TestExample41SupersetPruning:
    def test_bc_is_subsumed_by_a(self, paper_db):
        """{b,c}.count = {a,b,c}.count, a precedes b: Pr_FC({bc}) = 0."""
        assert paper_db.count("bc") == paper_db.count("abc")
        assert frequent_closed_probability_exact(paper_db, "bc", 2) == pytest.approx(
            0.0, abs=1e-12
        )


class TestExample42SubsetPruning:
    def test_ab_count_equals_abc_count(self, paper_db):
        """{a,b}.count = {a,b,c}.count: {ab} and {abd} can never be closed."""
        assert paper_db.count("ab") == paper_db.count("abc")
        assert frequent_closed_probability_exact(paper_db, "ab", 2) == pytest.approx(
            0.0, abs=1e-12
        )
        assert frequent_closed_probability_exact(paper_db, "abd", 2) == pytest.approx(
            0.0, abs=1e-12
        )


class TestExample43MiningRun:
    def test_final_result_set(self, paper_db):
        """'{abc, fcp: 0.875}, {abcd, fcp: 0.81}'."""
        results = mine_pfci(paper_db, min_sup=2, pfct=0.8)
        by_itemset = {result.itemset: result.probability for result in results}
        assert by_itemset == {
            ("a", "b", "c"): pytest.approx(0.8754, abs=5e-4),
            ("a", "b", "c", "d"): pytest.approx(0.81),
        }

    def test_candidate_items_are_abcd(self, paper_db):
        miner = MPFCIMiner(paper_db, MinerConfig(min_sup=2, pfct=0.8))
        assert miner.candidate_items() == ["a", "b", "c", "d"]

    def test_event_cd_probability(self, paper_db):
        """Section IV.B's Pr(C_i) formula on the {abc}+d event: 0.0972."""
        events = ExtensionEventSystem(paper_db, "abc", 2)
        assert events.events[0].probability == pytest.approx(0.12 * 0.81)


class TestInstrumentedRunningExample:
    """The running example, replayed through the instrumented runtime.

    Pins (a) the exact ``Pr_FC`` values the miner itself reports and (b)
    that every pruning lemma of Section IV demonstrably fired, read off the
    per-run :class:`~repro.core.stats.MiningStats` counters rather than
    inferred from the result set.
    """

    def test_exact_result_probabilities(self, paper_db):
        miner = MPFCIMiner(paper_db, MinerConfig(min_sup=2, pfct=0.8))
        by_itemset = {r.itemset: r for r in miner.mine()}
        abc = by_itemset[("a", "b", "c")]
        abcd = by_itemset[("a", "b", "c", "d")]
        # Pr_FC({abc}) = Pr_F - Pr(C_d) = 0.9726 - 0.0972 = 0.8754, reached
        # through a *tight* Lemma 4.4 interval (single event: bounds meet).
        assert abc.probability == pytest.approx(0.8754, abs=1e-12)
        assert abc.lower == abc.upper == abc.probability
        assert abc.method == "exact"
        # Pr_FC({abcd}) = Pr_F({abcd}) = 0.81 (no extension events).
        assert abcd.probability == pytest.approx(0.81, abs=1e-12)
        assert abcd.method == "trivial"
        assert miner.stats.decided_by_tight_bounds == 1
        assert miner.stats.trivial_results == 1

    def test_lemma_41_chernoff_hoeffding_fires(self):
        """Lemma 4.1 on Table IV: at min_sup=5 item a's expected support
        (3.9) puts the Hoeffding tail below pfct, so the filter prunes it
        before any exact DP runs."""
        miner = MPFCIMiner(
            paper_table4_database(), MinerConfig(min_sup=5, pfct=0.8)
        )
        results = miner.mine()
        assert miner.stats.pruned_by_chernoff >= 1
        assert results == []

    def test_lemma_42_superset_pruning_fires(self, paper_db):
        """Lemma 4.2 abandons the {b}, {c}, {d} branches (Example 4.1)."""
        miner = MPFCIMiner(paper_db, MinerConfig(min_sup=2, pfct=0.8))
        miner.mine()
        assert miner.stats.pruned_by_superset == 3

    def test_lemma_43_subset_pruning_fires(self, paper_db):
        """Lemma 4.3 marks {a}, {ab} non-closed and skips their same-level
        siblings (Example 4.2)."""
        miner = MPFCIMiner(paper_db, MinerConfig(min_sup=2, pfct=0.8))
        miner.mine()
        assert miner.stats.pruned_by_subset >= 1
        assert miner.stats.subset_absorbed == 2  # {a} and {ab}

    def test_lemma_44_bounds_fire(self, paper_db):
        """Lemma 4.4 evaluates on {abc} and its single-event interval is
        tight, deciding the itemset without inclusion-exclusion sampling."""
        miner = MPFCIMiner(paper_db, MinerConfig(min_sup=2, pfct=0.8))
        miner.mine()
        assert miner.stats.bound_evaluations >= 1
        assert miner.stats.decided_by_tight_bounds >= 1
        assert miner.stats.fcp_sampled_evaluations == 0

    def test_every_lemma_counter_observed_across_paper_databases(self):
        """Union of the two paper databases: all four lemmas fired at least
        once, witnessed purely through MiningStats."""
        totals = {"ch": 0, "super": 0, "sub": 0, "bound": 0}
        for database, min_sup in (
            (paper_table2_database(), 2),
            (paper_table4_database(), 5),
        ):
            miner = MPFCIMiner(database, MinerConfig(min_sup=min_sup, pfct=0.8))
            miner.mine()
            totals["ch"] += miner.stats.pruned_by_chernoff
            totals["super"] += miner.stats.pruned_by_superset
            totals["sub"] += miner.stats.pruned_by_subset
            totals["bound"] += miner.stats.bound_evaluations
        assert all(count >= 1 for count in totals.values()), totals

    def test_running_example_reuses_the_dp_cache(self, paper_db):
        """Even the 4-transaction example revisits tidsets: most Pr_F
        requests are served from the shared support-DP cache."""
        miner = MPFCIMiner(paper_db, MinerConfig(min_sup=2, pfct=0.8))
        miner.mine()
        assert miner.stats.dp_requests == (
            miner.stats.dp_cache_hits + miner.stats.dp_cache_misses
        )
        assert miner.stats.dp_cache_hit_rate >= 0.5


class TestSectionIIBTable4:
    """The semantics comparison against [34]."""

    def test_frequent_probabilities_are_high(self):
        """'The frequent probabilities of {a} and {ab} are 0.99...'"""
        db = paper_table4_database()
        # Exact values are 0.98956 and 0.98308; the paper rounds to "0.99".
        assert frequent_probability_of(db, "a", 2) == pytest.approx(0.98956)
        assert frequent_probability_of(db, "ab", 2) == pytest.approx(0.98308)
        assert frequent_probability_of(db, "a", 2) > 0.98

    def test_frequent_closed_probabilities_are_low(self):
        """'{a} and {ab}, whose frequent closed probabilities are only 0.4'."""
        db = paper_table4_database()
        assert frequent_closed_probability_exact(db, "a", 2) == pytest.approx(
            0.4, abs=0.001
        )
        assert frequent_closed_probability_exact(db, "ab", 2) == pytest.approx(
            0.4, abs=0.001
        )

    def test_results_are_stable_across_thresholds(self):
        """'no matter how the threshold changes, our approach always returns
        {abc} and {abcd}' (for pfct in {0.8, 0.9} ... both have Pr_FC above)."""
        db = paper_table4_database()
        for pfct in (0.8, 0.7, 0.5):
            results = {r.itemset for r in mine_pfci(db, min_sup=2, pfct=pfct)}
            assert {("a", "b", "c"), ("a", "b", "c", "d")} <= results
            assert ("a",) not in results
            assert ("a", "b") not in results
