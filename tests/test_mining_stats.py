"""Metamorphic invariants of the instrumented mining runtime.

The :class:`repro.core.stats.MiningStats` counters must satisfy exact
accounting identities on *every* run, for every pruning variant:

* node accounting — ``nodes_visited == pruned_by_superset +
  subset_absorbed + checks_performed`` (DFS); ``nodes_visited ==
  checks_performed`` (BFS, where the structural prunings cannot fire);
* check accounting — every check ends in exactly one outcome, so
  ``checks_performed == check_outcomes``;
* DP-cache accounting — ``dp_cache_hits + dp_cache_misses ==
  dp_requests``, with at least one DP actually run (demand miss or batch
  seeding) whenever work was done;
* serial/parallel equivalence — on exact-path configurations the parallel
  driver returns the identical result set and its merged counters equal
  the serial run's on every field that does not depend on cache sharing,
  except ``branches_dispatched``, which counts every planned branch once.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import mine_pfci_parallel
from repro.core.bfs import MPFCIBreadthFirstMiner
from repro.core.config import MinerConfig
from repro.core.database import (
    UncertainDatabase,
    paper_table2_database,
    paper_table4_database,
)
from repro.core.miner import MPFCIMiner
from repro.core.stats import MinerStatistics, MiningStats
from repro.registry import DEGRADATION_POLICIES
from repro.runtime.supervisor import plan_root_branches
from tests.conftest import uncertain_databases

# Table VII pruning variants — the invariants must hold under all of them.
VARIANT_OVERRIDES = {
    "MPFCI": {},
    "MPFCI-NoCH": {"use_chernoff_pruning": False},
    "MPFCI-NoSuper": {"use_superset_pruning": False},
    "MPFCI-NoSub": {"use_subset_pruning": False},
    "MPFCI-NoBound": {"use_probability_bounds": False},
}

# Counter fields whose values depend on how the DP cache is shared between
# branches; everything else must merge to the serial run's exact values.
CACHE_DEPENDENT_FIELDS = {
    "dp_invocations",
    "dp_batch_invocations",
    "dp_cache_hits",
    "dp_cache_misses",
    "dp_cache_evictions",
    "dp_tail_table_hits",
    "dp_tail_table_misses",
    "dp_tail_table_evictions",
    # Engine work depends on what the shared cache already held (a warm
    # cache skips gathers/ANDs a cold per-worker cache performs).
    "tidset_intersections",
    "tidset_words_anded",
    "tidset_popcounts",
    "tidset_gathers",
}
TIMING_FIELDS = {
    "elapsed_seconds",
    "candidate_phase_seconds",
    "search_phase_seconds",
    "check_phase_seconds",
}


def assert_invariants(stats: MiningStats, breadth_first: bool = False) -> None:
    if breadth_first:
        assert stats.nodes_visited == stats.checks_performed
    else:
        assert stats.nodes_visited == (
            stats.pruned_by_superset
            + stats.subset_absorbed
            + stats.checks_performed
        )
    assert stats.checks_performed == stats.check_outcomes
    assert stats.dp_requests == stats.dp_cache_hits + stats.dp_cache_misses
    assert stats.fcp_evaluations == (
        stats.fcp_exact_evaluations + stats.fcp_sampled_evaluations
    )
    assert stats.decided_by_tight_bounds <= stats.fcp_exact_evaluations
    assert stats.dp_batch_invocations <= stats.dp_invocations
    if stats.nodes_visited:
        assert stats.dp_invocations > 0  # work implies at least one DP run


class TestAccountingInvariants:
    @pytest.mark.parametrize("overrides", VARIANT_OVERRIDES.values(),
                             ids=VARIANT_OVERRIDES.keys())
    @pytest.mark.parametrize("database_factory,min_sup", [
        (paper_table2_database, 2),
        (paper_table4_database, 2),
        (paper_table4_database, 4),
    ])
    def test_dfs_on_paper_databases(self, database_factory, min_sup, overrides):
        database = database_factory()
        config = MinerConfig(min_sup=min_sup, pfct=0.5, **overrides)
        miner = MPFCIMiner(database, config)
        miner.mine()
        assert_invariants(miner.stats)

    @pytest.mark.parametrize("database_factory,min_sup", [
        (paper_table2_database, 2),
        (paper_table4_database, 3),
    ])
    def test_bfs_on_paper_databases(self, database_factory, min_sup):
        database = database_factory()
        config = MinerConfig(min_sup=min_sup, pfct=0.5)
        miner = MPFCIBreadthFirstMiner(database, config)
        miner.mine()
        assert_invariants(miner.stats, breadth_first=True)

    @given(
        uncertain_databases(min_transactions=2, max_transactions=7),
        st.integers(min_value=1, max_value=3),
        st.sampled_from(sorted(VARIANT_OVERRIDES)),
    )
    @settings(max_examples=40, deadline=None)
    def test_dfs_on_random_databases(self, database, min_sup, variant):
        config = MinerConfig(
            min_sup=min_sup, pfct=0.3, exact_event_limit=64,
            **VARIANT_OVERRIDES[variant],
        )
        miner = MPFCIMiner(database, config)
        results = miner.mine()
        assert_invariants(miner.stats)
        assert miner.stats.results_emitted == len(results)

    @given(
        uncertain_databases(min_transactions=2, max_transactions=7),
        st.integers(min_value=1, max_value=3),
        st.sampled_from(sorted(VARIANT_OVERRIDES)),
        st.sampled_from(DEGRADATION_POLICIES.names()),
    )
    @settings(max_examples=40, deadline=None)
    def test_bfs_on_random_databases(self, database, min_sup, variant, policy):
        config = MinerConfig(
            min_sup=min_sup, pfct=0.3, exact_event_limit=64,
            degradation_policy=policy, **VARIANT_OVERRIDES[variant],
        )
        miner = MPFCIBreadthFirstMiner(database, config)
        results = miner.mine()
        assert_invariants(miner.stats, breadth_first=True)
        assert miner.stats.results_emitted == len(results)

    def test_mine_is_repeatable_and_resets_stats(self):
        miner = MPFCIMiner(paper_table2_database(), MinerConfig(min_sup=2))
        first_results = miner.mine()
        first = miner.stats.as_dict()
        second_results = miner.mine()
        second = miner.stats.as_dict()
        assert first_results == second_results
        for name, value in first.items():
            if name not in TIMING_FIELDS:
                assert second[name] == value, name

    def test_phase_timings_partition_elapsed(self):
        miner = MPFCIMiner(paper_table2_database(), MinerConfig(min_sup=2))
        miner.mine()
        stats = miner.stats
        assert stats.candidate_phase_seconds >= 0.0
        assert stats.search_phase_seconds >= 0.0
        assert stats.check_phase_seconds >= 0.0
        assert (
            stats.candidate_phase_seconds
            + stats.search_phase_seconds
            + stats.check_phase_seconds
        ) == pytest.approx(stats.elapsed_seconds, abs=1e-6)


class TestSerialParallelEquivalence:
    @staticmethod
    def _random_database(seed: int) -> UncertainDatabase:
        rng = random.Random(seed)
        rows = []
        for index in range(12):
            size = rng.randint(1, 5)
            rows.append(
                (f"T{index}", tuple(rng.sample("abcde", size)),
                 round(rng.uniform(0.1, 0.99), 3))
            )
        return UncertainDatabase.from_rows(rows)

    @pytest.mark.parametrize("seed", range(3))
    def test_identical_results_and_merged_counters(self, seed):
        database = self._random_database(seed)
        # Exact-path configuration: no Monte-Carlo, so serial and parallel
        # must agree bit-for-bit.
        config = MinerConfig(min_sup=2, pfct=0.4, exact_event_limit=64)

        serial_miner = MPFCIMiner(database, config)
        serial_results = serial_miner.mine()
        parallel_stats = MiningStats()
        parallel_results = mine_pfci_parallel(
            database, config, processes=2, stats=parallel_stats
        )

        assert [(r.itemset, r.probability) for r in serial_results] == [
            (r.itemset, r.probability) for r in parallel_results
        ]
        assert_invariants(parallel_stats)

        serial = serial_miner.stats.as_dict()
        merged = parallel_stats.as_dict()
        for name, value in serial.items():
            if name in TIMING_FIELDS or name in CACHE_DEPENDENT_FIELDS:
                continue
            if name == "branches_dispatched":  # supervision, not mining work
                continue
            assert merged[name] == value, name
        # A clean parallel run dispatches every planned branch exactly once
        # and takes no recovery step.
        tasks, _ = plan_root_branches(database, config)
        assert parallel_stats.branches_dispatched == len(tasks)
        assert parallel_stats.branch_retries == 0
        assert parallel_stats.branch_timeouts == 0
        assert parallel_stats.pool_rebuilds == 0
        assert parallel_stats.branches_recovered_inline == 0
        assert parallel_stats.branches_failed == 0
        # Total DP traffic is cache-layout independent: each worker answers
        # hits + misses == requests locally, and requests per node are fixed.
        assert parallel_stats.dp_requests == serial_miner.stats.dp_requests
        assert (
            parallel_stats.dp_tail_table_hits + parallel_stats.dp_tail_table_misses
            == serial_miner.stats.dp_tail_table_hits
            + serial_miner.stats.dp_tail_table_misses
        )

    def test_parallel_stats_out_param_accumulates(self, paper_db):
        config = MinerConfig(min_sup=2, pfct=0.8)
        stats = MiningStats()
        results = mine_pfci_parallel(paper_db, config, processes=2, stats=stats)
        assert stats.results_emitted == len(results) == 2
        assert stats.elapsed_seconds > 0.0
        assert_invariants(stats)


class TestStatsObject:
    def test_merge_adds_every_field(self):
        first = MiningStats(nodes_visited=3, dp_cache_hits=5, elapsed_seconds=1.0)
        second = MiningStats(nodes_visited=4, dp_cache_hits=7, elapsed_seconds=0.5)
        first.merge(second)
        assert first.nodes_visited == 7
        assert first.dp_cache_hits == 12
        assert first.elapsed_seconds == pytest.approx(1.5)

    def test_report_structure_is_consistent(self):
        miner = MPFCIMiner(paper_table2_database(), MinerConfig(min_sup=2))
        miner.mine()
        report = miner.stats.report()
        assert set(report) == {"counters", "derived", "runtime", "phases"}
        assert report["runtime"]["branch_retries"] == 0
        assert report["runtime"]["degraded_checks"] == 0
        assert report["counters"] == miner.stats.as_dict()
        assert report["derived"]["dp_requests"] == miner.stats.dp_requests
        assert report["derived"]["check_outcomes"] == miner.stats.checks_performed
        assert report["derived"]["dp_cache_hit_rate"] == pytest.approx(
            miner.stats.dp_cache_hit_rate, abs=1e-6
        )
        assert report["phases"]["total_seconds"] == miner.stats.elapsed_seconds

    def test_summary_mentions_core_counters(self):
        stats = MiningStats(nodes_visited=9, dp_cache_hits=3, dp_cache_misses=1)
        summary = stats.summary()
        assert "nodes=9" in summary
        assert "hit_rate=0.75" in summary

    def test_seed_alias_is_the_same_class(self):
        assert MinerStatistics is MiningStats

    def test_hit_rate_zero_when_idle(self):
        assert MiningStats().dp_cache_hit_rate == 0.0
        assert MiningStats().dp_requests == 0
