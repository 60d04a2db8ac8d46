"""Fault-injection tests for the supervised mining runtime.

Every scenario scripts worker failures with a deterministic
:class:`FaultPlan` and asserts the acceptance property of
``docs/robustness.md``: recovery never changes *what* is mined — under any
survivable fault schedule, the supervised run returns exactly the serial
miner's results, and every recovery action is visible in the ``MiningStats``
runtime counters.
"""

import pytest

from repro.core.config import MinerConfig
from repro.core.database import paper_table2_database
from repro.core.miner import MPFCIMiner
from repro.core.stats import MiningStats
from repro.runtime import (
    BranchFailedError,
    BranchFault,
    FaultInjected,
    FaultPlan,
    SupervisorConfig,
    mine_pfci_supervised,
    run_supervised,
)
from repro.runtime.supervisor import plan_root_branches


@pytest.fixture(scope="module")
def database():
    return paper_table2_database()


@pytest.fixture(scope="module")
def config():
    # exact_event_limit covers every check on this database, so the serial
    # and per-branch runs are seed-independent and bit-comparable.
    return MinerConfig(min_sup=2, pfct=0.5, exact_event_limit=12, seed=7)


@pytest.fixture(scope="module")
def serial_results(database, config):
    return MPFCIMiner(database, config).mine()


def result_key(results):
    return [
        (
            result.itemset,
            result.probability,
            result.lower,
            result.upper,
            result.method,
            result.frequent_probability,
            result.provenance,
        )
        for result in results
    ]


class TestFaultPlan:
    def test_fires_only_below_attempt_budget(self):
        plan = FaultPlan({3: BranchFault("raise", attempts=2)})
        assert plan.fault_for(3, 0) is not None
        assert plan.fault_for(3, 1) is not None
        assert plan.fault_for(3, 2) is None
        assert plan.fault_for(0, 0) is None

    def test_raise_fault_raises(self):
        plan = FaultPlan({0: BranchFault("raise")})
        with pytest.raises(FaultInjected):
            plan.apply(0, 0)
        plan.apply(0, 1)  # expired: no-op

    def test_process_faults_degrade_to_raise_inline(self):
        for kind in ("hang", "exit"):
            plan = FaultPlan({0: BranchFault(kind, attempts=5)})
            with pytest.raises(FaultInjected):
                plan.apply(0, 0, inline=True)


class TestSupervisedRecovery:
    def test_clean_run_matches_serial(self, database, config, serial_results):
        stats = MiningStats()
        results = mine_pfci_supervised(database, config, processes=2, stats=stats)
        assert result_key(results) == result_key(serial_results)
        assert stats.branch_retries == 0
        assert stats.branches_failed == 0
        tasks, _ = plan_root_branches(database, config)
        assert stats.branches_dispatched == len(tasks)

    def test_crash_and_hang_recovery_matches_serial(
        self, database, config, serial_results
    ):
        """The headline acceptance scenario: one branch crashes once, another
        hangs once; the run retries both and still produces exactly the
        serial miner's itemsets, with the recovery visible in the report."""
        plan = FaultPlan(
            {
                0: BranchFault("raise", attempts=1),
                1: BranchFault("hang", attempts=1, hang_seconds=10.0),
            }
        )
        supervisor = SupervisorConfig(branch_timeout_seconds=1.0, max_retries=2)
        stats = MiningStats()
        results = mine_pfci_supervised(
            database, config, processes=2, stats=stats,
            supervisor=supervisor, fault_plan=plan,
        )
        assert result_key(results) == result_key(serial_results)
        assert stats.branch_retries >= 2  # the crashed and the hung branch
        assert stats.branch_timeouts >= 1
        assert stats.pool_rebuilds >= 1  # the hang forced a pool kill
        assert stats.branches_failed == 0
        runtime = stats.report()["runtime"]
        assert runtime["branch_retries"] == stats.branch_retries
        assert runtime["branch_timeouts"] == stats.branch_timeouts

    def test_timeout_charges_only_the_hung_branch(self, database, config):
        """A branch that hangs on every attempt must not burn the retry
        budget of innocent branches: with max_retries=0 and no inline
        fallback, only the hung branch may end up failed — everything lost
        to the pool kill is collateral and is re-dispatched for free."""
        plan = FaultPlan({0: BranchFault("hang", attempts=99, hang_seconds=10.0)})
        supervisor = SupervisorConfig(
            branch_timeout_seconds=0.75, max_retries=0, inline_fallback=False
        )
        report = run_supervised(
            database, config, processes=2, supervisor=supervisor, fault_plan=plan
        )
        assert report.stats.branches_failed == 1
        (failed,) = report.failed
        assert failed.rank == 0
        statuses = {outcome.rank: outcome.status for outcome in report.outcomes}
        assert all(
            status == "completed"
            for rank, status in statuses.items()
            if rank != 0
        )
        assert report.stats.branch_timeouts == 1
        # Collateral restarts are tracked separately from retries.
        runtime = report.stats.report()["runtime"]
        assert (
            runtime["branch_collateral_restarts"]
            == report.stats.branch_collateral_restarts
        )

    def test_worker_exit_breaks_pool_and_recovers(
        self, database, config, serial_results
    ):
        """A hard worker exit surfaces as BrokenProcessPool; the supervisor
        rebuilds the pool and re-dispatches only unfinished branches."""
        plan = FaultPlan({2: BranchFault("exit", attempts=1)})
        stats = MiningStats()
        results = mine_pfci_supervised(
            database, config, processes=2, stats=stats, fault_plan=plan
        )
        assert result_key(results) == result_key(serial_results)
        assert stats.pool_rebuilds >= 1
        assert stats.branch_retries >= 1
        assert stats.branches_failed == 0

    def test_retry_exhaustion_recovers_inline(self, database, config, serial_results):
        """A branch that fails every pool attempt still completes via the
        in-process fallback, bit-identically (nothing a branch computes
        depends on the attempt or execution venue)."""
        supervisor = SupervisorConfig(max_retries=1)
        # Pool attempts are 0 and 1; the inline attempt (2) is past the
        # fault's budget, so it succeeds.
        plan = FaultPlan({0: BranchFault("raise", attempts=2)})
        report = run_supervised(
            database, config, processes=2, supervisor=supervisor, fault_plan=plan
        )
        assert result_key(report.results) == result_key(serial_results)
        assert report.stats.branches_recovered_inline == 1
        assert report.complete
        statuses = {outcome.rank: outcome.status for outcome in report.outcomes}
        assert statuses[0] == "recovered-inline"

    def test_unrecoverable_branch_reported_not_fatal(self, database, config):
        """A branch that fails even inline is reported as failed; the rest of
        the run completes and the partial results are returned."""
        supervisor = SupervisorConfig(max_retries=1)
        plan = FaultPlan({0: BranchFault("raise", attempts=99)})
        report = run_supervised(
            database, config, processes=2, supervisor=supervisor, fault_plan=plan
        )
        assert not report.complete
        assert report.stats.branches_failed == 1
        (failed,) = report.failed
        assert failed.rank == 0
        assert "FaultInjected" in failed.error
        completed = [o for o in report.outcomes if o.status == "completed"]
        assert completed  # the other branches survived

    def test_fail_fast_raises(self, database, config):
        supervisor = SupervisorConfig(max_retries=0, fail_fast=True)
        plan = FaultPlan({0: BranchFault("raise", attempts=99)})
        with pytest.raises(BranchFailedError):
            run_supervised(
                database, config, processes=2, supervisor=supervisor, fault_plan=plan
            )


class TestGracefulDegradation:
    @pytest.fixture(scope="class")
    def degradable_config(self):
        # Disable Lemma 4.4 bounds so exact-eligible checks actually reach
        # the inclusion-exclusion path where the budget applies.
        return MinerConfig(
            min_sup=1, pfct=0.1, exact_event_limit=12, seed=7,
            use_probability_bounds=False,
        )

    def test_budget_exceeded_degrades_and_tags(self, database, degradable_config):
        miner = MPFCIMiner(database, degradable_config.variant(exact_check_budget=0))
        results = miner.mine()
        degraded = [r for r in results if r.provenance == "approx-degraded"]
        assert degraded, "budget 0 must force at least one degradation"
        assert all(r.method == "sampled" for r in degraded)
        assert miner.stats.degraded_checks == miner.stats.degraded_by_budget
        assert miner.stats.degraded_checks >= len(degraded)
        runtime = miner.stats.report()["runtime"]
        assert runtime["degraded_by_budget"] == miner.stats.degraded_by_budget

    def test_generous_budget_never_degrades(self, database, degradable_config):
        miner = MPFCIMiner(
            database, degradable_config.variant(exact_check_budget=10**9)
        )
        results = miner.mine()
        assert all(r.provenance == "exact" for r in results)
        assert miner.stats.degraded_checks == 0

    def test_every_result_carries_provenance(self, database, config):
        for result in MPFCIMiner(database, config).mine():
            assert result.provenance in ("exact", "approx-degraded")
            assert result.to_dict()["provenance"] == result.provenance

    def test_degradation_keeps_check_accounting(self, database, degradable_config):
        miner = MPFCIMiner(database, degradable_config.variant(exact_check_budget=0))
        miner.mine()
        stats = miner.stats
        assert stats.check_outcomes == stats.checks_performed

    def test_deadline_degrades_after_cutoff(self, database, degradable_config):
        """An (almost) immediate deadline forces every later exact-eligible
        check onto the sampling path."""
        miner = MPFCIMiner(
            database, degradable_config.variant(check_deadline_seconds=1e-9)
        )
        miner.mine()
        # The very first check may still run exact (the clock starts at 0),
        # but once any check time accumulates, degradation kicks in — and
        # the deadline is the only active trigger.
        assert miner.stats.degraded_by_deadline == miner.stats.degraded_checks
        assert miner.stats.degraded_by_budget == 0
        assert miner.stats.degraded_checks >= 1
