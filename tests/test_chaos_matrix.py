"""Deterministic chaos matrix over the sharded runtime (CI: chaos-smoke).

Every cell of the matrix is scripted with a :class:`FaultPlan`, so each
run fails identically: fault kinds (crash / hard exit / hang / slow IO)
crossed with the recovery paths (retry, kill-and-resume, degrade).  The
last tests drive the same faults through the real HTTP service to prove a
chaotic job dies cleanly while the server stays live.
"""

import asyncio
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.config import MinerConfig
from repro.core.miner import MPFCIMiner
from repro.data.columnar import save_shards
from repro.runtime import (
    CheckpointError,
    FaultPlan,
    ShardLossError,
    ShardSet,
    SupervisorConfig,
    has_checkpoint_header,
    load_checkpoint,
    run_sharded,
)
from repro.runtime.faults import BranchFault

from tests.conftest import assert_processes_exit, child_pids
from tests.strategies.databases import random_uncertain_database
from tests.test_service_http import (
    FAST_BODY,
    poll_until_terminal,
    request,
    run_service_test,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

# Process-level fault kinds: each exercises a different supervisor path
# (exception surfacing, BrokenProcessPool rebuild, timeout kill).
PROCESS_KINDS = ("raise", "exit", "hang")


@pytest.fixture(scope="module")
def database():
    return random_uncertain_database(random.Random(99), rows=140, items="abcd")


@pytest.fixture(scope="module")
def config():
    return MinerConfig(min_sup=18, pfct=0.5, exact_event_limit=12, seed=7)


@pytest.fixture(scope="module")
def serial_results(database, config):
    return MPFCIMiner(database, config).mine()


def fault(kind, attempts):
    # hang_seconds only bounds how long a leaked worker can linger: the
    # supervisor kills hung workers at the timeout.
    return BranchFault(kind, attempts=attempts, hang_seconds=30.0)


def supervisor_for(kind, max_retries):
    timeout = 1.0 if kind == "hang" else None
    return SupervisorConfig(branch_timeout_seconds=timeout, max_retries=max_retries)


class TestRetryPath:
    """Fault fires once; the retry succeeds; the answer is untouched."""

    @pytest.mark.parametrize("kind", PROCESS_KINDS)
    def test_single_fault_recovers_bit_identical(
        self, database, config, serial_results, kind
    ):
        report = run_sharded(
            ShardSet.from_database(database, 3),
            config,
            processes=2,
            supervisor=supervisor_for(kind, max_retries=2),
            fault_plan=FaultPlan(shard_faults={1: fault(kind, attempts=1)}),
        )
        assert report.results == serial_results
        assert report.complete and not report.degraded
        stats = report.stats
        if kind == "hang":
            # One timeout kill: one charged retry, one rebuilt pool, no
            # inline run, and no scan event lands in a branch counter.
            assert (stats.shard_timeouts, stats.shard_retries) == (1, 1)
            assert stats.pool_rebuilds == 1
            assert stats.shards_recovered_inline == 0
            assert stats.branch_timeouts == stats.branch_retries == 0
            assert stats.branch_collateral_restarts == 0
        else:
            assert stats.shard_retries >= 1

    def test_slow_io_succeeds_without_tripping_recovery(
        self, database, config, serial_results
    ):
        plan = FaultPlan(
            shard_faults={
                1: BranchFault("slow-io", attempts=1, delay_seconds=0.3)
            }
        )
        report = run_sharded(
            ShardSet.from_database(database, 3), config, processes=2,
            fault_plan=plan,
        )
        assert report.results == serial_results
        assert report.stats.shard_retries == 0
        assert report.stats.shard_timeouts == 0


class TestLossAndResume:
    """Fault outlasts the retry budget; fail-strict dies; resume finishes."""

    @pytest.mark.parametrize("kind", PROCESS_KINDS)
    def test_fail_strict_then_resume_bit_identical(
        self, tmp_path, database, config, serial_results, kind
    ):
        shards = ShardSet.from_database(database, 3)
        path = tmp_path / "run.ckpt"
        with pytest.raises(ShardLossError, match="shard 1"):
            run_sharded(
                shards, config, processes=2,
                supervisor=supervisor_for(kind, max_retries=0),
                fault_plan=FaultPlan(shard_faults={1: fault(kind, attempts=99)}),
                checkpoint_path=path,
            )
        # The healthy shards' scans are durable; a faultless resume only
        # rescans the lost shard and must reproduce the serial answer.
        resumed = run_sharded(
            shards, config, processes=2, checkpoint_path=path,
            resume_from_checkpoint=True,
        )
        assert resumed.results == serial_results
        assert resumed.complete
        assert resumed.stats.shards_lost == 0

    @pytest.mark.parametrize("kind", PROCESS_KINDS)
    def test_degrade_bounds_survives_each_kind(self, database, config, kind):
        report = run_sharded(
            ShardSet.from_database(database, 3),
            config,
            processes=2,
            supervisor=supervisor_for(kind, max_retries=0),
            shard_policy="degrade-bounds",
            fault_plan=FaultPlan(shard_faults={1: fault(kind, attempts=99)}),
        )
        assert report.degraded and set(report.lost_shards) == {1}
        assert report.complete
        for result in report.results:
            assert result.provenance == "shard-degraded"
            low, high = result.frequency_bounds
            assert 0.0 <= low <= high <= 1.0

    def test_branch_fault_on_surviving_merge(
        self, database, config, serial_results
    ):
        """One plan can fault a shard scan *and* a mining branch."""
        plan = FaultPlan(
            branch_faults={0: fault("raise", attempts=1)},
            shard_faults={2: fault("raise", attempts=1)},
        )
        report = run_sharded(
            ShardSet.from_database(database, 3), config, processes=2,
            fault_plan=plan,
        )
        assert report.results == serial_results
        assert report.stats.shard_retries >= 1
        assert report.stats.branch_retries >= 1


_KILL_SCRIPT = """
import random, sys
from repro.core.config import MinerConfig
from repro.runtime import FaultPlan, ShardSet, run_sharded
from repro.runtime.faults import BranchFault

shards = ShardSet.from_manifest(sys.argv[1])
config = MinerConfig(min_sup=18, pfct=0.5, exact_event_limit=12, seed=7)
run_sharded(
    shards, config, processes=2,
    fault_plan=FaultPlan(shard_faults={
        2: BranchFault("slow-io", attempts=1, delay_seconds=15.0)
    }),
    checkpoint_path=sys.argv[2],
)
"""


class TestKillNineDuringShardMerge:
    def test_resume_after_kill_is_bit_identical(
        self, tmp_path, database, config, serial_results
    ):
        """SIGKILL mid-run: the shard-scan records already on disk let a
        fresh process resume straight to the merge, bit-identically."""
        manifest = save_shards(database, tmp_path / "shards", 3)
        shards = ShardSet.from_manifest(manifest)
        checkpoint_path = tmp_path / "run.ckpt"
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        child = subprocess.Popen(
            [sys.executable, "-c", _KILL_SCRIPT, str(manifest), str(checkpoint_path)],
            env=env,
            cwd=REPO_ROOT,
        )
        try:
            # Shard 2 is stuck in slow IO; wait until the two healthy
            # shards' scan records are durable, then kill without mercy.
            deadline = time.monotonic() + 60.0
            while True:
                assert child.poll() is None, "child finished before the kill"
                if has_checkpoint_header(checkpoint_path):
                    try:
                        snapshot = load_checkpoint(checkpoint_path)
                    except CheckpointError:
                        snapshot = None
                    if snapshot is not None and len(snapshot.shard_scans) >= 2:
                        break
                assert time.monotonic() < deadline, "scan records never appeared"
                time.sleep(0.05)
            workers = child_pids(child.pid)
        finally:
            if child.poll() is None:
                os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=30)
        # The killed run's pool workers must not outlive it.
        assert workers or not Path("/proc").is_dir()
        assert_processes_exit(workers)

        checkpoint = load_checkpoint(checkpoint_path)
        assert len(checkpoint.shard_scans) == 2
        assert not checkpoint.branches
        resumed = run_sharded(
            shards, config, processes=2, checkpoint_path=checkpoint_path,
            resume_from_checkpoint=True,
        )
        assert resumed.results == serial_results
        assert resumed.complete
        assert resumed.stats.checkpoint_shards_skipped == 2


CHAOS_HANG = {
    "shards": 1,
    "supervisor": {"branch_timeout_seconds": 0.5, "max_retries": 0},
    "chaos": {
        "shard_faults": {
            "0": {"kind": "hang", "attempts": 99, "hang_seconds": 5.0}
        }
    },
}


class TestServiceChaos:
    def test_hang_fault_fails_job_but_not_server(self, tmp_path):
        async def scenario(service, port):
            body = dict(FAST_BODY, **CHAOS_HANG)
            status, submitted = await request(port, "POST", "/jobs", body)
            assert status == 202
            final = await poll_until_terminal(port, submitted["job_id"])
            assert final["state"] == "failed"
            assert "ShardLossError" in final["error"]
            assert final["sharding"] == {
                "shards": 1, "shard_policy": "fail-strict",
            }

            # The server survived its job's chaos: health is green, the
            # loss shows up in the robustness aggregates, and a clean
            # submission of the same database still mines from scratch.
            status, health = await request(port, "GET", "/healthz")
            assert status == 200 and health["status"] == "ok"
            status, metrics = await request(port, "GET", "/metrics")
            assert status == 200
            assert metrics["robustness"]["shards_lost"] >= 1

            status, clean = await request(port, "POST", "/jobs", FAST_BODY)
            assert status == 202
            assert not clean["cached"] and not clean["coalesced"]
            done = await poll_until_terminal(port, clean["job_id"])
            assert done["state"] == "completed"

        asyncio.run(run_service_test(scenario)(tmp_path))

    def test_retried_chaos_job_completes_with_clean_results(self, tmp_path):
        async def scenario(service, port):
            body = dict(
                FAST_BODY,
                shards=1,
                chaos={
                    "shard_faults": {"0": {"kind": "raise", "attempts": 1}}
                },
            )
            status, submitted = await request(port, "POST", "/jobs", body)
            assert status == 202
            final = await poll_until_terminal(port, submitted["job_id"])
            assert final["state"] == "completed"
            status, chaotic = await request(
                port, "GET", f"/jobs/{submitted['job_id']}/result"
            )
            assert status == 200

            # Same database and config without chaos: the chaos job's salted
            # fingerprint must not have seeded the cache, and both paths
            # must return identical results.
            status, clean = await request(port, "POST", "/jobs", FAST_BODY)
            assert status == 202 and not clean["cached"]
            await poll_until_terminal(port, clean["job_id"])
            status, reference = await request(
                port, "GET", f"/jobs/{clean['job_id']}/result"
            )
            assert status == 200
            assert chaotic["results"] == reference["results"]

        asyncio.run(run_service_test(scenario)(tmp_path))

    def test_invalid_chaos_plan_is_a_400(self, tmp_path):
        async def scenario(service, port):
            body = dict(FAST_BODY, chaos={"shard_faults": {"0": {"kind": "nope"}}})
            status, payload = await request(port, "POST", "/jobs", body)
            assert status == 400
            assert payload["error"]["code"] == "invalid-chaos"

        asyncio.run(run_service_test(scenario)(tmp_path))
