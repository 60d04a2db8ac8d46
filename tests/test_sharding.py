"""Sharded-runtime tests: bit-identity, loss policies, checkpoints, merge.

The core contract (docs/robustness.md): mining a database as N supervised
row-range shards returns results bit-identical to the serial miner when no
shard is lost; losing shards under ``degrade-bounds`` returns exactly the
unsharded mining output of the surviving rows, re-tagged
``shard-degraded`` with certified global bounds; ``fail-strict`` refuses
to report partial data at all.
"""

import dataclasses
import json
import math
import random

import pytest

from repro.core.config import MinerConfig
from repro.core.database import UncertainDatabase
from repro.core.miner import MPFCIMiner
from repro.core.support import frequent_probability
from repro.data.columnar import save_shards, shard_ranges
from repro.registry import SHARD_LOSS_POLICIES
from repro.runtime import (
    CheckpointCancelledError,
    CheckpointError,
    CheckpointMismatchError,
    FaultPlan,
    ShardIntegrityError,
    ShardLossError,
    ShardMergeError,
    ShardSet,
    ShardedReport,
    SupervisorConfig,
    load_checkpoint,
    mine_pfci_sharded,
    run_sharded,
    sharded_fingerprint,
)
from repro.runtime.faults import BranchFault
from repro.runtime.sharding import MERGE_VERIFY_TOLERANCE, ShardScan, _merge_screen

from tests.strategies.databases import random_uncertain_database


@pytest.fixture(scope="module")
def database():
    # Large enough for several 64-row shard blocks.
    return random_uncertain_database(random.Random(42), rows=200, items="abcde")


@pytest.fixture(scope="module")
def config():
    return MinerConfig(min_sup=25, pfct=0.5, exact_event_limit=12, seed=7)


@pytest.fixture(scope="module")
def serial_results(database, config):
    return MPFCIMiner(database, config).mine()


def lose_shard(index):
    """A fault plan that permanently kills one shard's scan."""
    return FaultPlan(shard_faults={index: BranchFault("raise", attempts=99)})


class TestShardSet:
    def test_from_database_is_contiguous_and_aligned(self, database):
        shards = ShardSet.from_database(database, 3)
        assert shards.total_transactions == len(database)
        assert [
            (spec.start, spec.stop) for spec in shards.specs
        ] == shard_ranges(len(database), 3)
        for spec in shards.specs[:-1]:
            assert spec.start % 64 == 0

    def test_rejects_gaps_and_disorder(self, database):
        specs = ShardSet.from_database(database, 3).specs
        with pytest.raises(ValueError, match="out of order"):
            ShardSet((specs[0], specs[2]))
        with pytest.raises(ValueError, match="at least one"):
            ShardSet(())

    def test_manifest_roundtrip(self, tmp_path, database):
        manifest = save_shards(database, tmp_path, 3)
        shards = ShardSet.from_manifest(manifest)
        assert len(shards.specs) == 3
        assert shards.total_transactions == len(database)
        from_memory = ShardSet.from_database(database, 3)
        for disk, memory in zip(shards.specs, from_memory.specs):
            assert disk.sha256 == memory.sha256
            assert (disk.start, disk.stop) == (memory.start, memory.stop)


class TestBitIdentity:
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
    def test_sharded_equals_serial(self, database, config, serial_results, num_shards):
        assert mine_pfci_sharded(
            database, config, num_shards, processes=2
        ) == serial_results

    def test_manifest_shards_equal_serial(
        self, tmp_path, database, config, serial_results
    ):
        shards = ShardSet.from_manifest(save_shards(database, tmp_path, 3))
        report = run_sharded(shards, config, processes=2)
        assert report.results == serial_results
        assert report.complete and not report.degraded
        assert report.stats.shards_planned == 3
        assert report.stats.shards_scanned == 3

    def test_recovered_shard_is_still_bit_identical(
        self, database, config, serial_results
    ):
        """A shard that crashes, retries, and recovers changes nothing."""
        plan = FaultPlan(shard_faults={1: BranchFault("raise", attempts=1)})
        report = run_sharded(
            ShardSet.from_database(database, 3), config, processes=2, fault_plan=plan
        )
        assert report.results == serial_results
        assert report.stats.shard_retries == 1


class TestLossPolicies:
    def test_registry_names_and_alias(self):
        names = SHARD_LOSS_POLICIES.names()
        assert "fail-strict" in names and "degrade-bounds" in names
        assert SHARD_LOSS_POLICIES.canonicalize("default") == "fail-strict"

    def test_fail_strict_raises_and_reports_nothing(self, database, config):
        with pytest.raises(ShardLossError, match="shard 1"):
            run_sharded(
                ShardSet.from_database(database, 3),
                config,
                processes=2,
                supervisor=SupervisorConfig(max_retries=0),
                fault_plan=lose_shard(1),
            )

    def test_degrade_bounds_matches_unsharded_survivors(self, database, config):
        shards = ShardSet.from_database(database, 3)
        lost = shards.specs[2]
        report = run_sharded(
            shards,
            config,
            processes=2,
            supervisor=SupervisorConfig(max_retries=0),
            shard_policy="degrade-bounds",
            fault_plan=lose_shard(2),
        )
        assert report.degraded
        assert set(report.lost_shards) == {2}
        surviving = UncertainDatabase(list(database)[: lost.start])
        expected = MPFCIMiner(surviving, config).mine()
        assert [r.itemset for r in report.results] == [r.itemset for r in expected]
        for result, base in zip(report.results, expected):
            assert result.provenance == "shard-degraded"
            assert result.frequent_probability == base.frequent_probability
            low, high = result.frequency_bounds
            assert low <= result.frequent_probability
            assert 0.0 <= low <= high <= 1.0
            s_low, s_high = result.support_bounds
            kept = [
                surviving.probability_of(position)
                for position in surviving.tidset(result.itemset)
            ]
            assert s_low == math.fsum(kept)
            assert s_high == math.fsum([*kept, lost.transactions])

    @pytest.mark.parametrize("seed", range(12))
    def test_degraded_bounds_bracket_the_full_database(self, config, seed):
        """Every degraded interval holds the whole database's computed
        ``Pr_F`` and expected support, whichever shard is lost."""
        database = random_uncertain_database(
            random.Random(seed), rows=200, items="abcde"
        )
        shards = ShardSet.from_database(database, 3)
        for lost in range(3):
            report = run_sharded(
                shards,
                config,
                processes=2,
                supervisor=SupervisorConfig(max_retries=0),
                shard_policy="degrade-bounds",
                fault_plan=lose_shard(lost),
            )
            for result in report.results:
                probabilities = [
                    database.probability_of(position)
                    for position in database.tidset(result.itemset)
                ]
                full = frequent_probability(probabilities, config.min_sup)
                low, high = result.frequency_bounds
                assert low <= full <= high, (lost, result.itemset)
                s_low, s_high = result.support_bounds
                assert s_low <= math.fsum(probabilities) <= s_high

    def test_losing_every_shard_still_fails(self, database, config):
        plan = FaultPlan(
            shard_faults={
                i: BranchFault("raise", attempts=99) for i in range(3)
            }
        )
        with pytest.raises(ShardLossError):
            run_sharded(
                ShardSet.from_database(database, 3),
                config,
                processes=2,
                supervisor=SupervisorConfig(max_retries=0),
                shard_policy="degrade-bounds",
                fault_plan=plan,
            )

    def test_missing_shard_file_goes_through_policy(
        self, tmp_path, database, config
    ):
        manifest = save_shards(database, tmp_path, 3)
        shards = ShardSet.from_manifest(manifest)
        shards.specs[1].path.unlink()
        with pytest.raises(ShardLossError, match="shard 1"):
            run_sharded(shards, config, processes=2)
        report = run_sharded(
            shards, config, processes=2, shard_policy="degrade-bounds"
        )
        assert report.degraded and set(report.lost_shards) == {1}

    def test_corrupted_shard_is_detected(self, tmp_path, database, config):
        manifest = save_shards(database, tmp_path, 3)
        shards = ShardSet.from_manifest(manifest)
        other = save_shards(database, tmp_path / "other", 2)
        # Swap in a valid .utdz with the wrong rows: the digest check must
        # catch it, and fail-strict must surface the integrity error.
        target = shards.specs[2].path
        target.write_bytes(ShardSet.from_manifest(other).specs[1].path.read_bytes())
        with pytest.raises(ShardLossError, match=ShardIntegrityError.__name__):
            run_sharded(
                shards,
                config,
                processes=2,
                supervisor=SupervisorConfig(max_retries=0, inline_fallback=False),
            )


class TestMergeVerification:
    def test_tampered_scan_trips_the_cross_check(self, database, config):
        # Chernoff pruning off so the tampered item still reaches the
        # verification step instead of being screened out first.
        config = dataclasses.replace(config, use_chernoff_pruning=False)
        shards = ShardSet.from_database(database, 2)
        scans = {}
        for spec in shards.specs:
            from repro.runtime.sharding import _scan_shard_worker

            payload = _scan_shard_worker(
                spec.source, spec.index, spec.sha256, config.min_sup, 0, None
            )
            scans[spec.index] = ShardScan(
                shard=spec.index,
                transactions=payload["transactions"],
                items=payload["items"],
                pmfs=payload["pmfs"],
            )
        # Gut shard 0's raw probability vector for one item but keep its
        # precomputed PMF: the convolution-vs-direct-DP check must notice
        # the two paths now disagree about Pr_F.
        probabilities = scans[0].items[0][1]
        probabilities[:] = [0.01] * len(probabilities)
        from repro.core.stats import MiningStats

        with pytest.raises(ShardMergeError, match="pmf_add merge"):
            _merge_screen(shards.specs, scans, config, MiningStats())

    def test_tolerance_is_tight(self):
        assert MERGE_VERIFY_TOLERANCE <= 1e-9


class TestShardedCheckpoint:
    def test_fingerprint_encodes_layout_and_policy(self, database, config):
        shards3 = ShardSet.from_database(database, 3)
        shards2 = ShardSet.from_database(database, 2)
        fp3 = sharded_fingerprint(shards3, config, "fail-strict")
        assert fp3 != sharded_fingerprint(shards2, config, "fail-strict")
        assert fp3 != sharded_fingerprint(shards3, config, "degrade-bounds")

    def test_resume_over_finished_checkpoint_is_bit_identical(
        self, tmp_path, database, config, serial_results
    ):
        shards = ShardSet.from_database(database, 3)
        path = tmp_path / "run.ckpt"
        first = run_sharded(shards, config, processes=2, checkpoint_path=path)
        second = run_sharded(
            shards, config, processes=2, checkpoint_path=path,
            resume_from_checkpoint=True,
        )
        assert first.results == second.results == serial_results
        assert second.stats.shards_scanned == 0
        assert second.stats.checkpoint_shards_skipped == 3
        assert all(o.status == "checkpointed" for o in second.shard_outcomes)

    def test_shard_records_survive_shard_file_loss(
        self, tmp_path, database, config, serial_results
    ):
        """A scanned-then-lost shard file degrades at merge time on resume.

        The shard-scan records hold the screen's inputs, so the candidate
        screen still runs; only the mining rows are gone, and the loss
        policy decides.
        """
        manifest = save_shards(database, tmp_path / "shards", 3)
        shards = ShardSet.from_manifest(manifest)
        strict = tmp_path / "strict.ckpt"
        lenient = tmp_path / "lenient.ckpt"
        run_sharded(shards, config, processes=2, checkpoint_path=strict)
        run_sharded(
            shards, config, processes=2, checkpoint_path=lenient,
            shard_policy="degrade-bounds",
        )
        shards.specs[1].path.unlink()
        with pytest.raises(ShardLossError, match="merge time"):
            run_sharded(
                shards, config, processes=2, checkpoint_path=strict,
                resume_from_checkpoint=True,
            )
        degraded = run_sharded(
            shards, config, processes=2, checkpoint_path=lenient,
            resume_from_checkpoint=True, shard_policy="degrade-bounds",
        )
        assert degraded.degraded and set(degraded.lost_shards) == {1}

    @pytest.mark.parametrize("index", [3, -1])
    @pytest.mark.parametrize("kind", ["shard-lost", "shard-scan"])
    def test_resume_refuses_a_shard_outside_the_run(
        self, tmp_path, database, config, kind, index
    ):
        shards = ShardSet.from_database(database, 3)
        path = tmp_path / "run.ckpt"
        run_sharded(shards, config, processes=1, checkpoint_path=path)
        header = path.read_text().splitlines()[0]
        record = {"kind": kind, "shard": index, "reason": "lost",
                  "transactions": 64, "items": []}
        path.write_text(header + "\n" + json.dumps(record) + "\n")
        with pytest.raises(CheckpointError, match=f"names shard {index} but"):
            run_sharded(
                shards, config, processes=1, checkpoint_path=path,
                resume_from_checkpoint=True,
            )

    def test_sharded_checkpoint_refuses_different_partition(
        self, tmp_path, database, config
    ):
        path = tmp_path / "run.ckpt"
        run_sharded(
            ShardSet.from_database(database, 3), config, processes=2,
            checkpoint_path=path,
        )
        with pytest.raises(CheckpointMismatchError):
            run_sharded(
                ShardSet.from_database(database, 2), config, processes=2,
                checkpoint_path=path, resume_from_checkpoint=True,
            )
        with pytest.raises(CheckpointMismatchError, match="shard_policy"):
            run_sharded(
                ShardSet.from_database(database, 3), config, processes=2,
                checkpoint_path=path, resume_from_checkpoint=True,
                shard_policy="degrade-bounds",
            )

    def test_unsharded_resume_refuses_sharded_checkpoint(
        self, tmp_path, database, config
    ):
        from repro.runtime import resume

        path = tmp_path / "run.ckpt"
        run_sharded(
            ShardSet.from_database(database, 3), config, processes=2,
            checkpoint_path=path,
        )
        with pytest.raises(CheckpointMismatchError):
            resume(database, config, path)

    def test_scan_cancellation_is_durable(self, tmp_path, database, config):
        import threading

        event = threading.Event()
        event.set()
        path = tmp_path / "run.ckpt"
        report = run_sharded(
            ShardSet.from_database(database, 3), config, processes=2,
            checkpoint_path=path, cancel_event=event,
        )
        assert report.scan_cancelled and report.cancelled
        assert not report.complete and report.results == []
        assert all(o.status == "cancelled" for o in report.shard_outcomes)
        assert load_checkpoint(path).cancelled
        with pytest.raises(CheckpointCancelledError):
            run_sharded(
                ShardSet.from_database(database, 3), config, processes=2,
                checkpoint_path=path, resume_from_checkpoint=True,
            )


class TestShardedReport:
    def test_roundtrips_through_dict(self, database, config):
        report = run_sharded(
            ShardSet.from_database(database, 3), config, processes=2,
            supervisor=SupervisorConfig(max_retries=0),
            shard_policy="degrade-bounds", fault_plan=lose_shard(0),
        )
        payload = report.to_dict()
        assert payload["degraded"] is True
        assert payload["shard_policy"] == "degrade-bounds"
        assert payload["lost_shards"].keys() == {"0"}
        restored = ShardedReport.from_dict(payload)
        assert restored.results == report.results
        assert restored.lost_shards == report.lost_shards
        assert [dataclasses.asdict(o) for o in restored.shard_outcomes] == [
            dataclasses.asdict(o) for o in report.shard_outcomes
        ]

    def test_degraded_bounds_survive_serialization(self, database, config):
        report = run_sharded(
            ShardSet.from_database(database, 3), config, processes=2,
            supervisor=SupervisorConfig(max_retries=0),
            shard_policy="degrade-bounds", fault_plan=lose_shard(0),
        )
        assert report.results, "need degraded results for this test"
        import json

        payload = json.loads(json.dumps(report.to_dict()))
        restored = ShardedReport.from_dict(payload)
        for before, after in zip(report.results, restored.results):
            assert after.frequency_bounds == before.frequency_bounds
            assert after.support_bounds == before.support_bounds
            assert after.provenance == "shard-degraded"
