"""Unit tests for the service's job model, cache, schemas, and cancellation.

The cancellation tests pin the satellite-3 contract: cancelling a run
leaves a checkpoint durably *marked cancelled* (never a
resumable-but-abandoned file), resuming such a checkpoint refuses with
:class:`CheckpointCancelledError`, and a cancelled run never reaches the
fingerprint cache — so resubmitting the same work mines fresh.
"""

import asyncio
import json
import logging
import threading

import pytest

from repro.core.config import MinerConfig
from repro.core.database import paper_table2_database
from repro.core.miner import MPFCIMiner
from repro.runtime import (
    CheckpointCancelledError,
    SupervisorConfig,
    fingerprint,
    load_checkpoint,
    run_supervised,
)
from repro.runtime.checkpoint import CheckpointWriter, config_fingerprint
from repro.service import (
    ApiError,
    JobStore,
    MiningService,
    ResultCache,
    parse_job_request,
)


@pytest.fixture(scope="module")
def database():
    return paper_table2_database()


@pytest.fixture(scope="module")
def config():
    return MinerConfig(min_sup=2, pfct=0.5, exact_event_limit=12, seed=7)


DIGEST = "0" * 64


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(DIGEST) is None
        cache.put(DIGEST, {"results": [1, 2]})
        assert cache.get(DIGEST) == {"results": [1, 2]}
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "entries": 1,
            "max_entries": cache.max_entries,
        }

    def test_contains_and_len(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert DIGEST not in cache
        cache.put(DIGEST, {})
        assert DIGEST in cache
        assert len(cache) == 1

    def test_damaged_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(DIGEST, {"ok": True})
        (tmp_path / f"{DIGEST}.json").write_text("{torn", encoding="utf-8")
        assert cache.get(DIGEST) is None
        assert cache.misses == 1

    def test_rejects_non_digest_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError):
            cache.get("../../etc/passwd")
        with pytest.raises(ValueError):
            cache.put("short", {})


class GoodBody:
    """A fresh, valid submission body per call (tests mutate it)."""

    @staticmethod
    def make():
        return {
            "database": {
                "transactions": [
                    {"tid": "T1", "probability": 0.9, "items": ["a", "b"]},
                    {"tid": "T2", "probability": 0.5, "items": ["a"]},
                ]
            },
            "config": {"min_sup": 1, "pfct": 0.5},
        }


class TestParseJobRequest:
    def test_valid_inline(self):
        request = parse_job_request(GoodBody.make())
        assert request.database is not None
        assert request.database_path is None
        assert request.config.min_sup == 1
        assert request.processes is None and request.supervisor is None

    def test_valid_path_and_options(self):
        body = GoodBody.make()
        body["database"] = {"path": "data/mushroom.utd"}
        body["processes"] = 3
        body["supervisor"] = {"max_retries": 1}
        request = parse_job_request(body)
        assert request.database is None
        assert request.database_path == "data/mushroom.utd"
        assert request.processes == 3
        assert isinstance(request.supervisor, SupervisorConfig)

    def assert_error(self, body, code, fragment=""):
        with pytest.raises(ApiError) as excinfo:
            parse_job_request(body)
        assert excinfo.value.status == 400
        assert excinfo.value.code == code
        assert fragment in excinfo.value.message

    def test_non_object_body(self):
        self.assert_error([1, 2], "invalid-request")

    def test_unknown_top_level_field(self):
        body = GoodBody.make()
        body["databse"] = body.pop("database")
        self.assert_error(body, "unknown-field", "databse")

    def test_unknown_config_field(self):
        body = GoodBody.make()
        body["config"]["min_supp"] = 2
        self.assert_error(body, "unknown-field", "min_supp")

    def test_missing_min_sup(self):
        body = GoodBody.make()
        del body["config"]["min_sup"]
        self.assert_error(body, "invalid-config", "min_sup")

    def test_registry_did_you_mean_surfaces(self):
        body = GoodBody.make()
        body["config"]["tidset_backend"] = "bitmpa"
        with pytest.raises(ApiError) as excinfo:
            parse_job_request(body)
        assert excinfo.value.code == "invalid-config"
        assert "bitmap" in excinfo.value.message  # the suggestion

    def test_database_needs_exactly_one_form(self):
        body = GoodBody.make()
        body["database"]["path"] = "x.utd"  # both forms
        self.assert_error(body, "invalid-database", "exactly one")
        body = GoodBody.make()
        body["database"] = {}
        self.assert_error(body, "invalid-database", "exactly one")

    def test_probability_out_of_range(self):
        body = GoodBody.make()
        body["database"]["transactions"][0]["probability"] = 0.0
        self.assert_error(body, "invalid-database", "probability")
        body = GoodBody.make()
        body["database"]["transactions"][0]["probability"] = 1.5
        self.assert_error(body, "invalid-database", "probability")

    def test_empty_items(self):
        body = GoodBody.make()
        body["database"]["transactions"][0]["items"] = []
        self.assert_error(body, "invalid-database", "items")

    def test_default_tids_assigned(self):
        body = GoodBody.make()
        for transaction in body["database"]["transactions"]:
            del transaction["tid"]
        request = parse_job_request(body)
        assert [t.tid for t in request.database] == ["T1", "T2"]

    def test_bad_processes(self):
        for bad in (0, -1, "2", True):
            body = GoodBody.make()
            body["processes"] = bad
            self.assert_error(body, "invalid-request", "processes")

    def test_unknown_supervisor_field(self):
        body = GoodBody.make()
        body["supervisor"] = {"max_retrys": 2}
        self.assert_error(body, "unknown-field", "max_retrys")

    def test_non_finite_supervisor_field(self):
        # json.loads accepts the NaN literal, so an HTTP body can carry it.
        body = GoodBody.make()
        body["supervisor"] = json.loads('{"poll_interval_seconds": NaN}')
        self.assert_error(body, "invalid-supervisor", "poll_interval_seconds")


class TestJobStore:
    def test_create_materializes_and_fingerprints(self, tmp_path, database, config):
        store = JobStore(tmp_path)
        job = store.create(database, config, None, None, submitted_at=1.0)
        assert job.id == "j000001"
        assert job.state == "queued"
        assert job.database_path.exists()
        # Fingerprint is computed over the *materialized* database: loading
        # it back and fingerprinting again must agree (this is what makes
        # the submit digest, checkpoint header, and cache key one value).
        from repro.data.io import load_uncertain_database

        reloaded = load_uncertain_database(job.database_path)
        assert fingerprint(reloaded, config) == job.fingerprint

    def test_manifest_round_trip_across_store_restart(
        self, tmp_path, database, config
    ):
        store = JobStore(tmp_path)
        job = store.create(database, config, 2, SupervisorConfig(), submitted_at=5.0)
        job.state = "running"
        job.started_at = 6.0
        job.stats = {"checks_performed": 4}
        store.save(job)

        reopened = JobStore(tmp_path)
        restored = reopened.get(job.id)
        assert restored is not None
        assert restored.state == "running"
        assert restored.fingerprint == job.fingerprint
        assert restored.config == job.config
        assert restored.supervisor == job.supervisor
        assert restored.stats == {"checks_performed": 4}
        assert restored.miner_config() == config

    def test_sequence_continues_after_restart(self, tmp_path, database, config):
        store = JobStore(tmp_path)
        store.create(database, config, None, None, submitted_at=1.0)
        reopened = JobStore(tmp_path)
        second = reopened.create(database, config, None, None, submitted_at=2.0)
        assert second.id == "j000002"

    def test_discard_removes_directory(self, tmp_path, database, config):
        store = JobStore(tmp_path)
        job = store.create(database, config, None, None, submitted_at=1.0)
        store.discard(job)
        assert store.get(job.id) is None
        assert not job.directory.exists()

    def test_counts(self, tmp_path, database, config):
        store = JobStore(tmp_path)
        job = store.create(database, config, None, None, submitted_at=1.0)
        job.state = "completed"
        store.save(job)
        counts = store.counts()
        assert counts["completed"] == 1
        assert counts["queued"] == 0


class TestRecoveryOfDamagedCheckpoint:
    def test_unreadable_checkpoint_restarts_the_job(
        self, tmp_path, database, config, caplog
    ):
        """An unfinished job whose checkpoint holds a branch record with no
        results: the service discards the file, comes up, and mines the job
        from scratch to the uninterrupted run's results."""
        from repro.data.io import load_uncertain_database

        store = JobStore(tmp_path)
        job = store.create(database, config, 2, None, submitted_at=1.0)
        job.state = "running"
        store.save(job)
        materialized = load_uncertain_database(job.database_path)
        CheckpointWriter(
            job.checkpoint_path, config_fingerprint(materialized, config)
        ).close()
        with job.checkpoint_path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "branch", "rank": 0, "item": "a", "stats": {}}\n')

        async def scenario():
            service = MiningService(tmp_path)
            await service.start("127.0.0.1", 0)
            await service.shutdown(drain=True)

        with caplog.at_level(logging.WARNING, logger="repro.service.runner"):
            asyncio.run(scenario())
        assert "discarding unreadable checkpoint" in caplog.text
        finished = JobStore(tmp_path).get(job.id)
        assert finished.state == "completed"
        document = json.loads(finished.result_path.read_text())
        reference = run_supervised(materialized, config, processes=2)
        assert document["results"] == reference.to_dict()["results"]


class _FireAfter:
    """A deterministic cancel signal: reads as set from the N-th check on.

    Replaces wall-clock racing in mid-run cancellation tests — the
    supervisor polls the event at well-defined points, so "cancel after k
    polls" lands at a reproducible place in the run.
    """

    def __init__(self, checks: int) -> None:
        self._remaining = checks
        self._lock = threading.Lock()

    def is_set(self) -> bool:
        with self._lock:
            if self._remaining > 0:
                self._remaining -= 1
                return False
            return True


class TestCancellationDurability:
    def test_precancelled_run_marks_checkpoint(self, tmp_path, database, config):
        checkpoint_path = tmp_path / "checkpoint.jsonl"
        event = threading.Event()
        event.set()
        report = run_supervised(
            database, config, processes=2,
            checkpoint_path=checkpoint_path, cancel_event=event,
        )
        assert report.cancelled
        assert not report.complete
        assert not report.results
        checkpoint = load_checkpoint(checkpoint_path)
        assert checkpoint.cancelled
        assert checkpoint.cancelled_ranks  # every branch durably cancelled

    def test_midrun_cancel_keeps_finished_branches(self, tmp_path, database, config):
        checkpoint_path = tmp_path / "checkpoint.jsonl"
        report = run_supervised(
            database, config, processes=1,
            checkpoint_path=checkpoint_path,
            cancel_event=_FireAfter(3),
        )
        assert report.cancelled
        checkpoint = load_checkpoint(checkpoint_path)
        assert checkpoint.cancelled
        # Completed and cancelled ranks partition the branch plan: nothing
        # is silently dropped, and whatever finished before the signal
        # matches the serial miner on those branches.
        done = {outcome.rank for outcome in report.outcomes
                if outcome.status in ("completed", "checkpointed")}
        assert done.isdisjoint(set(checkpoint.cancelled_ranks))
        assert report.stats.branches_cancelled == len(checkpoint.cancelled_ranks)

    def test_resume_of_cancelled_checkpoint_refuses(self, tmp_path, database, config):
        checkpoint_path = tmp_path / "checkpoint.jsonl"
        event = threading.Event()
        event.set()
        run_supervised(
            database, config, processes=2,
            checkpoint_path=checkpoint_path, cancel_event=event,
        )
        with pytest.raises(CheckpointCancelledError):
            run_supervised(
                database, config, processes=2,
                checkpoint_path=checkpoint_path, resume_from_checkpoint=True,
            )

    def test_cancelled_record_is_durable_json(self, tmp_path, database, config):
        checkpoint_path = tmp_path / "checkpoint.jsonl"
        event = threading.Event()
        event.set()
        run_supervised(
            database, config, processes=2,
            checkpoint_path=checkpoint_path, cancel_event=event,
        )
        kinds = [
            json.loads(line).get("kind", "branch")
            for line in checkpoint_path.read_text().splitlines()[1:]
            if line.strip()
        ]
        assert "cancelled" in kinds

    def test_cancelled_run_never_matches_full_results(self, database, config):
        # A cancelled report must be visibly incomplete so callers (the
        # service runner) know not to cache it.
        event = threading.Event()
        event.set()
        report = run_supervised(database, config, cancel_event=event)
        full = MPFCIMiner(database, config).mine()
        assert report.cancelled
        assert len(report.results) < len(full)
