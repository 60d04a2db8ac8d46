"""End-to-end durability: the service survives kill -9 mid-job.

The acceptance property of the service subsystem: a job SIGKILLed mid-run
is resumed by a restarted service from its branch checkpoint and completes
**bit-identical** to an uninterrupted run; resubmitting the finished work
then hits the fingerprint cache without re-mining.  Also covers the
SIGTERM contract: drain admitted jobs, then exit 0.

These tests drive the real ``python -m repro.service`` process over real
sockets, so they are the slowest in the suite (tens of seconds).
"""

import json
import os
import random
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.core.config import MinerConfig
from repro.data.io import load_uncertain_database
from repro.runtime import run_supervised
from repro.runtime.checkpoint import serialize_result
from tests.conftest import assert_processes_exit, child_pids

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

# ~6s of forced-sampling mining across 8 sequential branches: slow enough
# to kill mid-run, fast enough for CI.  Everything is seeded, so the
# uninterrupted reference run is reproducible.
SLOW_CONFIG = {
    "min_sup": 1,
    "pfct": 0.3,
    "exact_event_limit": 0,
    "epsilon": 0.01,
    "seed": 7,
}


def slow_body():
    rng = random.Random(42)
    items = [chr(ord("a") + i) for i in range(8)]
    transactions = []
    for index in range(25):
        size = rng.randint(2, 5)
        transactions.append(
            {
                "tid": f"T{index + 1}",
                "probability": round(rng.uniform(0.5, 0.95), 2),
                "items": rng.sample(items, size),
            }
        )
    return {
        "database": {"transactions": transactions},
        "config": dict(SLOW_CONFIG),
        "processes": 1,
    }


def http(base, method, path, body=None, timeout=10):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        base + path, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class ServiceProcess:
    """A real ``python -m repro.service`` child bound to an ephemeral port."""

    def __init__(self, data_dir):
        self.data_dir = Path(data_dir)
        self.proc = None
        self.base = None

    def start(self, timeout=30.0):
        address_file = self.data_dir / "service.json"
        address_file.unlink(missing_ok=True)
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service",
                "--data-dir", str(self.data_dir), "--port", "0", "--workers", "1",
            ],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if address_file.exists():
                address = json.loads(address_file.read_text())
                self.base = f"http://{address['host']}:{address['port']}"
                return self
            if self.proc.poll() is not None:
                pytest.fail(
                    f"service died on startup:\n{self.proc.stdout.read()}"
                )
            time.sleep(0.05)
        pytest.fail("service.json never appeared")

    def sigkill(self):
        self.proc.kill()
        self.proc.wait(timeout=10)

    def sigterm_and_wait(self, timeout=120):
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)

    def cleanup(self):
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=10)


def poll_until_terminal(base, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, payload = http(base, "GET", f"/jobs/{job_id}")
        if payload["state"] not in ("queued", "running"):
            return payload
        time.sleep(0.2)
    pytest.fail(f"job {job_id} never reached a terminal state")


def checkpoint_branch_records(path):
    if not path.exists():
        return 0
    count = 0
    for line in path.read_text().splitlines()[1:]:
        if line.strip():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail mid-write: exactly what resume tolerates
            if record.get("kind", "branch") == "branch" or "rank" in record:
                count += 1
    return count


class TestKillMinus9Durability:
    def test_killed_job_resumes_bit_identical_and_caches(self, tmp_path):
        body = slow_body()
        service = ServiceProcess(tmp_path).start()
        try:
            status, submitted = http(service.base, "POST", "/jobs", body)
            assert status == 202
            job_id = submitted["job_id"]
            checkpoint = tmp_path / "jobs" / job_id / "checkpoint.jsonl"

            # Wait until real progress is durably on disk, then kill -9.
            deadline = time.monotonic() + 60
            while checkpoint_branch_records(checkpoint) < 2:
                assert time.monotonic() < deadline, "no checkpoint progress"
                time.sleep(0.05)
            workers = child_pids(service.proc.pid)
            service.sigkill()
            # The killed service's pool workers must not outlive it.
            assert workers or not Path("/proc").is_dir()
            assert_processes_exit(workers)

            # The crash left the manifest mid-flight, not terminal.
            manifest = json.loads(
                (tmp_path / "jobs" / job_id / "job.json").read_text()
            )
            assert manifest["state"] in ("queued", "running")
            records_at_kill = checkpoint_branch_records(checkpoint)
            assert 0 < records_at_kill < 8, "kill did not land mid-run"

            # Restart: recovery re-admits the job and resumes its checkpoint.
            service = ServiceProcess(tmp_path).start()
            final = poll_until_terminal(service.base, job_id)
            assert final["state"] == "completed"

            status, served = http(service.base, "GET", f"/jobs/{job_id}/result")
            assert status == 200

            # Bit-identical to an uninterrupted run over the *materialized*
            # database (the exact bytes the job mined).
            database = load_uncertain_database(
                tmp_path / "jobs" / job_id / "database.utdz"
            )
            reference = run_supervised(
                database, MinerConfig(**body["config"]), processes=1
            )
            assert served["results"] == [
                serialize_result(result) for result in reference.results
            ]

            # And the completed work is now content-addressed: resubmitting
            # is served from the cache without mining.
            started = time.monotonic()
            status, resubmitted = http(service.base, "POST", "/jobs", body)
            elapsed = time.monotonic() - started
            assert status == 201
            assert resubmitted["cached"] is True
            assert elapsed < 5.0, "cache hit should not re-mine"
            status, cached = http(
                service.base, "GET", f"/jobs/{resubmitted['job_id']}/result"
            )
            assert status == 200
            assert cached["results"] == served["results"]
        finally:
            service.cleanup()


class TestSigtermDrain:
    def test_sigterm_drains_admitted_jobs_then_exits_zero(self, tmp_path):
        service = ServiceProcess(tmp_path).start()
        try:
            status, submitted = http(service.base, "POST", "/jobs", slow_body())
            assert status == 202
            job_id = submitted["job_id"]

            exit_code = service.sigterm_and_wait()
            assert exit_code == 0

            # The admitted job was drained to completion, not abandoned.
            manifest = json.loads(
                (tmp_path / "jobs" / job_id / "job.json").read_text()
            )
            assert manifest["state"] == "completed"
            assert (tmp_path / "jobs" / job_id / "result.json").exists()

            # New submissions during the drain are refused with 503.
            # (The listener is closed by then, so refusal may also surface
            # as a connection error — both prove no new work is admitted.)
            try:
                status, payload = http(service.base, "POST", "/jobs", slow_body())
            except OSError:
                pass
            else:
                assert status == 503
        finally:
            service.cleanup()
