"""The service workloads: one closed-loop client against the job service.

The service runs as ``python -m repro.service --workers 1`` with a fresh
data directory.  The client (this process, the only load generator) sends
one job, waits for its result, and sends the next, until the run length
has passed.  On ``service-fresh`` every job carries a seed no earlier job
used, so its fingerprint is new and the service mines it; on the
workload's exact-path config its results do not depend on that seed,
which is what lets one serial reference check every job.  On
``service-cached`` the client first completes :data:`RESUBMIT_POOL` fresh
jobs, untimed, and then only resubmits one of them, which the service
answers from its result cache.

A fresh job's latency includes the client's polling: the end of a job is
seen up to :data:`POLL_SECONDS` late.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .child import peak_rss_kb
from .workloads import PROCESSES

POLL_SECONDS = 0.01
# Distinct cached results the resubmissions draw from.
RESUBMIT_POOL = 4
STARTUP_TIMEOUT = 30.0
JOB_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0

# The service is local: never route its requests through a proxy from the
# environment.
_OPENER = urllib.request.build_opener(urllib.request.ProxyHandler({}))


def http(
    base: str, method: str, path: str, body: Optional[Dict[str, Any]] = None
) -> Tuple[int, bytes]:
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        base + path, data=data, method=method, headers={"Content-Type": "application/json"},
    )
    try:
        with _OPENER.open(request, timeout=JOB_TIMEOUT) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


class ServiceProcess:
    """A ``python -m repro.service`` subprocess on an ephemeral port.

    Its log goes to ``<data_dir>.log``.
    """

    def __init__(self, data_dir: Path, env: Dict[str, str]) -> None:
        data_dir.mkdir(parents=True)
        self.data_dir = data_dir
        self.base = ""
        self._log = open(data_dir.with_name(data_dir.name + ".log"), "wb")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service", "--data-dir", str(data_dir),
                "--port", "0", "--workers", "1",
            ],
            env=env, stdout=self._log, stderr=subprocess.STDOUT,
        )

    def wait_healthy(self) -> float:
        """Seconds from spawn to the first ``/healthz`` 200."""
        address = self.data_dir / "service.json"
        deadline = self.started + STARTUP_TIMEOUT
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"service exited during start-up; see {self._log.name}")
            if address.exists():
                try:
                    bound = json.loads(address.read_text(encoding="utf-8"))
                except json.JSONDecodeError:
                    continue  # written but not yet complete
                self.base = f"http://{bound['host']}:{bound['port']}"
                try:
                    status, _ = http(self.base, "GET", "/healthz")
                except OSError:
                    status = 0
                if status == 200:
                    return time.perf_counter() - self.started
            time.sleep(0.002)
        raise RuntimeError("service did not become healthy in time")

    def peak_rss_kb(self) -> int:
        return peak_rss_kb(Path(f"/proc/{self.process.pid}/status"))

    def stop(self) -> None:
        """SIGTERM (the service drains and exits 0), then wait for it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


def start_service(data_dir: Path, env: Dict[str, str]) -> Tuple[ServiceProcess, float]:
    """Spawn a service and wait until it is healthy; returns it and its start-up time."""
    service = ServiceProcess(data_dir, env)
    try:
        return service, service.wait_healthy()
    except BaseException:
        service.stop()
        raise


@dataclass
class JobRecord:
    """One job as the client saw it."""

    cached: bool
    latency_s: float
    submit_s: float = 0.0
    result_s: float = 0.0
    polls: int = 0
    result_bytes: int = 0
    status: Dict[str, Any] = field(default_factory=dict)
    results: List[Dict[str, Any]] = field(default_factory=list)
    stats: Dict[str, Any] = field(default_factory=dict)
    job_id: str = ""
    error: str = ""


def run_job(base: str, body: Dict[str, Any], expect_cached: bool) -> JobRecord:
    """POST one job, poll it to completion, fetch its result."""
    begin = time.perf_counter()
    status, raw = http(base, "POST", "/jobs", body)
    submit_s = time.perf_counter() - begin
    submitted = json.loads(raw)
    record = JobRecord(cached=expect_cached, latency_s=0.0, submit_s=submit_s)
    expected_status = 201 if expect_cached else 202
    if status != expected_status or submitted.get("cached") is not expect_cached:
        record.error = f"POST answered {status} {submitted}"
        record.latency_s = time.perf_counter() - begin
        return record
    record.job_id = submitted["job_id"]
    if not expect_cached:
        while True:
            _, raw = http(base, "GET", f"/jobs/{record.job_id}")
            record.polls += 1
            record.status = json.loads(raw)
            if record.status["state"] not in ("queued", "running"):
                break
            if time.perf_counter() - begin > JOB_TIMEOUT:
                record.error = "job did not finish in time"
                return record
            time.sleep(POLL_SECONDS)
    fetch = time.perf_counter()
    status, raw = http(base, "GET", f"/jobs/{record.job_id}/result")
    record.latency_s = time.perf_counter() - begin
    record.result_s = time.perf_counter() - fetch
    record.result_bytes = len(raw)
    if status != 200:
        record.error = f"result answered {status} {raw[:200]!r}"
        return record
    payload = json.loads(raw)
    record.results = payload["results"]
    record.stats = payload.get("stats", {})
    return record


def closed_loop(
    base: str, database_path: Path, config: Dict[str, Any], seed: int, seconds: float,
    resubmit: bool,
) -> List[JobRecord]:
    """Send jobs one at a time until ``seconds`` have passed.

    Fresh jobs, or with ``resubmit`` the untimed pool of fresh jobs followed
    by resubmissions of a random one of them.  Returns every job record.
    """
    rng = random.Random(seed)
    index = 0

    def fresh_body() -> Dict[str, Any]:
        nonlocal index
        index += 1
        return {
            "database": {"path": str(database_path)},
            "config": dict(config, seed=seed * 1_000_000 + index),
            "processes": PROCESSES,
        }

    records: List[JobRecord] = []
    pool: List[Dict[str, Any]] = []
    for _ in range(RESUBMIT_POOL if resubmit else 0):
        body = fresh_body()
        records.append(run_job(base, body, expect_cached=False))
        if not records[-1].error:
            pool.append(body)
    if resubmit and not pool:
        return records
    timed = 0
    started = time.perf_counter()
    while not timed or time.perf_counter() - started < seconds:
        if resubmit:
            records.append(run_job(base, rng.choice(pool), expect_cached=True))
        else:
            records.append(run_job(base, fresh_body(), expect_cached=False))
        timed += 1
    return records


def checkpoint_bytes(data_dir: Path, job_ids: List[str]) -> List[int]:
    sizes = []
    for job_id in job_ids:
        path = data_dir / "jobs" / job_id / "checkpoint.jsonl"
        sizes.append(path.stat().st_size if path.exists() else 0)
    return sizes


def service_env(src: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env
