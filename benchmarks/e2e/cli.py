"""Command line of the end-to-end benchmark.

From the repository root::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace [0|1]] [--out DIR]
    python3 benchmarks/e2e/run.py --compare BASE HEAD

(``PYTHONPATH=src python -m benchmarks.e2e`` takes the same arguments.)
Without ``--workload`` every workload runs and one pass file
``<out>/e2e-seed<S>-<timestamp>.json`` holds them all.  Every metric is
printed as ``workload metric value unit``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics of ``BENCHMARK.json``, or its
per-layer metrics with ``--trace 1``).  The exit status is 1 when any
output was wrong (``correct`` false), after that line is printed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
DEFAULT_OUT = ROOT / "benchmarks" / "results" / "e2e"

SETUP_STARTS = 15
# The cold start that goes on to the timed loop sits in the middle, so the
# set-up samples straddle the loop.  On a shared host slow spells last one
# to two seconds, five to ten starts in a row: with 5 or 11 starts one such
# spell could move the median.  Each start adds about 0.2 s to a run.
MEASURED_START = SETUP_STARTS // 2
TRACED_REPS = 2
# A run must end within 180 s; leave room for the oracle and clean-up.
CHILD_DEADLINE_S = 150.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1"}


def parse_args(argv: Optional[List[str]], benchmark: Dict[str, Any]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "HEAD"))
    return parser.parse_args(argv)


def environment() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "thread_env": {
            name: value for name, value in {**os.environ, **THREAD_ENV}.items()
            if name.endswith("_NUM_THREADS")
        },
    }


def child_env() -> Dict[str, str]:
    return {**os.environ, **THREAD_ENV, "PYTHONPATH": f"{SRC}{os.pathsep}{ROOT}"}


# ----------------------------------------------------------------------
# library workloads
# ----------------------------------------------------------------------
def _run_child(spec: Dict[str, Any], path: Path, deadline: float) -> float:
    """Run one workload subprocess to its end; returns its set-up time.

    The subprocess is killed if it is still running at ``deadline``.
    """
    path.write_text(json.dumps(spec), encoding="utf-8")
    begin = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.child", str(path)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
    )
    killer = threading.Timer(max(1.0, deadline - begin), process.kill)
    killer.start()
    try:
        line = process.stdout.readline()
        setup_s = time.perf_counter() - begin
        code = process.wait()
    finally:
        killer.cancel()
        process.stdout.close()
    if line.strip() != "ready" or code:
        raise RuntimeError(f"workload subprocess exited {code} (negative: killed at the deadline)")
    return setup_s


def measure_library(
    workload: Any, inputs: Path, work: Path, seconds: float, traced: bool, trace_path: Path
) -> Tuple[List[float], Dict[str, Any]]:
    deadline = time.perf_counter() + CHILD_DEADLINE_S
    spec = {
        "workload": workload.name,
        "input": str(inputs),
        "work": str(work),
        "seconds": seconds,
        "traced_reps": TRACED_REPS if traced else 0,
        "trace_path": str(trace_path),
        "output": str(work / "output.json"),
    }
    setup_s = [
        _run_child(
            dict(spec, setup_only=start != MEASURED_START), work / f"spec-{start}.json", deadline
        )
        for start in range(SETUP_STARTS)
    ]
    return setup_s, json.loads((work / "output.json").read_text(encoding="utf-8"))


def run_library(
    workload: Any, seconds: float, traced: bool, inputs: Path, work: Path, out: Path
) -> Dict[str, Any]:
    from . import metrics
    from .workloads import check_results, result_sha256

    setup_s, output = measure_library(
        workload, inputs, work, seconds, traced, out / f"trace-{workload.name}.jsonl"
    )
    problems = check_results(workload, inputs, output["results"])
    times = output["times"]
    attempted = len(times) + 1
    end_to_end = metrics.end_to_end(setup_s, times, output["peak_rss_kb"])
    record = {
        "correct": not problems and not output["mismatched"],
        "attempted": attempted,
        "failed": attempted if problems else output["mismatched"],
        "problems": problems,
        "metrics": end_to_end,
        "detail": {"results": len(output["results"])},
        "result_sha256": result_sha256(output["results"]),
    }
    trace = output["trace"]
    if trace is not None:
        record["per_layer"] = metrics.library_per_layer(trace, end_to_end["run_s_p50"]["value"])
        record["detail"]["spans"] = trace["spans"]
        record["self_s"] = {"entry": trace["entry_s"], "by_span": trace["self_s"]}
    return record


# ----------------------------------------------------------------------
# the service workload
# ----------------------------------------------------------------------
def run_service(
    workload: Any, seed: int, seconds: float, inputs: Path, work: Path
) -> Dict[str, Any]:
    from repro.data.columnar import load_columnar

    from . import metrics
    from .service import checkpoint_bytes, closed_loop, http, service_env, start_service
    from .workloads import DATABASE_FILE, canonical_text, check_results, result_sha256

    database_path = (inputs / DATABASE_FILE).resolve()
    begin = time.perf_counter()
    database = load_columnar(database_path)
    load_s = time.perf_counter() - begin
    config = asdict(workload.config(len(database)))
    env = service_env(SRC)

    def cold_start(start: int) -> Any:
        service, elapsed = start_service(work / f"service-{start}", env)
        setup_s.append(elapsed)
        return service

    setup_s: List[float] = []
    for start in range(MEASURED_START):
        cold_start(start).stop()
    service = cold_start(MEASURED_START)
    try:
        records = closed_loop(
            service.base, database_path, config, seed, seconds, workload.resubmit
        )
        _, raw = http(service.base, "GET", "/metrics")
        cache_stats = json.loads(raw)["cache"]
        peak_rss_kb = service.peak_rss_kb()
    finally:
        service.stop()
    for start in range(MEASURED_START + 1, SETUP_STARTS):
        cold_start(start).stop()

    verdicts: Dict[str, List[str]] = {}
    for record in records:
        if not record.error:
            text = canonical_text(record.results)
            if text not in verdicts:
                verdicts[text] = check_results(workload, inputs, record.results)
            if verdicts[text]:
                record.error = "; ".join(verdicts[text])
    good = [r for r in records if not r.error]
    # On service-cached, the untimed pool of fresh jobs is checked and
    # counted as attempted but not timed.
    timed = [r for r in good if r.cached == workload.resubmit]
    if not timed:
        raise RuntimeError(f"no {workload.name} job completed: {records[-1].error}")
    problems = sorted({r.error for r in records if r.error})
    latency = [r.latency_s for r in timed]
    return {
        "correct": not problems,
        "attempted": len(records),
        "failed": len(records) - len(good),
        "problems": problems,
        "metrics": metrics.end_to_end(setup_s, latency, peak_rss_kb),
        "per_layer": metrics.service_per_layer(
            timed, cache_stats,
            checkpoint_bytes(work / f"service-{MEASURED_START}", [r.job_id for r in timed]),
            load_s,
        ),
        "detail": {"results": len(timed[0].results), **metrics.latency_detail("job_s", latency)},
        "result_sha256": result_sha256(timed[0].results),
    }


# ----------------------------------------------------------------------
# running workloads
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, traced: bool, out: Path) -> Dict[str, Any]:
    from .workloads import WORKLOADS, ensure_inputs

    workload = WORKLOADS[name]
    inputs = ensure_inputs(workload, seed, out)
    work = out / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if workload.kind == "service":
            return run_service(workload, seed, seconds, inputs, work)
        return run_library(workload, seconds, traced, inputs, work, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _with_units(
    values: Dict[str, Any], declared: List[Dict[str, Any]], absent_is_zero: bool
) -> Dict[str, Dict[str, Any]]:
    """Attach ``BENCHMARK.json`` units to the measured metrics.

    Every measured name must be declared.  A declared metric that was not
    measured is an error, unless ``absent_is_zero``: a layer the workload
    never enters reads 0.
    """
    names = {metric["name"] for metric in declared}
    unknown = sorted(set(values) - names)
    missing = sorted(names - set(values))
    if unknown or (missing and not absent_is_zero):
        raise RuntimeError(f"metrics undeclared: {unknown}; not measured: {missing}")
    result = {}
    for metric in declared:
        value = values.get(metric["name"], 0.0)
        entry = dict(value) if isinstance(value, dict) else {"value": value}
        result[metric["name"]] = {**entry, "unit": metric["unit"]}
    return result


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmarks.e2e: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    benchmark = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    args = parse_args(argv, benchmark)
    if args.compare:
        from .compare import main as compare_main

        return compare_main(args.compare[0], args.compare[1], BENCHMARK)

    args.out.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else [w["name"] for w in benchmark["workloads"]]
    report: Dict[str, Any] = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "environment": environment(),
        "workloads": {},
    }
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), args.out)
        record["metrics"] = _with_units(record["metrics"], benchmark["end_to_end"], False)
        if args.trace:
            record["per_layer"] = _with_units(record["per_layer"], benchmark["per_layer"], True)
        else:
            record.pop("per_layer", None)
        report["workloads"][name] = record
        for group in ("metrics", "per_layer"):
            for metric, entry in record.get(group, {}).items():
                print(f"{name} {metric} {entry['value']!r} {entry['unit']}")
        for metric, entry in record["metrics"].items():
            print(f"{name} detail.n.{metric} {entry['n']}")
        for key, value in record["detail"].items():
            print(f"{name} detail.{key} {value!r}")
        print(f"{name} result_sha256 {record['result_sha256']}")
        for problem in record["problems"]:
            print(f"{name} PROBLEM {problem}")

    stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S%f")
    pass_file = args.out / f"e2e-seed{args.seed}-{stamp}.json"
    pass_file.write_text(json.dumps(report, indent=1, sort_keys=True), encoding="utf-8")
    print(f"pass file {pass_file}")

    group = "per_layer" if args.trace else "metrics"
    records = report["workloads"]
    shown = {
        (m if args.workload else f"{name}.{m}"): {"value": e["value"], "unit": e["unit"]}
        for name, record in records.items() for m, e in record[group].items()
    }
    summary = {
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": shown,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1
