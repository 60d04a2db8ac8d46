"""The workload subprocess: set up, time the entry point, optionally trace.

Run as ``python -m benchmarks.e2e.child SPEC.json``.  SPEC names the
workload, its input directory, the run length and the files to write.  The
process prints ``ready`` once set-up is done (the parent stops its set-up
clock there), exits at once if SPEC asks for set-up only, and otherwise:

1. calls the entry point once untimed (warm-up; its output is the run's
   output);
2. calls it again, timed, until ``seconds`` have passed, and counts every
   call whose output differs from the warm-up's;
3. records its peak resident set size;
4. with tracing on, calls it ``traced_reps`` more times with span wrappers
   installed and writes the spans as JSON lines.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from repro.data.columnar import load_columnar

from .spans import Recorder, install, self_time_by_name
from .workloads import WORKLOADS, canonical, canonical_text, input_files, open_entry


def peak_rss_kb(status: Path = Path("/proc/self/status")) -> int:
    """``VmHWM`` of a process, from its ``/proc/<pid>/status``."""
    for line in status.read_text(encoding="utf-8").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError(f"{status} has no VmHWM line")


def timed_loop(entry: Any, seconds: float) -> Dict[str, Any]:
    results, _ = entry.run()
    cleanups = [entry.cleanup()]
    first = canonical(results)
    first_text = canonical_text(first)
    times: List[float] = []
    mismatched = 0
    started = time.perf_counter()
    while not times or time.perf_counter() - started < seconds:
        begin = time.perf_counter()
        results, stats = entry.run()
        times.append(time.perf_counter() - begin)
        cleanups.append(entry.cleanup())
        if canonical_text(canonical(results)) != first_text:
            mismatched += 1
    return {
        "results": first,
        "times": times,
        "mismatched": mismatched,
        "stats": stats.snapshot(),
        "cleanups": cleanups,
    }


def traced_reps(entry: Any, spec: Dict[str, Any]) -> Dict[str, Any]:
    workload = WORKLOADS[spec["workload"]]
    recorder = Recorder()
    with recorder.span("columnar.load_columnar"):
        for path in input_files(workload, Path(spec["input"])):
            load_columnar(path)
    install(recorder)
    stats: List[Dict[str, Any]] = []
    cleanups: List[Dict[str, int]] = []
    try:
        for rep in range(1, spec["traced_reps"] + 1):
            recorder.trace_id = rep
            with recorder.span("entry"):
                _, run_stats = entry.run()
            stats.append(run_stats.snapshot())
            cleanups.append(entry.cleanup())
    finally:
        recorder.uninstall()
    recorder.write_jsonl(Path(spec["trace_path"]))
    return {
        "entry_s": [end - start for *_, name, start, end in recorder.spans if name == "entry"],
        "self_s": self_time_by_name(recorder.spans),
        "calls": dict(recorder.counters),
        "stats": stats,
        "cleanups": cleanups,
        "spans": len(recorder.spans),
    }


def main(argv: List[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    workload = WORKLOADS[spec["workload"]]
    entry = open_entry(workload, Path(spec["input"]), Path(spec["work"]))
    print("ready", flush=True)
    if spec["setup_only"]:
        return 0
    output = timed_loop(entry, spec["seconds"])
    output["peak_rss_kb"] = peak_rss_kb()
    output["trace"] = traced_reps(entry, spec) if spec["traced_reps"] else None
    Path(spec["output"]).write_text(json.dumps(output), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
