"""Verdicts between two sets of benchmark passes, and the statistics they use.

``python -m benchmarks.e2e --compare BASE HEAD`` loads the pass files
(``e2e-seed<S>-<timestamp>.json``; a directory stands for every pass file
in it) and prints one verdict per (workload, end-to-end metric), over the
pass files that ran the workload.  A sample is one pass file's value of
the metric, so every rule counts runs, never the timed calls or jobs
inside one run:

* ``unresolved`` when the base's own spread (quartile distance over
  median) exceeds the metric's bound, unless every head run beats every
  base run, which is ``improved``;
* ``worse`` when the head median is worse than the base median by more
  than the bound;
* ``improved`` when each side has at least ten runs, the head wins at
  least nine tenths of all (base, head) run pairs, ties counting for
  neither, and the medians differ by more than the base's spread;
* ``unchanged`` otherwise.

A rise in a workload's error rate (failed / attempted) is ``worse``
whatever the bound.  The exit status is 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

WIN_SHARE = 0.9
MIN_SAMPLES = 10


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def tail_percentile(count: int, beyond: int = 10) -> Optional[int]:
    """The highest whole percentile with at least ``beyond`` of ``count``
    samples above it, or ``None`` when there are too few samples."""
    if count <= beyond:
        return None
    return (100 * (count - beyond)) // count


def percentile(values: Sequence[float], percent: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-percent * len(ordered) // 100))
    return ordered[rank - 1]


def verdict(base: Sequence[float], head: Sequence[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    head_median = statistics.median(head)
    # Positive change means head is worse.
    change = sign * (head_median - base_median) / base_median
    base_spread = spread(base)
    if base_spread > bound:
        if all(sign * (h - b) < 0 for h in head for b in base):
            return "improved"
        return "unresolved"
    if change > bound:
        return "worse"
    if min(len(base), len(head)) < MIN_SAMPLES:
        return "unchanged"
    wins = sum(1 for h in head for b in base if sign * (h - b) < 0)
    if wins >= WIN_SHARE * len(head) * len(base) and -change > base_spread:
        return "improved"
    return "unchanged"


def load_passes(path: Path) -> List[Dict[str, Any]]:
    files = sorted(path.glob("e2e-seed*.json")) if path.is_dir() else [path]
    if not files:
        raise ValueError(f"{path}: no pass files")
    return [json.loads(file.read_text(encoding="utf-8")) for file in files]


def _records(passes: Sequence[Dict[str, Any]], workload: str) -> List[Dict[str, Any]]:
    """The workload's record from each pass file that ran it."""
    return [run["workloads"][workload] for run in passes if workload in run["workloads"]]


def _error_rate(records: Sequence[Dict[str, Any]]) -> float:
    return sum(r["failed"] for r in records) / sum(r["attempted"] for r in records)


def compare(
    base: Sequence[Dict[str, Any]], head: Sequence[Dict[str, Any]], benchmark: Dict[str, Any]
) -> List[Tuple[str, str, str, str]]:
    """Rows of (workload, metric, verdict, detail) for every workload both sides ran."""
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        base_records, head_records = _records(base, workload), _records(head, workload)
        if not base_records or not head_records:
            continue
        for metric in benchmark["end_to_end"]:
            # One sample per run: the value that run reported.
            base_values = [r["metrics"][metric["name"]]["value"] for r in base_records]
            head_values = [r["metrics"][metric["name"]]["value"] for r in head_records]
            result = verdict(base_values, head_values, metric["bound"], metric["better"])
            detail = (
                f"base {statistics.median(base_values):.6g} head "
                f"{statistics.median(head_values):.6g} {metric['unit']} "
                f"(runs {len(base_values)}/{len(head_values)}, base spread "
                f"{spread(base_values):.3f}, bound {metric['bound']})"
            )
            rows.append((workload, metric["name"], result, detail))
        base_rate, head_rate = _error_rate(base_records), _error_rate(head_records)
        rows.append(
            (
                workload, "error_rate", "worse" if head_rate > base_rate else "unchanged",
                f"base {base_rate:.4f} head {head_rate:.4f}",
            )
        )
    return rows


def main(base_path: Path, head_path: Path, benchmark_path: Path) -> int:
    benchmark = json.loads(benchmark_path.read_text(encoding="utf-8"))
    rows = compare(load_passes(base_path), load_passes(head_path), benchmark)
    for workload, metric, result, detail in rows:
        print(f"{workload} {metric} {result} {detail}")
    return 1 if any(row[2] == "worse" for row in rows) else 0
