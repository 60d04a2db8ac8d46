#!/usr/bin/env python
"""CI smoke guard for the packed-bitmap tidset backend speedup.

Re-measures the bitmap-vs-tuple comparison of
``benchmarks/bench_tidset_backend.py`` on one sweep point and compares the
fresh measurement against the committed repo-root
``BENCH_tidset_backend.json`` baseline.  The check fails when

* any backend's result list diverges from the tuple oracle's (parity is the
  correctness half of the acceptance criterion),
* the measured bitmap-over-tuple speedup regresses by more than
  ``TOLERANCE`` (20%) relative to the baseline's speedup for the same sweep
  point, or
* a deterministic engine *cost* counter (words ANDed, popcounts, gathers,
  intersections, DP invocations) regresses above the baseline, or the
  batched-DP counter drops below it.  Counters are exact for a fixed
  database + config, so this half of the gate is immune to CI-runner speed —
  a change that silently de-vectorizes a kernel fails here even if the
  wall-clock ratio happens to stay inside tolerance.

Usage:
    python benchmarks/check_tidset_regression.py            # CI smoke gate
    python benchmarks/check_tidset_regression.py --update   # rewrite baseline
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (REPO_ROOT, REPO_ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from benchmarks.bench_tidset_backend import (  # noqa: E402
    MIN_SPEEDUP,
    SWEEP_RATIOS,
    measure_backend_speedup,
)
from repro.eval.datasets import ExperimentScale, mushroom_database  # noqa: E402

BASELINE_PATH = REPO_ROOT / "BENCH_tidset_backend.json"

#: The single sweep point the smoke gate re-measures (the fastest one; the
#: full sweep is the benchmark suite's job).
SMOKE_RATIOS = (0.3,)

#: Allowed relative speedup regression versus the committed baseline.
TOLERANCE = 0.20

#: Deterministic engine counters that measure *work done*; a fresh run must
#: not exceed the baseline on any of them (lower is better, equal is the
#: deterministic expectation).
COST_COUNTERS = (
    "tidset_intersections",
    "tidset_words_anded",
    "tidset_popcounts",
    "tidset_gathers",
    "dp_invocations",
)

#: Counters where *higher* is better: batched DP calls must not fall below
#: the baseline (frontier batching silently disengaging is a regression even
#: when total DP work is unchanged).
FLOOR_COUNTERS = ("dp_batch_invocations",)

#: Backends whose counters the gate compares (the oracle's counters are its
#: own business — it exists for parity, not speed).
GATED_BACKENDS = ("bitmap",)


def baseline_point(baseline: dict, ratio: float) -> dict:
    for point in baseline["points"]:
        if point["ratio"] == ratio:
            return point
    raise SystemExit(
        f"baseline {BASELINE_PATH.name} has no point for ratio {ratio}; "
        "re-run with --update"
    )


def counter_regressions(fresh_point: dict, expected_point: dict) -> list:
    """Every (backend, counter, fresh, baseline) tuple that regressed."""
    failures = []
    for backend in GATED_BACKENDS:
        fresh = fresh_point["engine_counters"].get(backend)
        expected = expected_point.get("engine_counters", {}).get(backend)
        if fresh is None or expected is None:
            continue  # baseline predates this backend; --update refreshes it
        for counter in COST_COUNTERS:
            if counter in expected and fresh[counter] > expected[counter]:
                failures.append((backend, counter, fresh[counter], expected[counter]))
        for counter in FLOOR_COUNTERS:
            if counter in expected and fresh[counter] < expected[counter]:
                failures.append((backend, counter, fresh[counter], expected[counter]))
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update",
        action="store_true",
        help="re-measure the full sweep and rewrite the committed baseline",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=2,
        help="interleaved timing rounds per backend (best round is kept)",
    )
    args = parser.parse_args(argv)

    database = mushroom_database(ExperimentScale.CI)

    if args.update:
        payload = measure_backend_speedup(
            database, ratios=SWEEP_RATIOS, rounds=args.rounds
        )
        if not payload["results_identical"]:
            print("REFUSING to write baseline: backends disagree", payload)
            return 1
        if payload["speedup"] < MIN_SPEEDUP:
            print(
                f"REFUSING to write baseline: sweep speedup "
                f"{payload['speedup']}x is below the {MIN_SPEEDUP}x acceptance floor"
            )
            return 1
        BASELINE_PATH.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {BASELINE_PATH} (sweep speedup {payload['speedup']}x)")
        return 0

    baseline = json.loads(BASELINE_PATH.read_text())
    smoke = measure_backend_speedup(database, ratios=SMOKE_RATIOS, rounds=args.rounds)
    point = smoke["points"][0]
    expected = baseline_point(baseline, point["ratio"])
    floor = (1.0 - TOLERANCE) * expected["speedup"]
    print(
        f"ratio={point['ratio']} bitmap={point['bitmap_seconds']}s "
        f"tuple={point['tuple_seconds']}s speedup={point['speedup']}x "
        f"(baseline {expected['speedup']}x, floor {floor:.3f}x)"
    )
    if not point["results_identical"]:
        print("FAIL: backends produced different result sets")
        return 1
    if point["speedup"] < floor:
        print(
            f"FAIL: speedup {point['speedup']}x regressed more than "
            f"{TOLERANCE:.0%} below the committed baseline {expected['speedup']}x"
        )
        return 1
    regressions = counter_regressions(point, expected)
    if regressions:
        for backend, counter, fresh, base in regressions:
            print(
                f"FAIL: {backend}.{counter} regressed: {fresh} vs "
                f"baseline {base}"
            )
        return 1
    print("OK: bitmap backend speedup and engine counters within baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
