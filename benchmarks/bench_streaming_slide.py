"""Streaming slide — incremental PFCI maintenance vs re-mining from scratch.

The streaming subsystem's contract has two halves, and this module asserts
both on a 500-transaction quest-style window with single-transaction slides:

* **exactness** — after every slide, :class:`repro.streaming.PFCIMonitor`'s
  maintained result set equals re-mining the window snapshot from scratch,
  field for field (itemsets, probabilities, bounds, methods);
* **speed** — a slide costs at least 3x less than a scratch re-mine,
  because only the touched items are screened (by the batch miner's own
  candidate filter on the window snapshot) and only the surviving touched
  branches are re-mined, on a support-DP cache whose probability-keyed
  memo carries DP values across slides.

The slide-level work counters (branches re-mined / retained / screened out,
DP invocations and cross-generation hits) land in ``extra_info`` alongside
the wall-clock rows.
"""

import time

from repro.core.config import MinerConfig
from repro.core.database import UncertainDatabase
from repro.core.miner import MPFCIMiner
from repro.data.gaussian import attach_gaussian_probabilities
from repro.data.quest import QuestParameters, generate_quest
from repro.streaming import PFCIMonitor, WindowedUncertainDatabase

from .conftest import record_stats

WINDOW = 500
SLIDES = 60

# Short transactions over many items keep each slide's touched-branch set
# small relative to the candidate set — the regime sliding windows live in.
# exact_event_limit is high so every check takes a deterministic path
# (bit-identical equality would not hold for sampled Pr_FC estimates, whose
# RNG consumption depends on mining order).
CONFIG = MinerConfig(min_sup=30, pfct=0.6, exact_event_limit=64)


def streaming_rows():
    transactions = generate_quest(
        QuestParameters(
            num_transactions=WINDOW + SLIDES,
            avg_transaction_length=3.0,
            avg_pattern_length=2.0,
            num_items=250,
            seed=42,
        )
    )
    return list(
        attach_gaussian_probabilities(
            transactions, mean=0.85, variance=0.05, seed=42
        )
    )


def prefilled_monitor(rows):
    window = WindowedUncertainDatabase(capacity=WINDOW)
    window.extend(rows[:WINDOW])
    return PFCIMonitor(CONFIG, window)


def test_incremental_slides_match_scratch_and_win(benchmark):
    rows = streaming_rows()

    # Timed arm: replay the slides on a prefilled monitor (the bootstrap
    # mine happens in setup, so the benchmark numbers are pure slide cost).
    def setup():
        return (prefilled_monitor(rows),), {}

    def replay(monitor):
        for transaction in rows[WINDOW:]:
            monitor.slide(transaction)
        return monitor

    benchmark.pedantic(replay, setup=setup, rounds=2, iterations=1, warmup_rounds=0)
    incremental_per_slide = benchmark.stats.stats.min / SLIDES

    # Verification arm: replay again, re-mining every window from scratch
    # (timing only the scratch mines) and asserting exact equality.
    monitor = prefilled_monitor(rows)
    scratch_seconds = 0.0
    for transaction in rows[WINDOW:]:
        monitor.slide(transaction)
        started = time.perf_counter()
        scratch = MPFCIMiner(
            UncertainDatabase(list(monitor.window)), CONFIG
        ).mine()
        scratch_seconds += time.perf_counter() - started
        assert [r.to_dict() for r in monitor.results()] == [
            r.to_dict() for r in scratch
        ]
    scratch_per_slide = scratch_seconds / SLIDES

    stats = record_stats(benchmark, monitor.stats)
    benchmark.extra_info.update(
        {
            "window": WINDOW,
            "slides": SLIDES,
            "incremental_ms_per_slide": round(1000 * incremental_per_slide, 3),
            "scratch_ms_per_slide": round(1000 * scratch_per_slide, 3),
            "speedup": round(scratch_per_slide / incremental_per_slide, 2),
        }
    )

    # The subsystem's headline claim (PR acceptance criterion).
    assert scratch_per_slide >= 3.0 * incremental_per_slide, benchmark.extra_info

    # The work counters must show the claimed mechanisms actually firing:
    # most branches survive slides untouched, and DP values computed in
    # earlier window generations are reused after positions renumber.
    assert stats.branches_retained > stats.branches_remined, stats.report()
    assert stats.dp_cross_generation_hits > 0, stats.report()
