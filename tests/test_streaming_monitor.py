"""Tests for the incremental PFCI monitor.

The load-bearing property is *exactness*: after every slide the maintained
result set must equal re-mining the window snapshot from scratch, field for
field (with sampled checks too: ``tests/conformance/test_sampling_conformance.py``).
The remaining tests pin the delta
semantics (old − removed + added == new), the slide-level work counters,
and the persistence of the shared support-DP cache across generations.
"""

import random

import pytest

from repro.core.config import MinerConfig
from repro.core.database import UncertainDatabase, UncertainTransaction
from repro.core.miner import MPFCIMiner
from repro.streaming import PFCIMonitor, WindowedUncertainDatabase

ITEMS = "abcdefgh"

# High exact_event_limit keeps every Pr_FC on the exact, bound or trivial
# path.
CONFIG = MinerConfig(min_sup=4, pfct=0.4, exact_event_limit=64)


def random_transaction(rng, number):
    size = rng.randint(1, 5)
    items = tuple(sorted(rng.sample(ITEMS, size)))
    return UncertainTransaction(f"T{number}", items, round(rng.uniform(0.05, 1.0), 3))


def result_key(result):
    return result.to_dict()


class TestExactness:
    def test_matches_scratch_mining_across_slides(self):
        """~120 slides on a 30-transaction window: the maintained PFCI set
        equals a from-scratch mine of every window, field for field."""
        rng = random.Random(7)
        monitor = PFCIMonitor(CONFIG, window=30)
        for number in range(120):
            monitor.slide(random_transaction(rng, number))
            scratch = MPFCIMiner(monitor.window.snapshot(), CONFIG).mine()
            assert [result_key(r) for r in monitor.results()] == [
                result_key(r) for r in scratch
            ], f"slide {number}"

    def test_bootstrap_of_prefilled_window(self):
        rng = random.Random(3)
        window = WindowedUncertainDatabase(capacity=20)
        for number in range(20):
            window.append(random_transaction(rng, number))
        monitor = PFCIMonitor(CONFIG, window)
        scratch = MPFCIMiner(window.snapshot(), CONFIG).mine()
        assert [result_key(r) for r in monitor.results()] == [
            result_key(r) for r in scratch
        ]

    @pytest.mark.parametrize("backend", ["tuple", "bitmap"])
    @pytest.mark.parametrize("prefilled", [False, True])
    def test_candidate_set_equals_scratch_screen(self, backend, prefilled):
        """After every slide the monitor's root candidates are exactly the
        batch miner's candidate items on the window snapshot."""
        config = CONFIG.variant(tidset_backend=backend)
        rng = random.Random(31)
        window = WindowedUncertainDatabase(capacity=20)
        if prefilled:
            window.extend(random_transaction(rng, number) for number in range(20))
        monitor = PFCIMonitor(config, window)

        def assert_same_candidates(label):
            scratch = MPFCIMiner(monitor.window.snapshot(), config).candidate_items()
            assert sorted(monitor._candidates) == scratch, label

        if prefilled:
            assert_same_candidates("bootstrap")
        for number in range(20, 100):
            monitor.slide(random_transaction(rng, number))
            assert_same_candidates(f"slide {number}")

    def test_snapshot_agrees_with_plain_database(self):
        # Guard against the monitor quietly depending on snapshot fast-path
        # internals: scratch-mining an independently built database gives
        # the same results.
        rng = random.Random(11)
        monitor = PFCIMonitor(CONFIG, window=15)
        for number in range(40):
            monitor.slide(random_transaction(rng, number))
        scratch = MPFCIMiner(UncertainDatabase(list(monitor.window)), CONFIG).mine()
        assert [result_key(r) for r in monitor.results()] == [
            result_key(r) for r in scratch
        ]


class TestDeltas:
    def test_delta_coherence(self):
        """old − removed + added == new, and retained == old ∩ new."""
        rng = random.Random(5)
        monitor = PFCIMonitor(CONFIG, window=25)
        previous = set()
        for number in range(80):
            delta = monitor.slide(random_transaction(rng, number))
            current = {r.itemset for r in monitor.results()}
            added = {r.itemset for r in delta.added}
            removed = {r.itemset for r in delta.removed}
            retained = {r.itemset for r in delta.retained}
            assert added == current - previous
            assert removed == previous - current
            assert retained == previous & current
            assert delta.changed == bool(added or removed)
            assert delta.generation == monitor.generation
            previous = current

    def test_delta_ordering_and_summary(self):
        rng = random.Random(9)
        monitor = PFCIMonitor(CONFIG, window=25)
        for number in range(60):
            delta = monitor.slide(random_transaction(rng, number))
            for block in (delta.added, delta.removed, delta.retained):
                keys = [(len(r.itemset), r.itemset) for r in block]
                assert keys == sorted(keys)
            assert f"gen={delta.generation}" in delta.summary()


class TestCountersAndCache:
    def test_slide_counters(self):
        rng = random.Random(13)
        monitor = PFCIMonitor(CONFIG, window=25)
        for number in range(100):
            monitor.slide(random_transaction(rng, number))
        stats = monitor.stats
        assert stats.slides_processed == 100
        # The slide clock covers the screen as well as the re-mined branches.
        assert stats.elapsed_seconds == pytest.approx(
            stats.candidate_phase_seconds
            + stats.search_phase_seconds
            + stats.check_phase_seconds
        )
        # Screening must be doing real work on this workload.
        assert stats.branches_retained > 0
        assert stats.branches_remined > 0
        report = monitor.stats.report()
        assert report["counters"]["slides_processed"] == 100

    def test_cache_persists_and_rebinds_across_generations(self):
        rng = random.Random(17)
        monitor = PFCIMonitor(CONFIG, window=25)
        for number in range(60):
            monitor.slide(random_transaction(rng, number))
        cache = monitor._cache
        assert cache is not None
        # One shared cache, rebound (and invalidated) per mined generation.
        assert cache.generation == monitor.window.generation
        assert monitor.stats.dp_generation_invalidations > 0
        assert (
            monitor.stats.dp_generation_invalidations
            == cache.generation_invalidations
        )
        # Each miner call adds its cache-counter delta, so the dp_* stats
        # sum to the cache's lifetime counters.
        assert monitor.stats.dp_cache_hits == cache.hits
        assert monitor.stats.dp_cache_misses == cache.misses

    def test_validation(self):
        with pytest.raises(ValueError):
            PFCIMonitor(CONFIG, window=0)


class TestConvenienceAPI:
    def test_append_and_extend(self):
        monitor = PFCIMonitor(CONFIG, window=10)
        delta = monitor.append("T1", "ab", 0.9)
        assert delta.generation == 1
        rng = random.Random(23)
        deltas = monitor.extend(
            random_transaction(rng, number) for number in range(2, 8)
        )
        assert len(deltas) == 6
        assert len(monitor.window) == 7
        assert "PFCIMonitor" in repr(monitor)
