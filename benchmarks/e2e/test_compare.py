"""Unit tests for the benchmark's verdict rules, percentile helper and
self-time arithmetic.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_compare.py
"""

from __future__ import annotations

import pytest

from benchmarks.e2e.compare import compare, percentile, spread, tail_percentile, verdict
from benchmarks.e2e.spans import covered_length, self_time_by_name, self_times


class TestTailPercentile:
    @pytest.mark.parametrize(
        "count, expected", [(100, 90), (200, 95), (65, 84), (11, 9), (10, None), (3, None)]
    )
    def test_highest_percentile_with_ten_beyond(self, count, expected):
        assert tail_percentile(count) == expected

    @pytest.mark.parametrize("count", [11, 20, 65, 100, 1000])
    def test_at_least_ten_samples_lie_beyond(self, count):
        values = list(range(1, count + 1))
        cut = percentile(values, tail_percentile(count))
        assert sum(1 for value in values if value > cut) >= 10

    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 90) == 90
        assert percentile(values, 100) == 100
        assert percentile([3.0], 90) == 3.0


class TestSpread:
    def test_constant_and_single_samples_have_no_spread(self):
        assert spread([2.0, 2.0, 2.0]) == 0.0
        assert spread([5.0]) == 0.0

    def test_quartile_distance_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        # statistics.quantiles (exclusive): Q1 = 1.5, Q3 = 4.5.
        assert spread(values) == pytest.approx(3.0 / 3.0)


BASE = [1.00, 0.99, 1.01, 1.00, 1.02, 0.98, 1.00, 0.99, 1.01, 1.00]


class TestVerdict:
    def test_worse_beyond_bound(self):
        assert verdict(BASE, [x * 1.2 for x in BASE], 0.1, "lower") == "worse"

    def test_small_slowdown_within_bound_is_unchanged(self):
        assert verdict(BASE, [x * 1.05 for x in BASE], 0.1, "lower") == "unchanged"

    def test_improved_needs_wins_and_a_gap_beyond_the_spread(self):
        assert verdict(BASE, [x * 0.8 for x in BASE], 0.1, "lower") == "improved"

    def test_gain_from_fewer_than_ten_samples_is_unchanged(self):
        assert verdict(BASE[:9], [x * 0.8 for x in BASE[:9]], 0.1, "lower") == "unchanged"
        assert verdict([1.0], [0.5], 0.1, "lower") == "unchanged"

    def test_overlapping_gain_is_unchanged(self):
        head = [0.985, 1.0, 0.99, 1.01, 0.98, 1.0, 0.99, 1.0, 0.995, 1.0]
        assert verdict(BASE, head, 0.1, "lower") == "unchanged"

    def test_wide_base_spread_is_unresolved(self):
        noisy = [0.6, 1.0, 1.4, 0.7, 1.3, 1.0]
        assert verdict(noisy, [x * 1.05 for x in noisy], 0.1, "lower") == "unresolved"

    def test_wide_spread_but_every_head_run_better_is_improved(self):
        noisy = [0.6, 1.0, 1.4, 0.7, 1.3, 1.0]
        assert verdict(noisy, [0.3, 0.35, 0.4], 0.1, "lower") == "improved"

    def test_higher_is_better_direction(self):
        assert verdict(BASE, [x * 1.2 for x in BASE], 0.1, "higher") == "improved"
        assert verdict(BASE, [x * 0.8 for x in BASE], 0.1, "higher") == "worse"


def _pass(value: float, failed: int = 0, calls: int = 10) -> dict:
    """A pass file whose run made ``calls`` timed calls around ``value``."""
    samples = [value * (1 + 0.001 * (i - calls // 2)) for i in range(calls)]
    return {
        "workloads": {
            "w": {
                "attempted": calls,
                "failed": failed,
                "metrics": {"run_s_p50": {"value": value, "samples": samples}},
            }
        }
    }


BENCHMARK = {
    "workloads": [{"name": "w"}, {"name": "not-run"}],
    "end_to_end": [{"name": "run_s_p50", "unit": "s", "better": "lower", "bound": 0.1}],
}


class TestCompare:
    def test_one_row_per_metric_plus_error_rate(self):
        rows = compare([_pass(1.0, 0)], [_pass(1.0, 0)], BENCHMARK)
        assert [(row[0], row[1], row[2]) for row in rows] == [
            ("w", "run_s_p50", "unchanged"),
            ("w", "error_rate", "unchanged"),
        ]

    def test_any_rise_in_error_rate_is_worse(self):
        rows = compare([_pass(1.0, 0)], [_pass(1.0, 1)], BENCHMARK)
        assert dict((row[1], row[2]) for row in rows) == {
            "run_s_p50": "unchanged",
            "error_rate": "worse",
        }

    def test_one_pass_per_side_never_shows_a_gain(self):
        # 71 timed jobs in each run, but a run counts once.
        rows = compare([_pass(1.0, calls=71)], [_pass(0.5, calls=71)], BENCHMARK)
        assert rows[0][2] == "unchanged"

    def test_one_pass_per_side_shows_a_regression(self):
        rows = compare([_pass(1.0, calls=71)], [_pass(1.5, calls=71)], BENCHMARK)
        assert rows[0][2] == "worse"

    def test_ten_passes_per_side_show_a_gain(self):
        base = [_pass(v) for v in BASE]
        head = [_pass(v * 0.8) for v in BASE]
        assert compare(base, head, BENCHMARK)[0][2] == "improved"

    def test_each_workload_uses_the_passes_that_ran_it(self):
        other = {"workloads": {"not-run": _pass(9.0)["workloads"]["w"]}}
        base = [_pass(v) for v in BASE] + [other]
        head = [_pass(v * 0.8) for v in BASE] + [other]
        assert [(row[0], row[1], row[2]) for row in compare(base, head, BENCHMARK)] == [
            ("w", "run_s_p50", "improved"),
            ("w", "error_rate", "unchanged"),
            ("not-run", "run_s_p50", "unchanged"),
            ("not-run", "error_rate", "unchanged"),
        ]

    def test_spread_is_between_runs_not_within_one(self):
        # Each run is steady inside; the runs disagree with each other.
        noisy = [0.6, 1.0, 1.4, 0.7, 1.3, 1.0]
        rows = compare([_pass(v) for v in noisy], [_pass(v) for v in noisy], BENCHMARK)
        assert rows[0][2] == "unresolved"


class TestSelfTime:
    # [trace, id, parent, name, start, end]
    SPANS = [
        [1, 0, None, "entry", 0.0, 10.0],
        [1, 1, 0, "a.outer", 1.0, 4.0],
        [1, 2, 1, "b.inner", 2.0, 3.0],
        [1, 3, 0, "a.outer", 5.0, 6.0],
        [1, 4, 0, "b.inner", 8.0, 9.5],
    ]

    def test_duration_minus_children(self):
        own = self_times(self.SPANS)
        assert own == pytest.approx({0: 10.0 - 3.0 - 1.0 - 1.5, 1: 2.0, 2: 1.0, 3: 1.0, 4: 1.5})

    def test_totals_by_name(self):
        assert self_time_by_name(self.SPANS) == pytest.approx(
            {"entry": 4.5, "a.outer": 3.0, "b.inner": 2.5}
        )

    def test_overlapping_children_count_once(self):
        assert covered_length((0.0, 10.0), [(1.0, 4.0), (3.0, 6.0), (5.0, 5.5)]) == 5.0

    def test_children_are_clipped_to_the_parent(self):
        assert covered_length((2.0, 4.0), [(0.0, 3.0), (3.5, 9.0), (5.0, 6.0)]) == 1.5

    def test_self_times_sum_to_the_root_duration(self):
        assert sum(self_times(self.SPANS).values()) == pytest.approx(10.0)
