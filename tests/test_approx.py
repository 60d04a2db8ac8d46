"""Tests for the ApproxFCP FPRAS (Karp-Luby coverage estimator)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approx import (
    approx_frequent_closed_probability,
    approx_union_probability,
    sample_count,
)
from repro.core.database import UncertainDatabase
from repro.core.events import ExtensionEventSystem
from repro.core.possible_worlds import exact_probabilities
from tests.conftest import uncertain_databases


class TestSampleCount:
    def test_formula(self):
        # N = ceil(4 m ln(2/delta) / eps^2)
        assert sample_count(10, 0.1, 0.1) == math.ceil(
            4 * 10 * math.log(20) / 0.01
        )

    def test_zero_events(self):
        assert sample_count(0, 0.1, 0.1) == 0

    def test_scales_linearly_in_events(self):
        assert sample_count(20, 0.1, 0.1) == pytest.approx(
            2 * sample_count(10, 0.1, 0.1), abs=1
        )

    def test_scales_inverse_square_in_epsilon(self):
        coarse = sample_count(5, 0.2, 0.1)
        fine = sample_count(5, 0.1, 0.1)
        assert fine == pytest.approx(4 * coarse, rel=0.01)


class TestUnionEstimator:
    def test_single_event_is_exact(self, paper_db):
        """With one event every sample is a first-cover: estimate == Z."""
        events = ExtensionEventSystem(paper_db, "abc", min_sup=2)
        estimate, samples = approx_union_probability(
            events, 0.3, 0.3, random.Random(0)
        )
        assert estimate == pytest.approx(0.0972)
        assert samples > 0

    def test_no_events_short_circuits(self, paper_db):
        events = ExtensionEventSystem(paper_db, "abcd", min_sup=2)
        estimate, samples = approx_union_probability(
            events, 0.1, 0.1, random.Random(0)
        )
        assert estimate == 0.0
        assert samples == 0

    def test_deterministic_given_seed(self, paper_db):
        events = ExtensionEventSystem(paper_db, "a", min_sup=2)
        first = approx_union_probability(events, 0.2, 0.2, random.Random(7))
        second = approx_union_probability(events, 0.2, 0.2, random.Random(7))
        assert first == second

    def test_max_samples_cap(self, paper_db):
        events = ExtensionEventSystem(paper_db, "a", min_sup=2)
        _estimate, samples = approx_union_probability(
            events, 0.01, 0.01, random.Random(0), max_samples=50
        )
        assert samples == 50

    @given(
        uncertain_databases(max_transactions=6, max_items=5, allow_certain=False),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=20, deadline=None)
    def test_estimate_close_to_exact_union(self, db, min_sup):
        itemset = (db.items[0],)
        events = ExtensionEventSystem(db, itemset, min_sup)
        if not events.events:
            return
        exact = events.union_probability_exact()
        estimate, _samples = approx_union_probability(
            events, 0.1, 0.05, random.Random(99)
        )
        # The KL guarantee is relative; allow the matching absolute slack.
        assert abs(estimate - exact) <= 0.1 * max(exact, 0.05) + 0.05


class TestEpsilonDeltaGuarantee:
    """ApproxFCP's (ε, δ) guarantee (Fig. 2), checked against exact IE.

    With ``N = ⌈4m ln(2/δ)/ε²⌉`` samples, one run's relative error on the
    ``Pr_FNC`` union exceeds ε with probability at most δ.  Over ``n``
    independent seeds the count of such runs is then stochastically at
    most Binomial(n, δ); the test allows its mean plus three standard
    deviations.  The bitmap engine runs the batched conditional
    sampler, the vectorized path the miner uses.
    """

    EPSILON = DELTA = 0.2
    SEEDS_PER_INSTANCE = 250

    @staticmethod
    def _events(seed, min_sup):
        # 14 rows that all contain "a"; the other four items sit in nearly
        # every row, so their extension events overlap heavily (Z/Pr(∪)
        # from 2.3 up to m = 4), the coverage estimator's hard case.
        rng = random.Random(seed)
        database = UncertainDatabase.from_rows(
            [
                (
                    f"T{index}",
                    "a" + "".join(item for item in "bcde" if rng.random() < 0.95),
                    round(rng.uniform(0.3, 0.95), 3),
                )
                for index in range(14)
            ]
        )
        return ExtensionEventSystem(
            database, "a", min_sup, engine=database.tidset_engine("bitmap")
        )

    def test_relative_error_exceeds_epsilon_at_most_delta_often(self):
        failures = runs = 0
        for seed, min_sup in ((0, 10), (1, 8), (4, 10), (5, 10)):
            events = self._events(seed, min_sup)
            assert len(events.events) == 4
            exact = events.union_probability_exact()
            assert exact > 0.0
            for run in range(self.SEEDS_PER_INSTANCE):
                estimate, _samples = approx_union_probability(
                    events, self.EPSILON, self.DELTA, random.Random(run)
                )
                failures += abs(estimate - exact) > self.EPSILON * exact
                runs += 1
        margin = 3.0 * math.sqrt(runs * self.DELTA * (1.0 - self.DELTA))
        assert failures <= self.DELTA * runs + margin


class TestApproxFCP:
    def test_paper_example(self, paper_db):
        result = approx_frequent_closed_probability(
            paper_db, "abc", 2, epsilon=0.05, delta=0.05, rng=random.Random(5)
        )
        assert result.frequent_probability == pytest.approx(0.9726)
        assert result.estimate == pytest.approx(0.8754, abs=0.02)
        assert result.samples > 0

    def test_clamped_to_valid_range(self, paper_db):
        result = approx_frequent_closed_probability(
            paper_db, "a", 2, epsilon=0.2, delta=0.2, rng=random.Random(1)
        )
        assert 0.0 <= result.estimate <= result.frequent_probability

    def test_infrequent_itemset_is_zero_without_sampling(self):
        db = UncertainDatabase.from_rows([("T1", "a", 0.5)])
        result = approx_frequent_closed_probability(
            db, "a", 2, epsilon=0.1, delta=0.1, rng=random.Random(0)
        )
        assert result.estimate == 0.0
        assert result.samples == 0

    @given(uncertain_databases(max_transactions=6, max_items=4, allow_certain=False))
    @settings(max_examples=15, deadline=None)
    def test_tracks_oracle(self, db):
        itemset = (db.items[0],)
        truth = exact_probabilities(db, itemset, 2)["frequent_closed"]
        result = approx_frequent_closed_probability(
            db, itemset, 2, epsilon=0.05, delta=0.05, rng=random.Random(17)
        )
        assert result.estimate == pytest.approx(truth, abs=0.06)


class TestPaperRatioEstimator:
    """The prose U*Z/V estimator of Section IV.B.4, kept for comparison.

    These tests document *why* the library uses the standard Karp-Luby
    estimator: the ratio form is consistent only when world probabilities
    are uniform (as in the hardness construction), and measurably biased
    otherwise.
    """

    def _nonuniform_events(self):
        from repro.core.database import UncertainDatabase
        from repro.core.events import ExtensionEventSystem

        db = UncertainDatabase.from_rows(
            [
                ("T1", "abc", 0.95),
                ("T2", "ab", 0.2),
                ("T3", "ac", 0.9),
                ("T4", "ad", 0.15),
                ("T5", "abd", 0.7),
                ("T6", "a", 0.5),
            ]
        )
        return ExtensionEventSystem(db, "a", 1)

    def test_biased_on_nonuniform_worlds(self):
        from repro.core.approx import paper_ratio_union_estimator

        events = self._nonuniform_events()
        exact = events.union_probability_exact()
        kl_estimate, _n = approx_union_probability(
            events, 0.02, 0.02, random.Random(0)
        )
        ratio_estimate, _n = paper_ratio_union_estimator(
            events, 0.02, 0.02, random.Random(0)
        )
        # At ~138k samples the KL noise floor is ~1e-3; the ratio estimator
        # sits several noise floors away from the truth.
        assert abs(kl_estimate - exact) < 0.004
        assert abs(ratio_estimate - exact) > 0.005

    def test_consistent_on_uniform_worlds(self):
        """On probability-1/2 worlds (the Theorem 3.1 setting) both
        estimators converge to the exact union."""
        from repro.core.database import UncertainDatabase
        from repro.core.events import ExtensionEventSystem
        from repro.core.approx import paper_ratio_union_estimator

        db = UncertainDatabase.from_rows(
            [("T1", "ab", 0.5), ("T2", "ac", 0.5), ("T3", "abc", 0.5),
             ("T4", "a", 0.5)]
        )
        events = ExtensionEventSystem(db, "a", 1)
        exact = events.union_probability_exact()
        ratio_estimate, _n = paper_ratio_union_estimator(
            events, 0.03, 0.03, random.Random(1)
        )
        assert ratio_estimate == pytest.approx(exact, abs=0.01)

    def test_zero_union_short_circuits(self, paper_db):
        from repro.core.approx import paper_ratio_union_estimator
        from repro.core.events import ExtensionEventSystem

        events = ExtensionEventSystem(paper_db, "abcd", min_sup=2)
        estimate, samples = paper_ratio_union_estimator(
            events, 0.1, 0.1, random.Random(0)
        )
        assert estimate == 0.0
        assert samples == 0
