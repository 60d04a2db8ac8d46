"""Tests for the Poisson-binomial support machinery."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import paper_table2_database
from repro.core.support import (
    SupportDistributionCache,
    capped_support_pmf,
    expected_support,
    frequent_probability,
    frequent_probability_padded_batch,
    frequent_probability_python,
    pmf_tail_convolve,
    sample_conditional_presence,
    support_pmf,
    support_variance,
    tail_probability_table,
)
from tests.strategies import probability_lists

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def mixed_probabilities(rng, count):
    """Uniform draws with exact 0.0 and 1.0 rows mixed in."""
    return [
        rng.choice((0.0, 1.0)) if rng.random() < 0.15 else rng.random()
        for _ in range(count)
    ]


def per_cell_tail_table(probabilities, min_sup):
    """Per-cell reference for :func:`tail_probability_table`, one cell at a time."""
    k = len(probabilities)
    table = np.zeros((k + 1, min_sup + 1))
    table[k][0] = 1.0
    for j in range(k - 1, -1, -1):
        probability = probabilities[j]
        table[j][0] = 1.0
        for remaining in range(1, min_sup + 1):
            table[j][remaining] = (
                probability * table[j + 1][remaining - 1]
                + (1.0 - probability) * table[j + 1][remaining]
            )
    return table


def brute_force_tail(probabilities, min_sup):
    total = 0.0
    for mask in range(1 << len(probabilities)):
        count = 0
        weight = 1.0
        for position, probability in enumerate(probabilities):
            if mask >> position & 1:
                count += 1
                weight *= probability
            else:
                weight *= 1.0 - probability
        if count >= min_sup:
            total += weight
    return total


class TestFrequentProbability:
    def test_paper_values(self):
        # Pr[support({abc}) >= 2] on Table II = 0.9726.
        assert frequent_probability([0.9, 0.6, 0.7, 0.9], 2) == pytest.approx(0.9726)
        # Pr[support({abcd}) >= 2] = 0.81.
        assert frequent_probability([0.9, 0.9], 2) == pytest.approx(0.81)

    def test_min_sup_zero_is_certain(self):
        assert frequent_probability([0.3], 0) == 1.0
        assert frequent_probability([], 0) == 1.0

    def test_min_sup_above_count_is_impossible(self):
        assert frequent_probability([0.9, 0.9], 3) == 0.0
        assert frequent_probability([], 1) == 0.0

    def test_all_certain_transactions(self):
        assert frequent_probability([1.0, 1.0, 1.0], 3) == pytest.approx(1.0)
        assert frequent_probability([1.0, 1.0], 2) == pytest.approx(1.0)

    def test_rejects_invalid_probability(self):
        with pytest.raises(ValueError):
            frequent_probability([1.5], 1)

    @given(probability_lists(max_size=8), st.integers(min_value=0, max_value=9))
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, probabilities, min_sup):
        expected = brute_force_tail(probabilities, min_sup)
        assert frequent_probability(probabilities, min_sup) == pytest.approx(
            expected, abs=1e-9
        )

    @given(probability_lists(max_size=10), st.integers(min_value=0, max_value=11))
    @settings(max_examples=80, deadline=None)
    def test_numpy_and_python_agree(self, probabilities, min_sup):
        assert frequent_probability(probabilities, min_sup) == pytest.approx(
            frequent_probability_python(probabilities, min_sup), abs=1e-12
        )

    @given(probability_lists(max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_min_sup(self, probabilities):
        values = [
            frequent_probability(probabilities, min_sup)
            for min_sup in range(len(probabilities) + 2)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestSupportPmf:
    def test_sums_to_one(self):
        pmf = support_pmf([0.9, 0.6, 0.7, 0.9])
        assert pmf.sum() == pytest.approx(1.0)

    def test_matches_tail(self):
        probabilities = [0.2, 0.8, 0.5]
        pmf = support_pmf(probabilities)
        for min_sup in range(5):
            assert pmf[min_sup:].sum() == pytest.approx(
                frequent_probability(probabilities, min_sup)
            )

    def test_empty(self):
        pmf = support_pmf([])
        assert pmf.tolist() == [1.0]

    def test_moments(self):
        probabilities = [0.3, 0.5, 0.9]
        pmf = support_pmf(probabilities)
        mean = sum(value * weight for value, weight in enumerate(pmf))
        assert mean == pytest.approx(expected_support(probabilities))
        second = sum(value**2 * weight for value, weight in enumerate(pmf))
        assert second - mean**2 == pytest.approx(support_variance(probabilities))


class TestTailTable:
    def test_first_row_is_tail_probability(self):
        probabilities = [0.3, 0.9, 0.5, 0.2]
        table = tail_probability_table(probabilities, 3)
        for min_sup in range(4):
            assert table[0][min_sup] == pytest.approx(
                frequent_probability(probabilities, min_sup)
            )

    def test_terminal_row(self):
        table = tail_probability_table([0.5], 2)
        assert table[1][0] == 1.0
        assert table[1][1] == 0.0
        assert table[1][2] == 0.0

    @given(SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_row_update_matches_per_cell_loop(self, seed):
        rng = random.Random(seed)
        k = rng.randint(0, 300)
        # min_sup 0, 1, up to and above 48, and above k.
        min_sup = rng.choice((0, 1, rng.randint(2, 48), rng.randint(49, 240), k + 1, k + 7))
        probabilities = mixed_probabilities(rng, k)
        table = tail_probability_table(probabilities, min_sup)
        assert table.shape == (k + 1, min_sup + 1)
        assert np.array_equal(table, per_cell_tail_table(probabilities, min_sup))


class TestLiveBandKernels:
    """The band-limited kernels against their full-width references.

    Thresholds run past the scalar cut-over (48) into the vectorized paths,
    and row counts fall below, at and far above min_sup, so both band edges
    move.  Every comparison except the convolution's is exact.
    """

    @given(SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_capped_pmf_is_the_frequent_probability_state(self, seed):
        rng = random.Random(seed)
        cap = rng.randint(1, 200)
        probabilities = mixed_probabilities(rng, rng.randint(0, 400))
        capped = capped_support_pmf(probabilities, cap)
        assert capped[cap] == frequent_probability(probabilities, cap)
        full = support_pmf(probabilities)
        below = min(cap, len(full))
        assert np.array_equal(capped[:below], full[:below])
        assert not capped[below:cap].any()

    @given(SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_padded_batch_matches_serial(self, seed):
        rng = random.Random(seed)
        min_sup = rng.randint(49, 200)
        # Small batches of short rows leave most cells unwritten, which is
        # where unzeroed buffers would show.
        batch = rng.randint(1, 3) if rng.random() < 0.5 else rng.randint(4, 12)
        rows = [
            mixed_probabilities(
                rng,
                rng.choice(
                    (rng.randint(0, min_sup - 1), min_sup, rng.randint(min_sup + 1, 400))
                ),
            )
            for _ in range(batch)
        ]
        padded = np.zeros((batch, max(map(len, rows)) + rng.randint(0, 3)))
        for index, row in enumerate(rows):
            padded[index, : len(row)] = row
        result = frequent_probability_padded_batch(padded, min_sup)
        for index, row in enumerate(rows):
            assert result[index] == frequent_probability(row, min_sup)

    @pytest.mark.parametrize("extents", [(0,), (10,), (10, 60), (99, 1, 50)])
    def test_rows_shorter_than_min_sup_are_exactly_zero(self, extents):
        padded = np.zeros((len(extents), max(extents) + 1))
        for index, extent in enumerate(extents):
            padded[index, :extent] = 0.9
        result = frequent_probability_padded_batch(padded, 100)
        assert result.tolist() == [0.0] * len(extents)

    @given(SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_tail_convolve_of_a_split_matches_the_whole(self, seed):
        rng = random.Random(seed)
        cap = rng.randint(0, 200)
        probabilities = mixed_probabilities(rng, rng.randint(0, 400))
        split = rng.randint(0, len(probabilities))
        merged = pmf_tail_convolve(
            capped_support_pmf(probabilities[:split], cap),
            capped_support_pmf(probabilities[split:], cap),
        )
        np.testing.assert_allclose(
            merged, capped_support_pmf(probabilities, cap), rtol=0.0, atol=1e-12
        )


class TestConditionalSampler:
    def test_every_sample_satisfies_condition(self, rng):
        probabilities = [0.2, 0.5, 0.7, 0.3, 0.9]
        for _ in range(300):
            bits = sample_conditional_presence(probabilities, 3, rng)
            assert sum(bits) >= 3

    def test_zero_probability_condition_raises(self, rng):
        with pytest.raises(ValueError):
            sample_conditional_presence([0.5], 2, rng)

    def test_distribution_matches_conditional(self, rng):
        """Empirical frequencies match the exact conditional distribution."""
        probabilities = [0.3, 0.6, 0.8]
        min_sup = 2
        tail = frequent_probability(probabilities, min_sup)
        # Exact conditional probability of each admissible outcome.
        exact = {}
        for mask in range(8):
            bits = tuple(bool(mask >> position & 1) for position in range(3))
            if sum(bits) < min_sup:
                continue
            weight = 1.0
            for bit, probability in zip(bits, probabilities):
                weight *= probability if bit else 1.0 - probability
            exact[bits] = weight / tail
        draws = Counter(
            tuple(sample_conditional_presence(probabilities, min_sup, rng))
            for _ in range(20000)
        )
        for outcome, probability in exact.items():
            assert draws[outcome] / 20000 == pytest.approx(probability, abs=0.02)

    def test_unconditioned_when_min_sup_zero(self, rng):
        bits = sample_conditional_presence([0.5, 0.5], 0, rng)
        assert len(bits) == 2


class TestSupportDistributionCache:
    def test_caches_by_tidset(self):
        db = paper_table2_database()
        cache = SupportDistributionCache(db, 2)
        first = cache.frequent_probability_of_itemset("abc")
        second = cache.frequent_probability_of_itemset("ab")  # same tidset
        assert first == second
        assert cache.hits == 1
        assert cache.misses == 1

    def test_distinct_tidsets_are_distinct_entries(self):
        db = paper_table2_database()
        cache = SupportDistributionCache(db, 2)
        cache.frequent_probability_of_itemset("abc")
        cache.frequent_probability_of_itemset("abcd")
        assert cache.misses == 2

    def test_values_match_direct_computation(self):
        db = paper_table2_database()
        cache = SupportDistributionCache(db, 2)
        assert cache.frequent_probability_of_itemset("d") == pytest.approx(0.81)
