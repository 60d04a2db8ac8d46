"""Support distributions over possible worlds (Poisson binomial machinery).

Under tuple uncertainty, ``support(X)`` is the number of *present*
transactions among those that contain ``X``.  With independent existence
probabilities ``p_1 .. p_k`` this is a Poisson-binomial random variable, and
everything the paper computes in polynomial time reduces to its tail:

* the **frequent probability** ``Pr_F(X) = Pr[support(X) >= min_sup]``
  (Definition 3.4), computed by the dynamic programming of [4]/[22];
* the per-event factors ``Pr(C_i)`` of Section IV.B;
* conditional world sampling for the ApproxFCP estimator, which must draw the
  presence pattern of the transactions containing ``X + e_i`` *conditioned on*
  at least ``min_sup`` of them being present.

Two DP implementations are provided: a NumPy-vectorized one (default) and a
pure-Python one (used as a cross-check and for the ablation benchmark).  Both
cap the count dimension at ``min_sup``; states at the cap absorb, so the
table stays ``O(k * min_sup)``.
"""

from __future__ import annotations

import math
import random
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from ._types import BoolArray, FloatArray

__all__ = [
    "capped_support_pmf",
    "frequent_probability",
    "frequent_probability_python",
    "frequent_probability_padded_batch",
    "sample_conditional_presence_batch",
    "support_pmf",
    "pmf_tail_convolve",
    "expected_support",
    "support_variance",
    "tail_probability_table",
    "sample_conditional_presence",
    "SupportDistributionCache",
]


def _validate_probabilities(probabilities: Sequence[float]) -> None:
    for probability in probabilities:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability out of range [0, 1]: {probability}")


def expected_support(probabilities: Sequence[float]) -> float:
    """Expected support: the sum of the containing transactions' probabilities.

    ``math.fsum`` keeps this path bit-identical to the cached
    ``SupportDPCache.expected_support_of_tidset`` reduction regardless of
    summation order.
    """
    return math.fsum(probabilities)


def support_variance(probabilities: Sequence[float]) -> float:
    """Variance of the support (sum of independent Bernoulli variances)."""
    return math.fsum(p * (1.0 - p) for p in probabilities)


def support_pmf(probabilities: Sequence[float]) -> FloatArray:
    """Full probability mass function of the support.

    Returns an array ``pmf`` of length ``k + 1`` where ``pmf[s]`` is
    ``Pr[support = s]``.  Quadratic in ``k``; used by oracles, the TODIS
    substrate, and tests rather than the hot mining path.
    """
    _validate_probabilities(probabilities)
    pmf = np.zeros(len(probabilities) + 1)
    pmf[0] = 1.0
    for count, probability in enumerate(probabilities, start=1):
        # New mass at s comes from "was s and absent" or "was s-1 and present".
        pmf[1 : count + 1] = (
            pmf[1 : count + 1] * (1.0 - probability) + pmf[:count] * probability
        )
        pmf[0] *= 1.0 - probability
    return pmf


# Below this cap the scalar loop beats vectorized updates: the state vector
# is so short that NumPy's per-operation dispatch dominates the arithmetic
# (measured crossover ~50 on the CI workloads).
_SCALAR_DP_CAP = 48


def frequent_probability(probabilities: Sequence[float], min_sup: int) -> float:
    """``Pr[support >= min_sup]`` by the capped DP.

    The state vector ``state[s]`` holds ``Pr[min(support so far, min_sup) = s]``;
    the last cell absorbs, so after processing all transactions it equals the
    tail probability directly.  Complexity ``O(k * min_sup)``.

    Small thresholds run a scalar in-place loop, large ones a vectorized
    in-place update; both perform the identical transition in the identical
    order, so the two paths agree bit-for-bit with the reference
    implementation (property-tested in ``tests/test_support_cache.py``).
    The result is clamped to ``<= 1.0`` (see :func:`_capped_dp_state`).
    """
    if min_sup <= 0:
        return 1.0
    if min_sup > len(probabilities):
        return 0.0
    _validate_probabilities(probabilities)
    return float(_capped_dp_state(probabilities, min_sup)[min_sup])


def _capped_dp_state(
    probabilities: Sequence[float], cap: int
) -> Union[List[float], FloatArray]:
    """State vector of the capped DP after every row; ``cap >= 1``.

    ``state[s]`` holds ``Pr[min(support so far, cap) = s]``.  After ``row``
    rows every cell above ``row`` is exactly 0.0 (all masses are
    non-negative, so ``0.0 * x + 0.0 * y`` is ``+0.0``).  The vectorized
    path therefore updates only cells ``[1, row + 1]`` while fewer than
    ``cap`` rows have been seen: the cells it skips would have been
    rewritten to the 0.0 they already hold, and the cap refund it skips
    adds ``0.0 * p``.  From row ``cap`` on it runs the full-width update.

    The absorbed cap cell sums many rounded products and can overshoot 1.0
    by a few ulps, so it is clamped to 1.0 on the way out: every ``Pr_F``
    the kernels report is a probability.
    """
    if cap <= _SCALAR_DP_CAP:
        scalar = [0.0] * (cap + 1)
        scalar[0] = 1.0
        for probability in probabilities:
            absent = 1.0 - probability
            # In-place right-to-left shift; the cap cell absorbs, so the mass
            # it would lose to a "present" transition is added back.
            cap_mass = scalar[cap]
            for count in range(cap, 0, -1):
                scalar[count] = scalar[count] * absent + scalar[count - 1] * probability
            scalar[0] *= absent
            # The sequential recurrence IS the exactness contract here.
            # prolint: ignore[FSUM-REDUCE] DP transition on a cell, not a reduction
            scalar[cap] += cap_mass * probability
        scalar[cap] = min(scalar[cap], 1.0)
        return scalar
    state = np.zeros(cap + 1)
    state[0] = 1.0
    for high, probability in enumerate(probabilities[:cap], start=1):
        absent = 1.0 - probability
        state[1 : high + 1] = state[1 : high + 1] * absent + state[:high] * probability
        state[0] *= absent
    for probability in probabilities[cap:]:
        absent = 1.0 - probability
        cap_mass = state[cap]
        state[1:] = state[1:] * absent + state[:-1] * probability
        state[0] *= absent
        # Absorbing cap: mass at cap stays there even when a transaction
        # is present, so add back the part the generic transition dropped.
        # prolint: ignore[FSUM-REDUCE] DP transition, not a reduction.
        state[cap] += cap_mass * probability
    state[cap] = min(state[cap], 1.0)
    return state


def capped_support_pmf(probabilities: Sequence[float], cap: int) -> FloatArray:
    """Tail-capped support PMF: ``out[s] = Pr[min(support, cap) = s]``.

    This is the *full state vector* of the :func:`frequent_probability` DP —
    exact mass at every count below ``cap`` plus the absorbed tail mass at
    ``cap`` — computed by the same kernel, so
    ``capped_support_pmf(p, m)[m] == frequent_probability(p, m)``
    bit-for-bit whenever ``m <= len(p)``.

    Shard workers return this vector per item: capped PMFs over *disjoint*
    transaction sets compose under :func:`pmf_tail_convolve`, which is what
    lets a merge phase reconstruct a global ``Pr_F`` from per-shard scans
    without shipping full probability vectors twice.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    _validate_probabilities(probabilities)
    if cap == 0:
        return np.ones(1)
    return np.asarray(_capped_dp_state(probabilities, cap), dtype=np.float64)


def pmf_tail_convolve(first: Sequence[float], second: Sequence[float]) -> FloatArray:
    """Convolve two tail-capped support PMFs over disjoint transaction sets.

    Both inputs must be :func:`capped_support_pmf` vectors with the same
    ``cap`` (length ``cap + 1``, last cell = absorbed ``>= cap`` mass).  The
    result is the capped PMF of the union: below the cap the counts add like
    an ordinary convolution, and the cap cell collects every combination
    whose total reaches ``cap`` — including anything already absorbed on
    either side.  Mathematically exact over disjoint row sets
    (independence).  The cells below the cap come from one
    :func:`numpy.convolve`; the cap cell is ``Σ_i first[i] · tail[cap − i]``
    with ``tail[j] = Σ_{j' >= j} second[j']``, which is O(cap) instead of
    the O(cap²) pairs it sums.  Neither is exactly rounded, so the result
    agrees with the direct DP over the concatenated probabilities only to
    accumulated rounding (the sharded-mining merge asserts agreement within
    ``MERGE_VERIFY_TOLERANCE`` as a self-check, not bit-for-bit).
    """
    a = np.asarray(first, dtype=np.float64)
    b = np.asarray(second, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 1:
        raise ValueError(
            f"capped PMFs must share one shape (cap+1,), got {a.shape} and {b.shape}"
        )
    cap = len(a) - 1
    out = np.empty(cap + 1)
    if cap:
        out[:cap] = np.convolve(a[:cap], b[:cap])[:cap]
    # Everything not strictly below the cap lands on the cap: pairs whose
    # exact counts sum past it, plus any mass either side already absorbed.
    # For a[i] those are the b[j] with j >= cap - i, i.e. the suffix sum of
    # b starting at cap - i.
    tail = np.cumsum(b[::-1])
    out[cap] = float(np.dot(a, tail))
    return out


def frequent_probability_padded_batch(
    padded: FloatArray, min_sup: int
) -> FloatArray:
    """Batched capped DP over left-aligned, zero-padded probability rows.

    ``padded[s]`` holds sub-tidset ``s``'s probabilities in ascending
    position order, right-padded with zeros to the longest row.  A zero
    probability is an *exact identity* transition (``x * 1.0`` returns ``x``
    and ``y * 0.0`` contributes ``+0.0`` bit-for-bit, all state masses being
    non-negative), so the padded walk performs the identical IEEE-754
    operations the serial DP performs on the compacted row — while every
    column advances the whole batch at once.  This is what makes batching
    actually amortize: the column count is the longest *member* width, not
    the base width, exactly as in the serial evaluation.  Each column
    updates only its live band of count cells (see the loop), so a batch
    whose longest row is close to ``min_sup`` costs far less than
    ``columns × (min_sup + 1)`` cells.

    Bit-exactness contract: ``result[s] == frequent_probability(row s's
    nonzero prefix, min_sup)`` exactly, the ``<= 1.0`` clamp included
    (the backend-parity tests assert
    ``==``, not ``approx``), which is what lets the bitmap tidset engine
    seed the support-DP cache in bulk without perturbing any pruning
    decision.
    """
    padded = np.asarray(padded, dtype=np.float64)
    batch, width = padded.shape
    if min_sup <= 0:
        return np.ones(batch)
    if batch == 0 or width == 0:
        return np.zeros(batch)
    # Rows are processed sorted by extent (index of the last nonzero, i.e.
    # the row's true probability count), longest first, and the active slice
    # shrinks as rows finish — total work is Σ row widths, exactly what the
    # serial evaluations would do, with the batch amortizing every column.
    nonzero = padded != 0.0
    extents = np.where(
        nonzero.any(axis=1), width - np.argmax(nonzero[:, ::-1], axis=1), 0
    )
    order = np.argsort(-extents, kind="stable")
    padded = padded[order]
    extents = extents[order]
    complements = 1.0 - padded
    longest = int(extents[0])
    # Live band of column c: cells [low, high].  Cells above high = c + 1
    # still hold an exact 0.0 (c + 1 rows cannot have more support), and
    # cells below low = min_sup - (longest - c) cannot climb to min_sup in
    # the columns left, so they never reach the result.  low grows by one
    # per column once positive, so each computed cell reads only cells
    # computed one column earlier, or cells above the band that were never
    # written: every cell from low up holds the exact full-width value as
    # long as all three buffers start zeroed (np.empty would leave garbage
    # where the full-width walk wrote 0.0).
    columns = np.arange(longest)
    lows = np.maximum(min_sup - longest + columns, 0).tolist()
    highs = np.minimum(columns + 1, min_sup).tolist()
    state = np.zeros((batch, min_sup + 1))
    state[:, 0] = 1.0
    buffer = np.zeros_like(state)
    present = np.zeros_like(state)
    finished = np.zeros(batch)
    active = batch
    for column in range(longest):
        while active and extents[active - 1] <= column:
            # This row is done; its cap cell is final (an untouched 0.0 for a
            # row shorter than min_sup, as the serial early return gives).
            active -= 1
            finished[active] = state[active, min_sup]
        low, high = lows[column], highs[column]
        shifted = max(low, 1)
        # Same per-cell transition as frequent_probability: old*absent +
        # shifted*present, with the absorbing cap refunded from the old cap.
        # One present-mass product serves both the shift (its cells below
        # high) and the cap refund (its cell at min_sup, once high gets there).
        np.multiply(
            state[:active, low : high + 1],
            complements[:active, column : column + 1],
            out=buffer[:active, low : high + 1],
        )
        np.multiply(
            state[:active, shifted - 1 : high + 1],
            padded[:active, column : column + 1],
            out=present[:active, shifted - 1 : high + 1],
        )
        buffer[:active, shifted : high + 1] += present[:active, shifted - 1 : high]
        if high == min_sup:
            buffer[:active, min_sup] += present[:active, min_sup]
        state, buffer = buffer, state
    finished[:active] = state[:active, min_sup]
    result = np.empty(batch)
    result[order] = np.minimum(finished, 1.0)
    return result


def frequent_probability_python(probabilities: Sequence[float], min_sup: int) -> float:
    """Pure-Python reference implementation of :func:`frequent_probability`.

    Clamped to ``<= 1.0`` like the other kernels.
    """
    if min_sup <= 0:
        return 1.0
    if min_sup > len(probabilities):
        return 0.0
    _validate_probabilities(probabilities)
    state = [0.0] * (min_sup + 1)
    state[0] = 1.0
    for probability in probabilities:
        absent = 1.0 - probability
        next_state = [0.0] * (min_sup + 1)
        for count, mass in enumerate(state):
            if not mass:
                continue
            if count == min_sup:
                next_state[min_sup] += mass
            else:
                next_state[count] += mass * absent
                # prolint: ignore[FSUM-REDUCE] DP transition, not a reduction
                next_state[count + 1] += mass * probability
        state = next_state
    return min(state[min_sup], 1.0)


def tail_probability_table(probabilities: Sequence[float], min_sup: int) -> FloatArray:
    """Suffix tail table for conditional sampling.

    Returns ``table`` of shape ``(k + 1, min_sup + 1)`` where ``table[j][r]``
    is the probability that at least ``r`` of the transactions ``j, j+1, ..,
    k-1`` are present.  ``table[k][0] = 1`` and ``table[k][r > 0] = 0``.

    This is the backward analogue of the frequent-probability DP; it lets
    :func:`sample_conditional_presence` walk the transactions forward and draw
    each presence bit from its exact conditional distribution.

    Each row is one vector update over the full width,
    ``table[j, r] = p_j · table[j+1, r−1] + (1 − p_j) · table[j+1, r]`` for
    ``r ≥ 1``: the same multiply, multiply, add on the same operands as a
    per-cell loop, so every cell is bit-identical to it
    (``tests/test_support.py::TestTailTable`` keeps that loop as the
    reference).
    """
    if min_sup < 0:
        raise ValueError("min_sup must be non-negative")
    _validate_probabilities(probabilities)
    k = len(probabilities)
    table = np.zeros((k + 1, min_sup + 1))
    table[:, 0] = 1.0
    for j in range(k - 1, -1, -1):
        probability = probabilities[j]
        below = table[j + 1]
        table[j, 1:] = probability * below[:-1] + (1.0 - probability) * below[1:]
    return table


def sample_conditional_presence(
    probabilities: Sequence[float],
    min_sup: int,
    rng: Optional[random.Random] = None,
    tail_table: Optional[FloatArray] = None,
    uniforms: Optional[Sequence[float]] = None,
) -> List[bool]:
    """Sample presence bits conditioned on ``sum(bits) >= min_sup``.

    This is the exact conditional sampler used inside ApproxFCP: given the
    probabilities of the transactions containing ``X + e_i``, draw one
    possible world restricted to them, distributed as the unconditioned world
    distribution *given* that the support reaches ``min_sup``.

    The ``j``-th comparison consumes either ``rng.random()`` or
    ``uniforms[j]`` — passing pre-drawn uniforms is what lets the ApproxFCP
    estimator share one randomness stream between this serial walk (the
    tuple-oracle path) and :func:`sample_conditional_presence_batch` (the
    vectorized path) while staying bit-identical.  Exactly one of ``rng``
    and ``uniforms`` must be provided.

    Raises :class:`ValueError` when the conditioning event has zero
    probability (fewer than ``min_sup`` transactions, or the tail is 0).
    """
    k = len(probabilities)
    if min_sup > k:
        raise ValueError("cannot condition on support >= min_sup with too few rows")
    if (rng is None) == (uniforms is None):
        raise ValueError("provide exactly one of rng and uniforms")
    if tail_table is None:
        tail_table = tail_probability_table(probabilities, min_sup)
    if tail_table[0][min_sup] <= 0.0:
        raise ValueError("conditioning event has zero probability")
    if uniforms is not None:
        draws = iter(uniforms)
        draw: Callable[[], float] = lambda: next(draws)  # noqa: E731
    else:
        assert rng is not None
        draw = rng.random
    bits: List[bool] = []
    remaining = min_sup
    for j, probability in enumerate(probabilities):
        if remaining == 0:
            # Condition already satisfied; the rest are plain Bernoulli draws.
            bits.append(draw() < probability)
            continue
        joint_present = probability * tail_table[j + 1][remaining - 1]
        conditional_present = joint_present / tail_table[j][remaining]
        present = draw() < conditional_present
        bits.append(present)
        if present:
            remaining -= 1
    return bits


# How often (in columns) the batch sampler checks whether every lane has met
# its threshold; from then on each bit is a plain Bernoulli draw.
_EARLY_FINISH_STRIDE = 32


def sample_conditional_presence_batch(
    probabilities: Sequence[float],
    min_sup: int,
    uniforms: FloatArray,
    tail_table: FloatArray,
) -> BoolArray:
    """Vectorized :func:`sample_conditional_presence` over many uniform rows.

    ``uniforms[s, j]`` is the ``j``-th uniform draw of sample ``s`` — the
    exact values (in the exact order) the serial sampler would consume from
    its RNG.  The returned boolean ``(samples, k)`` matrix is bit-for-bit
    what running the serial sampler once per row would produce.  The
    ApproxFCP estimator pre-draws its uniforms serially and batches the
    walks through here, which removes the per-sample Python loop from the
    sampling hot path for both tidset backends.

    The kernel first builds the conditional table
    ``conditional[j, r] = (p_j · tail[j+1, r−1]) / tail[j, r]`` for
    ``r ≥ 1`` — the serial sampler's quotient, with the identical operations
    — and sets ``conditional[j, 0] = p_j``.  It then walks one contiguous
    copy of ``uniforms.T`` column by column: each lane compares its uniform
    with ``conditional[j, remaining]`` and decrements ``remaining`` on a
    present bit.  A lane that has met the threshold goes to
    ``remaining ≤ 0`` and ``take(..., mode="clip")`` reads its column 0,
    which is the serial sampler's plain Bernoulli draw.  Unreachable
    ``0 / 0`` cells are NaN and compare False, exactly as in the serial
    walk.  Every :data:`_EARLY_FINISH_STRIDE` columns, once every lane has
    met the threshold, the remaining columns are one Bernoulli compare.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    uniforms = np.asarray(uniforms, dtype=np.float64)
    k = len(probs)
    if min_sup > k:
        raise ValueError("cannot condition on support >= min_sup with too few rows")
    if tail_table[0][min_sup] <= 0.0:
        raise ValueError("conditioning event has zero probability")
    if min_sup == 0:
        # No conditioning: every bit is a plain Bernoulli draw.
        return uniforms < probs[np.newaxis, :]
    conditional = np.empty((k, min_sup + 1))
    conditional[:, 0] = probs
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(
            probs[:, np.newaxis] * tail_table[1 : k + 1, :min_sup],
            tail_table[:k, 1 : min_sup + 1],
            out=conditional[:, 1:],
        )
    columns = np.ascontiguousarray(uniforms.T)
    bits = np.empty((k, uniforms.shape[0]), dtype=bool)
    remaining = np.full(uniforms.shape[0], min_sup, dtype=np.int64)
    for j in range(k):
        np.less(columns[j], conditional[j].take(remaining, mode="clip"), out=bits[j])
        remaining -= bits[j]
        if j % _EARLY_FINISH_STRIDE == _EARLY_FINISH_STRIDE - 1 and (remaining <= 0).all():
            np.less(columns[j + 1 :], probs[j + 1 :, np.newaxis], out=bits[j + 1 :])
            break
    return bits.T


# Historical name: the bounded, instrumented cache now lives in
# :mod:`repro.core.cache`; the alias keeps the long-standing import path
# (and every non-hot-path caller) working unchanged.  The import sits at the
# bottom because cache.py pulls the DP functions from this module.
from .cache import SupportDPCache as SupportDistributionCache  # noqa: E402
