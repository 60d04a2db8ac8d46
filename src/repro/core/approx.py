"""ApproxFCP — the FPRAS of Section IV.B.4 (Fig. 2).

Not to be confused with :mod:`repro.core.approximations`: **this** module is
the paper's Monte-Carlo machinery — the Karp–Luby union estimator behind
``Pr_FC`` checking — while ``approximations`` holds the closed-form
Normal/Poisson tail approximations from related work, which the miner never
uses to decide results.  See ``docs/api.md``.

Computing ``Pr_FC(X)`` exactly is #P-hard, so the paper estimates the
frequent *non-closed* probability — the probability of the DNF
``C_1 ∨ ... ∨ C_m`` — with the Karp–Luby coverage algorithm [14] and
subtracts it from the exact ``Pr_F(X)``.

Coverage estimator.  Let ``Z = Σ Pr(C_i)``.  Repeat ``N`` times: draw an
event index ``i`` with probability ``Pr(C_i)/Z``, then draw a world ``w``
from the distribution *conditioned on* ``C_i``; count a success iff ``i`` is
the canonical (first) event covering ``w``.  Then

    Pr(∪ C_i)  =  Z · E[success],

and ``N = ceil(4 m ln(2/δ) / ε²)`` samples make the estimate a relative
``(ε, δ)``-approximation of the union probability (``m`` is the number of
events), matching the sample complexity the paper quotes:
``O(4k ln(2/δ)/ε² · |UTD|)`` total time.

Two implementation notes, both recorded in DESIGN.md:

* The paper's Fig. 2 pseudo-code is an image absent from the available text,
  and the prose sketch (accumulators ``U``, ``V``, estimate ``U·Z/V``) does
  not reduce to the Karp–Luby estimator — its expectation is
  ``Σ_w Pr(w)² [...] / Σ_w cover(w) Pr(w)²``, not the union probability.  We
  implement the standard (provably unbiased) coverage estimator the paper
  cites.
* Sampling ``w | C_i`` needs the presence bits of the transactions
  containing ``X+e_i`` conditioned on their sum reaching ``min_sup``; that
  is the exact conditional Poisson-binomial sampler of
  :func:`repro.core.support.sample_conditional_presence`.  Transactions that
  do not contain ``X`` are irrelevant to every event and are never sampled.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

import numpy as np

from ._types import BoolArray, FloatArray
from .cache import SupportDPCache
from .database import UncertainDatabase
from .events import ExtensionEventSystem
from .itemsets import Item
from .support import sample_conditional_presence, sample_conditional_presence_batch

__all__ = [
    "ApproxFCPResult",
    "approx_union_probability",
    "approx_frequent_closed_probability",
    "check_rng",
    "paper_ratio_union_estimator",
    "sample_count",
]


@dataclass(frozen=True)
class ApproxFCPResult:
    """Outcome of one ApproxFCP run."""

    estimate: float
    samples: int
    union_estimate: float
    frequent_probability: float


def sample_count(num_events: int, epsilon: float, delta: float) -> int:
    """The paper's sample complexity: ``ceil(4 m ln(2/δ) / ε²)``."""
    if num_events <= 0:
        return 0
    return math.ceil(4.0 * num_events * math.log(2.0 / delta) / (epsilon * epsilon))


def check_rng(seed: Optional[int], itemset: Sequence[Item]) -> random.Random:
    """The generator the closedness check of ``itemset`` samples from.

    Seeded with the first 8 bytes of a sha256 over ``seed`` and the
    canonical itemset, its items written as text, so the stream is a
    function of the check alone: whichever miner, process, shard, retry,
    resume or window slide runs the check draws the same samples, and
    ``hash()`` randomization cannot reach it.  ``seed=None`` draws OS
    entropy, as an unseeded run always has.
    """
    if seed is None:
        return random.Random(None)
    key = json.dumps([seed, [str(item) for item in itemset]])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# Uniform matrices are drawn (and processed) in chunks of at most this many
# elements, so a huge sample budget over a wide event never materializes a
# gigabyte of uniforms at once.  Chunking does not change the stream: a
# PCG64 ``Generator.random`` call sequence is identical to one large
# row-major draw split at arbitrary row boundaries.
_UNIFORM_CHUNK_ELEMENTS = 1 << 20


def approx_union_probability(
    events: ExtensionEventSystem,
    epsilon: float,
    delta: float,
    rng: random.Random,
    max_samples: Optional[int] = None,
) -> tuple[float, int]:
    """Karp–Luby estimate of ``Pr(C_1 ∨ ... ∨ C_m)``.

    Returns ``(estimate, samples_used)``.  Zero-probability unions short-
    circuit without sampling.

    Randomness protocol (shared by every tidset backend, which is what keeps
    the estimate bit-identical across them): one 64-bit seed is drawn from
    the injected ``rng`` and feeds a ``numpy`` PCG64 stream; the stream is
    consumed as (1) ``n_samples`` index picks, then (2) one ``(count_i,
    width_i)`` uniform matrix per sampled event in ascending event order —
    events sampled at index 0 consume no uniforms, since the first event is
    always its own first cover.  The vectorized path runs each matrix
    through the batched conditional sampler and a matmul first-cover check;
    the serial oracle path walks the identical matrices row by row through
    :func:`repro.core.support.sample_conditional_presence` and per-sample
    set intersections.  Same uniforms, same comparisons, same integer
    success count — so the two paths agree bit-for-bit while the vectorized
    one does no per-sample Python at all.
    """
    singleton = events.singleton_probabilities
    z = math.fsum(singleton)
    if z <= 0.0 or not events.events:
        return 0.0, 0

    m = len(events.events)
    n_samples = sample_count(m, epsilon, delta)
    if max_samples is not None:
        n_samples = min(n_samples, max_samples)

    # Cumulative weights for drawing the event index proportionally to Pr(C_i).
    cumulative: List[float] = []
    running = 0.0
    for probability in singleton:
        # prolint: ignore[FSUM-REDUCE] inverse-CDF prefix sum, not a reduction
        running += probability
        cumulative.append(running)

    database = events.database
    cache = events.support_cache
    engine = events.engine
    vectorized = bool(getattr(engine, "vectorized", False))
    # Per-event precomputation: conditional-sampler inputs and membership
    # structures for the first-cover check.  Tail tables come from the
    # run-shared support-DP cache (one fetch per sampled event), so
    # re-checks of overlapping tidsets stop rebuilding them.
    event_probabilities = [
        cache.probabilities_of_tidset(event.tidset) for event in events.events
    ]
    item_of_event = [event.item for event in events.events]
    event_positions = [engine.positions(event.tidset) for event in events.events]

    generator = np.random.default_rng(rng.getrandbits(64))
    picks = generator.random(n_samples) * z
    indices = np.minimum(
        np.searchsorted(np.asarray(cumulative, dtype=np.float64), picks, side="left"),
        m - 1,
    )
    group_sizes = np.bincount(indices, minlength=m)

    # Index-0 samples are always their own first cover (and consume no
    # further randomness under the protocol above).
    successes = int(group_sizes[0])

    base_positions = np.asarray(engine.positions(events.base_tidset), dtype=np.int64)
    transaction_items: List[Set[Item]] = []
    member_of_base: Optional[BoolArray] = None
    if vectorized:
        # membership[j, c] — does the c-th base transaction contain e_j?
        # Every event tidset refines the base tidset, so one (m, |T(X)|)
        # matrix serves every group's first-cover check.
        member_of_base = np.stack(
            [
                np.isin(
                    base_positions,
                    np.asarray(database.tidset_of_item(item), dtype=np.int64),
                )
                for item in item_of_event
            ]
        )
    else:
        transaction_items = [set(txn.items) for txn in database.transactions]

    for index in range(1, m):
        count = int(group_sizes[index])
        if count == 0:
            continue
        probabilities = event_probabilities[index]
        width = len(probabilities)
        table = cache.tail_table_of_tidset(events.events[index].tidset)
        positions = event_positions[index]
        probs_array = np.asarray(probabilities, dtype=np.float64)
        not_member: Optional[FloatArray] = None
        if vectorized:
            assert member_of_base is not None
            columns = np.searchsorted(
                base_positions, np.asarray(positions, dtype=np.int64)
            )
            # float32 so the first-cover check is one BLAS matmul; the
            # entries are exact small counts (width << 2**24).
            not_member = (~member_of_base[:index][:, columns]).astype(np.float32)
        rows_per_chunk = max(1, _UNIFORM_CHUNK_ELEMENTS // max(width, 1))
        done = 0
        while done < count:
            take = min(rows_per_chunk, count - done)
            done += take
            uniforms = generator.random((take, width))
            if vectorized:
                assert not_member is not None
                bits = sample_conditional_presence_batch(
                    probs_array, events.min_sup, uniforms, table
                )
                # misses[s, j] counts present transactions of sample s that
                # do NOT contain e_j; zero misses means event j also covers
                # the sample, so it is not a first cover.
                misses = bits.astype(np.float32) @ not_member.T
                covered = (misses == 0.0).any(axis=1)
                successes += take - int(np.count_nonzero(covered))
                continue
            for row in range(take):
                bits_row = sample_conditional_presence(
                    probabilities,
                    events.min_sup,
                    tail_table=table,
                    uniforms=uniforms[row],
                )
                present = [
                    position
                    for position, bit in zip(positions, bits_row)
                    if bit
                ]
                # First-cover test: is some earlier event also satisfied?
                # Event j is satisfied iff e_j appears in every present
                # transaction (support is already >= min_sup by the
                # conditioning).  Intersect the present transactions' item
                # sets once, then test membership.
                common_items = set(transaction_items[present[0]])
                for position in present[1:]:
                    common_items &= transaction_items[position]
                    if not common_items:
                        break
                if not any(item_of_event[j] in common_items for j in range(index)):
                    successes += 1

    estimate = z * successes / n_samples
    return min(estimate, 1.0), n_samples


def paper_ratio_union_estimator(
    events: ExtensionEventSystem,
    epsilon: float,
    delta: float,
    rng: random.Random,
    max_samples: Optional[int] = None,
) -> tuple[float, int]:
    """The paper's prose estimator ``U·Z/V`` — kept for comparison only.

    The prose of Section IV.B.4 describes accumulating the sampled world's
    probability into ``V`` on every draw and into ``U`` on first-cover
    draws, then estimating ``Pr(∪C) ≈ U·Z/V``.  Under the Karp–Luby sampling
    distribution (``Pr(i, w) = Pr(w)/Z`` for ``w ∈ C_i``) the expectations
    are ``E[V/N] = Σ_w cover(w)·Pr(w)²/Z`` and ``E[U/N] = Σ_w Pr(w)²/Z``, so
    the ratio converges to a *Pr(w)²-weighted* uncover-fraction — not the
    union probability — whenever world probabilities are non-uniform.

    ``tests/test_approx.py`` demonstrates the bias empirically against the
    exact union; :func:`approx_union_probability` (the standard estimator
    from the cited Karp–Luby source [14]) is what the miner uses.  On
    *uniform* world probabilities the two estimators agree, which is likely
    why the discrepancy is invisible in the paper's own setting.
    """
    singleton = events.singleton_probabilities
    z = math.fsum(singleton)
    if z <= 0.0 or not events.events:
        return 0.0, 0
    n_samples = sample_count(len(events.events), epsilon, delta)
    if max_samples is not None:
        n_samples = min(n_samples, max_samples)

    cumulative: List[float] = []
    running = 0.0
    for probability in singleton:
        # prolint: ignore[FSUM-REDUCE] inverse-CDF prefix sum, not a reduction
        running += probability
        cumulative.append(running)

    database = events.database
    cache = events.support_cache
    event_probabilities = [
        cache.probabilities_of_tidset(event.tidset) for event in events.events
    ]
    tail_tables: List[Optional[FloatArray]] = [None] * len(events.events)
    item_of_event = [event.item for event in events.events]
    transaction_items = [set(txn.items) for txn in database.transactions]
    engine = events.engine
    event_positions = [engine.positions(event.tidset) for event in events.events]
    base_positions = engine.positions(events.base_tidset)

    u_terms: List[float] = []
    v_terms: List[float] = []
    for _ in range(n_samples):
        pick = rng.random() * z
        index = min(bisect.bisect_left(cumulative, pick), len(events.events) - 1)
        table = tail_tables[index]
        if table is None:
            table = cache.tail_table_of_tidset(events.events[index].tidset)
            tail_tables[index] = table
        bits = sample_conditional_presence(
            event_probabilities[index],
            events.min_sup,
            rng,
            tail_table=table,
        )
        present = [
            position
            for position, bit in zip(event_positions[index], bits)
            if bit
        ]
        # The sampled world over T(X): `present` kept, the rest absent.
        world_probability = 1.0
        present_set = set(present)
        for position in base_positions:
            p = database.probability_of(position)
            world_probability *= p if position in present_set else 1.0 - p
        v_terms.append(world_probability)
        if index == 0:
            first_cover = True
        else:
            common_items = set(transaction_items[present[0]])
            for position in present[1:]:
                common_items &= transaction_items[position]
                if not common_items:
                    break
            first_cover = not any(
                item_of_event[j] in common_items for j in range(index)
            )
        if first_cover:
            u_terms.append(world_probability)

    v_total = math.fsum(v_terms)
    if v_total <= 0.0:
        return 0.0, n_samples
    return min(math.fsum(u_terms) * z / v_total, 1.0), n_samples


def approx_frequent_closed_probability(
    database: UncertainDatabase,
    itemset: Sequence[Item],
    min_sup: int,
    epsilon: float,
    delta: float,
    rng: random.Random,
    support_cache: Optional[SupportDPCache] = None,
) -> ApproxFCPResult:
    """ApproxFCP (Fig. 2): ``Pr_FC(X) ≈ Pr_F(X) − KL-estimate(Pr_FNC(X))``."""
    cache = support_cache if support_cache is not None else SupportDPCache(database, min_sup)
    frequent = cache.frequent_probability_of_itemset(itemset)
    if frequent <= 0.0:
        return ApproxFCPResult(0.0, 0, 0.0, 0.0)
    events = ExtensionEventSystem(
        database, itemset, min_sup, support_cache=cache
    )
    union_estimate, samples = approx_union_probability(events, epsilon, delta, rng)
    estimate = min(max(frequent - union_estimate, 0.0), frequent)
    return ApproxFCPResult(
        estimate=estimate,
        samples=samples,
        union_estimate=union_estimate,
        frequent_probability=frequent,
    )
