"""Executable conformance contracts shared by the suite and by plugins.

These helpers are the *meaning* of "conforming backend": property tests in
``test_backend_conformance.py`` call them on generated databases, and
``test_broken_backend.py`` calls the very same helpers to show that a
broken registered backend is caught.  Third-party backends can import them
directly for a quick self-check without running the whole suite.
"""

from __future__ import annotations

import itertools
from typing import Any, List, Sequence

from repro.core.config import MinerConfig
from repro.core.database import UncertainDatabase
from repro.core.miner import MPFCIMiner

# The backend every other backend is measured against: plain sorted tuples
# of row positions, no packing, no vectorization.
ORACLE_BACKEND = "tuple"

# Every numeric field of a PFCI result is compared with ``==`` — the parity
# contract is bit-for-bit IEEE-754 equality, not closeness.
RESULT_FIELDS = (
    "itemset",
    "probability",
    "lower",
    "upper",
    "method",
    "frequent_probability",
)


def mine_with_backend(
    database: UncertainDatabase, backend: str, **config_kwargs: Any
) -> List[Any]:
    config = MinerConfig(tidset_backend=backend, **config_kwargs)
    return MPFCIMiner(database, config).mine()


def assert_identical_results(actual: Sequence[Any], expected: Sequence[Any]) -> None:
    """Field-for-field equality of two PFCI result lists (exact floats)."""
    assert [r.itemset for r in actual] == [r.itemset for r in expected]
    for left, right in zip(actual, expected):
        for name in RESULT_FIELDS:
            assert getattr(left, name) == getattr(right, name), (
                f"{name} diverges on {left.itemset}: "
                f"{getattr(left, name)!r} != {getattr(right, name)!r}"
            )


def assert_results_in_unit_interval(results: Sequence[Any]) -> None:
    """Every emitted probability is a probability.

    ``0 <= lower <= probability <= upper <= 1`` and
    ``0 <= frequent_probability <= 1`` on every result, whichever path
    (trivial, bound, exact, sampled) decided it.
    """
    for result in results:
        assert 0.0 <= result.lower <= result.probability <= result.upper <= 1.0, (
            f"interval out of order or out of [0, 1] on {result.itemset}: "
            f"{result.lower!r} <= {result.probability!r} <= {result.upper!r}"
        )
        assert 0.0 <= result.frequent_probability <= 1.0, (
            f"frequent_probability {result.frequent_probability!r} outside [0, 1] "
            f"on {result.itemset}"
        )


def assert_engine_algebra_matches_oracle(
    database: UncertainDatabase, backend: str
) -> None:
    """Tidset algebra parity: positions and probabilities of every small itemset.

    Only the backend-generic engine surface is used (``items`` /
    ``universe`` / ``tidset_of`` / ``intersect`` / ``positions`` /
    ``probabilities``), so the check applies to any registered backend
    regardless of its tidset representation.
    """
    engine = database.tidset_engine(backend)
    oracle = database.tidset_engine(ORACLE_BACKEND)
    assert tuple(engine.items) == tuple(oracle.items)
    assert tuple(engine.positions(engine.universe())) == tuple(
        oracle.positions(oracle.universe())
    )
    items = oracle.items
    for size in (1, 2):
        for combo in itertools.combinations(items, size):
            tidset = engine.tidset_of(combo)
            expected = oracle.tidset_of(combo)
            assert tuple(engine.positions(tidset)) == tuple(
                oracle.positions(expected)
            ), combo
            assert tuple(engine.probabilities(tidset)) == tuple(
                oracle.probabilities(expected)
            ), combo
    for first, second in itertools.combinations(items, 2):
        meet = engine.intersect(engine.item_tidset(first), engine.item_tidset(second))
        expected_meet = oracle.intersect(
            oracle.item_tidset(first), oracle.item_tidset(second)
        )
        assert tuple(engine.positions(meet)) == tuple(
            oracle.positions(expected_meet)
        ), (first, second)


def assert_backend_mines_like_oracle(
    database: UncertainDatabase, backend: str, **config_kwargs: Any
) -> None:
    """Bit-identical frequent-closed output against the tuple oracle."""
    actual = mine_with_backend(database, backend, **config_kwargs)
    expected = mine_with_backend(database, ORACLE_BACKEND, **config_kwargs)
    assert_identical_results(actual, expected)


def assert_backend_conforms(
    database: UncertainDatabase,
    backend: str,
    *,
    min_sup: int,
    **config_kwargs: Any,
) -> None:
    """The full backend contract: tidset algebra, then end-to-end mining."""
    assert_engine_algebra_matches_oracle(database, backend)
    assert_backend_mines_like_oracle(
        database, backend, min_sup=min_sup, **config_kwargs
    )
