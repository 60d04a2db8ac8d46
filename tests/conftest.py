"""Shared fixtures, strategy re-exports, and brute-force oracles.

The hypothesis strategies live in :mod:`tests.strategies` (one package for
every suite); they are re-exported here so the historical
``from tests.conftest import uncertain_databases`` imports keep working.
The oracles here are deliberately naive (exponential enumeration,
quadratic scans) — independent implementations the optimized library code is
checked against.

Importing this module also registers and loads the hypothesis settings
profile named by ``REPRO_HYPOTHESIS_PROFILE`` (``dev`` / ``ci`` /
``nightly``, default ``dev``).
"""

from __future__ import annotations

import itertools
import random
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import pytest

from repro.core.database import UncertainDatabase
from repro.core.itemsets import Itemset, canonical
from tests.strategies import (
    ITEM_POOL,
    exact_transactions,
    item_uncertain_databases,
    load_profile_from_env,
    probability_lists,
    probability_vectors,
    uncertain_databases,
)

__all__ = [
    "ITEM_POOL",
    "assert_processes_exit",
    "brute_force_closed",
    "brute_force_frequent",
    "brute_force_frequent_probability",
    "child_pids",
    "exact_transactions",
    "item_uncertain_databases",
    "probability_lists",
    "probability_vectors",
    "uncertain_databases",
]

HYPOTHESIS_PROFILE = load_profile_from_env()


# ----------------------------------------------------------------------
# brute-force oracles
# ----------------------------------------------------------------------
def brute_force_frequent(
    transactions: Sequence[Sequence], min_sup: int
) -> List[Tuple[Itemset, int]]:
    """Every frequent itemset by direct enumeration over the item universe."""
    items = sorted({item for transaction in transactions for item in transaction})
    results = []
    for size in range(1, len(items) + 1):
        for combo in itertools.combinations(items, size):
            support = sum(
                1 for transaction in transactions if set(combo) <= set(transaction)
            )
            if support >= min_sup:
                results.append((combo, support))
    return sorted(results, key=lambda pair: (len(pair[0]), pair[0]))


def brute_force_closed(
    transactions: Sequence[Sequence], min_sup: int
) -> List[Tuple[Itemset, int]]:
    """Frequent closed itemsets: frequent, and no superset ties the support."""
    frequent = brute_force_frequent(transactions, min_sup)
    supports: Dict[Itemset, int] = dict(frequent)
    closed = []
    items = sorted({item for transaction in transactions for item in transaction})
    for itemset, support in frequent:
        is_closed = True
        for extra in items:
            if extra in itemset:
                continue
            superset = canonical(itemset + (extra,))
            superset_support = sum(
                1 for transaction in transactions if set(superset) <= set(transaction)
            )
            if superset_support == support:
                is_closed = False
                break
        if is_closed:
            closed.append((itemset, support))
    return closed


def brute_force_frequent_probability(
    database: UncertainDatabase, itemset, min_sup: int
) -> float:
    """Pr_F by summing the PMF computed from explicit subset enumeration."""
    probabilities = database.tidset_probabilities(database.tidset(itemset))
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


# ----------------------------------------------------------------------
# process hygiene
# ----------------------------------------------------------------------
def _proc_state(pid: int) -> Tuple[str, int]:
    """``(state, parent pid)`` of ``pid`` from ``/proc/<pid>/stat``."""
    # The command name is parenthesized and may hold spaces: split after it.
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return fields[0], int(fields[1])


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid``; empty where there is no ``/proc``."""
    children = []
    for entry in Path("/proc").glob("[0-9]*"):
        try:
            if _proc_state(int(entry.name))[1] == pid:
                children.append(int(entry.name))
        except (OSError, IndexError, ValueError):
            continue  # exited while we looked
    return children


def assert_processes_exit(pids: Sequence[int], timeout: float = 5.0) -> None:
    """Every pid must be gone, or a zombie, within ``timeout`` seconds."""

    def running(pid: int) -> bool:
        try:
            return _proc_state(pid)[0] != "Z"
        except (OSError, IndexError, ValueError):
            return False

    deadline = time.monotonic() + timeout
    alive = [pid for pid in pids if running(pid)]
    while alive and time.monotonic() < deadline:
        time.sleep(0.1)
        alive = [pid for pid in alive if running(pid)]
    assert not alive, f"processes {alive} outlived their killed parent"


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


@pytest.fixture
def paper_db() -> UncertainDatabase:
    from repro.core.database import paper_table2_database

    return paper_table2_database()
