"""Every registered tidset backend against the tuple oracle.

Each test takes a ``tidset_backend`` argument and is expanded over
``TIDSET_BACKENDS.names()`` by this package's ``conftest.py`` — including
the oracle itself, whose run doubles as a self-consistency check.

Hypothesis tests here are module-level functions: ``@given`` methods on a
class would share one inner test across the backend parametrization and
trip the ``differing_executors`` health check.
"""

from __future__ import annotations

import random

from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import MinerConfig
from repro.core.database import UncertainDatabase, paper_table2_database
from repro.runtime import resume, run_supervised
from tests.strategies import random_uncertain_database, uncertain_databases

from .checks import (
    assert_backend_conforms,
    assert_identical_results,
    assert_results_in_unit_interval,
    mine_with_backend,
)


# ----------------------------------------------------------------------
# differential mining
# ----------------------------------------------------------------------
def test_paper_example(tidset_backend):
    assert_backend_conforms(paper_table2_database(), tidset_backend, min_sup=2)


@given(data=st.data())
def test_random_databases(tidset_backend, data):
    database = data.draw(uncertain_databases(min_transactions=1))
    min_sup = data.draw(st.integers(min_value=1, max_value=len(database)))
    pfct = data.draw(st.sampled_from([0.1, 0.4, 0.8]))
    assert_backend_conforms(database, tidset_backend, min_sup=min_sup, pfct=pfct)


@given(data=st.data())
def test_parity_survives_disabled_pruning(tidset_backend, data):
    """Pruning lemmas off forces the slow paths; parity must still hold."""
    database = data.draw(uncertain_databases(min_transactions=1, max_transactions=5))
    assert_backend_conforms(
        database,
        tidset_backend,
        min_sup=2,
        use_chernoff_pruning=False,
        use_probability_bounds=False,
    )


# ----------------------------------------------------------------------
# probability range
# ----------------------------------------------------------------------
def near_certain_database(seed: int):
    """20–80 rows over seven items, each row present with probability 0.6–1.

    Supports with many likely rows have ``Pr_F`` close to 1, where the
    DP's absorbed cap cell used to round above 1.0 (seeds 2 and 5 here).
    """
    rng = random.Random(seed)
    items = "abcdefg"
    rows = [
        (
            f"T{index}",
            "".join(rng.sample(items, rng.randint(1, len(items)))),
            round(rng.uniform(0.6, 1.0), 3),
        )
        for index in range(rng.randint(20, 80))
    ]
    database = UncertainDatabase.from_rows(rows)
    return database, rng.randint(1, max(1, len(database) // 2))


def test_results_stay_in_the_unit_interval(tidset_backend):
    for seed in range(10):
        database, min_sup = near_certain_database(seed)
        results = mine_with_backend(database, tidset_backend, min_sup=min_sup, pfct=0.5)
        assert results, seed
        assert_results_in_unit_interval(results)


# ----------------------------------------------------------------------
# checkpoint / resume
# ----------------------------------------------------------------------
def test_interrupted_run_resumes_bit_identically(tidset_backend, tmp_path):
    """checkpoint → resume reproduces the uninterrupted run, per backend."""
    database = random_uncertain_database(random.Random(7), 12, items="abcde")
    config = MinerConfig(min_sup=2, pfct=0.3, tidset_backend=tidset_backend)
    uninterrupted = run_supervised(database, config, processes=2)

    path = tmp_path / f"{tidset_backend}.ckpt"
    checkpointed = run_supervised(database, config, processes=2, checkpoint_path=path)
    assert_identical_results(checkpointed.results, uninterrupted.results)

    resumed = resume(database, config, path, processes=2)
    assert_identical_results(resumed.results, uninterrupted.results)
    assert resumed.stats.checkpoint_branches_skipped > 0
    assert resumed.stats.branches_dispatched == 0


def test_supervised_matches_serial_miner(tidset_backend):
    database = random_uncertain_database(random.Random(3), 10, items="abcd")
    config = MinerConfig(min_sup=2, tidset_backend=tidset_backend)
    supervised = run_supervised(database, config, processes=2)
    serial = mine_with_backend(database, tidset_backend, min_sup=2)
    assert_identical_results(supervised.results, serial)
