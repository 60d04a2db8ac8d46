"""Tests for the MPFCI-BFS framework and the Naive baseline."""

import random

import pytest

from repro.core.bfs import MPFCIBreadthFirstMiner
from repro.core.config import MinerConfig
from repro.core.database import (
    UncertainDatabase,
    paper_table2_database,
    paper_table4_database,
)
from repro.core.miner import MPFCIMiner
from repro.core.naive import NaiveMiner
from repro.core.closedness import frequent_closed_probability_exact
from repro.core.possible_worlds import exact_frequent_closed_itemsets
from repro.registry import DEGRADATION_POLICIES

# Every registered policy, plus the default policy with no exact budget.
DEGRADATION_SETUPS = {
    **{name: {"degradation_policy": name} for name in DEGRADATION_POLICIES.names()},
    "budget-0": {"exact_check_budget": 0},
}


def random_database(rng, max_n=8, max_m=5):
    n = rng.randint(1, max_n)
    m = rng.randint(1, max_m)
    items = "abcde"[:m]
    rows = []
    for index in range(n):
        size = rng.randint(1, m)
        rows.append(
            (f"T{index}", tuple(rng.sample(items, size)), round(rng.uniform(0.05, 1.0), 3))
        )
    return UncertainDatabase.from_rows(rows)


class TestBreadthFirstMiner:
    def test_paper_example(self, paper_db):
        results = MPFCIBreadthFirstMiner(
            paper_db, MinerConfig(min_sup=2, pfct=0.8)
        ).mine()
        by_itemset = {result.itemset: result.probability for result in results}
        assert set(by_itemset) == {("a", "b", "c"), ("a", "b", "c", "d")}
        assert by_itemset[("a", "b", "c")] == pytest.approx(0.8754)

    def test_structural_prunings_are_forced_off(self, paper_db):
        config = MinerConfig(min_sup=2, pfct=0.8)  # prunings on
        miner = MPFCIBreadthFirstMiner(paper_db, config)
        assert not miner.config.use_superset_pruning
        assert not miner.config.use_subset_pruning
        miner.mine()
        assert miner.stats.pruned_by_superset == 0
        assert miner.stats.pruned_by_subset == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dfs_and_oracle(self, seed):
        rng = random.Random(seed)
        db = random_database(rng)
        min_sup = rng.randint(1, len(db))
        pfct = rng.choice([0.3, 0.6, 0.8])
        config = MinerConfig(min_sup=min_sup, pfct=pfct, exact_event_limit=32)
        dfs = {r.itemset for r in MPFCIMiner(db, config).mine()}
        bfs = {r.itemset for r in MPFCIBreadthFirstMiner(db, config).mine()}
        truth = set(exact_frequent_closed_itemsets(db, min_sup, pfct))
        assert dfs == bfs == truth

    def test_visits_at_least_as_many_nodes_as_dfs(self):
        """BFS cannot use Lemma 4.2/4.3, so it enumerates >= nodes."""
        rng = random.Random(4)
        db = random_database(rng, max_n=8, max_m=5)
        config = MinerConfig(min_sup=2, pfct=0.5, exact_event_limit=32)
        dfs = MPFCIMiner(db, config)
        dfs.mine()
        bfs = MPFCIBreadthFirstMiner(db, config)
        bfs.mine()
        assert bfs.stats.nodes_visited >= dfs.stats.nodes_visited

    @pytest.mark.parametrize("overrides", DEGRADATION_SETUPS.values(),
                             ids=DEGRADATION_SETUPS.keys())
    @pytest.mark.parametrize("use_bounds", [True, False])
    @pytest.mark.parametrize("database_factory",
                             [paper_table2_database, paper_table4_database])
    def test_checks_and_degrades_like_dfs(self, database_factory, use_bounds, overrides):
        database = database_factory()
        config = MinerConfig(
            min_sup=2, pfct=0.5, use_probability_bounds=use_bounds, **overrides
        )
        dfs = MPFCIMiner(database, config)
        bfs = MPFCIBreadthFirstMiner(database, config)

        def labels(results):
            return [(r.itemset, r.method, r.provenance) for r in results]

        assert labels(bfs.mine()) == labels(dfs.mine())
        assert bfs.stats.degraded_checks == dfs.stats.degraded_checks


class TestNaiveMiner:
    @pytest.mark.parametrize("use_topdown", [True, False])
    def test_paper_example(self, paper_db, use_topdown):
        results = NaiveMiner(
            paper_db,
            MinerConfig(min_sup=2, pfct=0.8, epsilon=0.05, delta=0.05),
            use_topdown_pfi=use_topdown,
        ).mine()
        assert {result.itemset for result in results} == {
            ("a", "b", "c"),
            ("a", "b", "c", "d"),
        }

    def test_checks_every_probabilistic_frequent_itemset(self, paper_db):
        """The inefficiency the paper measures: one ApproxFCP per PFI."""
        miner = NaiveMiner(paper_db, MinerConfig(min_sup=2, pfct=0.8))
        miner.mine()
        assert miner.stats.candidates_generated == 15  # the paper's 15 PFIs
        assert miner.stats.fcp_sampled_evaluations == 15

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_oracle_modulo_borderline(self, seed):
        rng = random.Random(seed)
        db = random_database(rng)
        min_sup = rng.randint(1, len(db))
        truth = exact_frequent_closed_itemsets(db, min_sup, 0.5)
        results = NaiveMiner(
            db, MinerConfig(min_sup=min_sup, pfct=0.5, epsilon=0.03, delta=0.03)
        ).mine()
        got = {result.itemset for result in results}
        for itemset in got ^ set(truth):
            # Any disagreement must be a borderline call of the sampler.
            exact = frequent_closed_probability_exact(db, itemset, min_sup)
            assert abs(exact - 0.5) < 0.05

    @pytest.mark.parametrize("database_factory",
                             [paper_table2_database, paper_table4_database])
    def test_runs_on_the_configured_tidset_backend(self, database_factory):
        database = database_factory()
        oracle_before = database.tidset_engine("tuple").counters()
        results = {}
        for backend in ("bitmap", "tuple"):
            config = MinerConfig(min_sup=2, pfct=0.5, tidset_backend=backend)
            results[backend] = [r.to_dict() for r in NaiveMiner(database, config).mine()]
            if backend == "bitmap":
                assert database.tidset_engine("tuple").counters() == oracle_before
        assert results["bitmap"] == results["tuple"]

    def test_reports_dp_and_engine_counters(self, paper_db):
        miner = NaiveMiner(paper_db, MinerConfig(min_sup=2, pfct=0.8))
        miner.mine()
        assert miner.stats.dp_requests > 0
        assert miner.stats.tidset_intersections > 0

    @pytest.mark.parametrize(
        "use_topdown, module, function",
        [
            (True, "repro.uncertain.todis", "mine_probabilistic_frequent_itemsets_topdown"),
            (False, "repro.uncertain.pfim", "mine_probabilistic_frequent_itemsets"),
        ],
    )
    def test_pfi_phase_runs_on_the_run_cache_and_engine(
        self, monkeypatch, use_topdown, module, function
    ):
        """The PFI phase's DP requests and tidset work are the run's: they
        go through the run's cache and the configured bitmap engine."""
        import importlib

        pfi_module = importlib.import_module(module)
        database = paper_table2_database()
        engine = database.tidset_engine("bitmap")
        real = getattr(pfi_module, function)
        phase = {}

        def spy(*args, **kwargs):
            before = engine.counters()["tidset_intersections"]
            result = real(*args, **kwargs)
            cache = kwargs.get("support_cache")
            phase["requests"] = cache.requests if cache is not None else 0
            phase["intersections"] = engine.counters()["tidset_intersections"] - before
            return result

        monkeypatch.setattr(pfi_module, function, spy)
        miner = NaiveMiner(
            database, MinerConfig(min_sup=2, pfct=0.5), use_topdown_pfi=use_topdown
        )
        miner.mine()
        assert phase["requests"] > 0
        assert miner.stats.dp_requests >= phase["requests"]
        assert phase["intersections"] > 0
        assert miner.stats.tidset_intersections >= phase["intersections"]

    def test_work_scales_with_pfi_count(self, paper_db):
        """MPFCI evaluates far fewer itemsets than Naive on the same input."""
        config = MinerConfig(min_sup=2, pfct=0.8)
        naive = NaiveMiner(paper_db, config)
        naive.mine()
        mpfci = MPFCIMiner(paper_db, config)
        mpfci.mine()
        assert mpfci.stats.fcp_evaluations < naive.stats.fcp_evaluations
