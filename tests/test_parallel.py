"""Tests for parallel branch mining."""

import multiprocessing
import random

import pytest

from repro import mine_pfci_parallel
from repro.core.config import MinerConfig
from repro.core.database import UncertainDatabase
from repro.core.miner import MPFCIMiner
from repro.runtime import BranchFailedError


class TestParallelMining:
    def test_paper_example(self, paper_db):
        config = MinerConfig(min_sup=2, pfct=0.8)
        results = mine_pfci_parallel(paper_db, config, processes=2)
        by_itemset = {r.itemset: r.probability for r in results}
        assert set(by_itemset) == {("a", "b", "c"), ("a", "b", "c", "d")}
        assert by_itemset[("a", "b", "c")] == pytest.approx(0.8754)

    @pytest.mark.parametrize("seed", range(4))
    def test_identical_to_serial_on_exact_path(self, seed):
        rng = random.Random(seed)
        rows = []
        for index in range(10):
            size = rng.randint(1, 5)
            rows.append(
                (f"T{index}", tuple(rng.sample("abcde", size)),
                 round(rng.uniform(0.1, 0.99), 3))
            )
        db = UncertainDatabase.from_rows(rows)
        config = MinerConfig(min_sup=2, pfct=0.4, exact_event_limit=64)
        serial = [
            (r.itemset, round(r.probability, 12))
            for r in MPFCIMiner(db, config).mine()
        ]
        parallel = [
            (r.itemset, round(r.probability, 12))
            for r in mine_pfci_parallel(db, config, processes=2)
        ]
        assert serial == parallel

    def test_empty_candidate_set(self):
        db = UncertainDatabase.from_rows([("T1", "a", 0.1)])
        config = MinerConfig(min_sup=1, pfct=0.9)
        assert mine_pfci_parallel(db, config, processes=2) == []

    def test_single_process_works(self, paper_db):
        config = MinerConfig(min_sup=2, pfct=0.8)
        results = mine_pfci_parallel(paper_db, config, processes=1)
        assert len(results) == 2

    def test_deterministic_across_runs(self, paper_db):
        config = MinerConfig(min_sup=2, pfct=0.8, exact_event_limit=0)
        first = [(r.itemset, r.probability)
                 for r in mine_pfci_parallel(paper_db, config, processes=2)]
        second = [(r.itemset, r.probability)
                  for r in mine_pfci_parallel(paper_db, config, processes=2)]
        assert first == second

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool workers must inherit the monkeypatched miner",
    )
    def test_branch_failing_every_recovery_step_raises(self, paper_db, monkeypatch):
        def fail(self, item, extensions):
            raise RuntimeError(f"branch {item!r} cannot be mined")

        monkeypatch.setattr(MPFCIMiner, "mine_branch", fail)
        config = MinerConfig(min_sup=2, pfct=0.8)
        with pytest.raises(BranchFailedError) as excinfo:
            mine_pfci_parallel(paper_db, config, processes=2)
        assert isinstance(excinfo.value.__cause__, RuntimeError)
