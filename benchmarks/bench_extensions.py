"""Benchmarks for the library extensions beyond the paper's core.

Covers the top-k miner (progressive threshold relaxation), the streaming
likely-frequent-item substrate, the attribute-level uncertainty miners, and
UF-growth vs U-Apriori — each with the qualitative property that motivates
it asserted alongside the timing.
"""

import math
import random

import pytest

from repro.core.config import MinerConfig
from repro.core.miner import MPFCIMiner
from repro.core.topk import mine_top_k_pfci
from repro.eval.experiments import default_config
from repro.uncertain.expected_support import mine_expected_support_itemsets
from repro.uncertain.item_model import (
    ItemUncertainDatabase,
    mine_probabilistic_frequent_item_model,
)
from repro.uncertain.stream import ProbabilisticItemStream
from repro.uncertain.ufgrowth import mine_expected_support_itemsets_ufgrowth

from .conftest import run_once


def test_top_k(benchmark, quest_db):
    min_sup = math.ceil(0.35 * len(quest_db))
    outcome = run_once(
        benchmark,
        lambda: mine_top_k_pfci(quest_db, min_sup=min_sup, k=10, start_pfct=0.9),
    )
    benchmark.extra_info["rounds"] = outcome.rounds
    assert len(outcome.results) == 10
    probabilities = [result.probability for result in outcome.results]
    assert probabilities == sorted(probabilities, reverse=True)


def test_top_k_matches_threshold_run(benchmark, quest_db):
    min_sup = math.ceil(0.35 * len(quest_db))

    def both():
        outcome = mine_top_k_pfci(quest_db, min_sup=min_sup, k=5, start_pfct=0.9)
        full = MPFCIMiner(
            quest_db, MinerConfig(min_sup=min_sup, pfct=outcome.threshold)
        ).mine()
        return outcome, full

    outcome, full = run_once(benchmark, both)
    strongest = sorted(full, key=lambda r: (-r.probability, len(r.itemset), r.itemset))
    assert [r.itemset for r in outcome.results] == [
        r.itemset for r in strongest[:5]
    ]


def test_stream_exact(benchmark):
    rng = random.Random(11)
    stream = ProbabilisticItemStream(window=5000)
    for _ in range(8000):
        stream.append(rng.randint(0, 80), round(rng.uniform(0.05, 1.0), 3))
    results = run_once(
        benchmark, lambda: stream.likely_frequent_items(min_sup=40, pft=0.8)
    )
    benchmark.extra_info["results"] = len(results)
    assert all(probability > 0.8 for _item, probability in results)


def test_stream_sampled(benchmark):
    rng = random.Random(11)
    stream = ProbabilisticItemStream(window=2000)
    for _ in range(3000):
        stream.append(rng.randint(0, 40), round(rng.uniform(0.05, 1.0), 3))
    exact = {item for item, _p in stream.likely_frequent_items(25, 0.8)}
    results = run_once(
        benchmark,
        lambda: stream.likely_frequent_items_sampled(
            25, 0.8, epsilon=0.05, delta=0.05, rng=random.Random(0)
        ),
    )
    sampled = {item for item, _p in results}
    # Borderline flips allowed; gross disagreement is a bug.
    assert len(exact ^ sampled) <= max(2, len(exact) // 5)


def test_item_model_mining(benchmark):
    rng = random.Random(4)
    rows = []
    for index in range(150):
        items = {
            f"i{j}": round(rng.uniform(0.3, 1.0), 2)
            for j in rng.sample(range(12), rng.randint(2, 6))
        }
        rows.append((f"T{index}", items))
    database = ItemUncertainDatabase.from_rows(rows)
    results = run_once(
        benchmark,
        lambda: mine_probabilistic_frequent_item_model(database, 20, 0.6),
    )
    benchmark.extra_info["results"] = len(results)


@pytest.mark.parametrize(
    "miner",
    [mine_expected_support_itemsets, mine_expected_support_itemsets_ufgrowth],
    ids=["u-apriori", "uf-growth"],
)
def test_expected_support_miners(benchmark, quest_db, miner):
    min_esup = 0.3 * len(quest_db)
    results = run_once(benchmark, lambda: miner(quest_db, min_esup))
    benchmark.extra_info["results"] = len(results)
    assert results


def test_parallel_mining(benchmark, quest_db):
    from repro import mine_pfci_parallel

    config = default_config(quest_db, 0.25).variant(exact_event_limit=64)
    results = run_once(
        benchmark, lambda: mine_pfci_parallel(quest_db, config, processes=4)
    )
    benchmark.extra_info["results"] = len(results)
    # Same answer as the serial miner on the exact path.
    serial = MPFCIMiner(quest_db, config).mine()
    assert [r.itemset for r in results] == [r.itemset for r in serial]
