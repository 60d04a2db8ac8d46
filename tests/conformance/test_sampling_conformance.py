"""Sampled results do not depend on how the work is split.

Every undecided closedness check here samples (no Lemma 4.4 bounds, no
exact inclusion–exclusion), and each check draws from a stream seeded by
``(config.seed, itemset)`` alone.  So the supervised pool, sharded runs, an
interrupted-then-resumed checkpointed run, MPFCI-BFS, Naive and the
streaming monitor must report the serial miner's sampled values, field for
field, on every registered tidset backend — and so must a run in another
process under another ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import functools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.bfs import MPFCIBreadthFirstMiner
from repro.core.config import MinerConfig
from repro.core.miner import MPFCIMiner
from repro.core.naive import NaiveMiner
from repro.runtime import (
    BranchFailedError,
    BranchFault,
    FaultPlan,
    SupervisorConfig,
    load_checkpoint,
    mine_pfci_sharded,
    resume,
    run_supervised,
)
from repro.runtime.supervisor import plan_root_branches
from repro.streaming import PFCIMonitor
from tests.strategies import random_uncertain_database

from .checks import assert_identical_results

REPO_ROOT = Path(__file__).resolve().parents[2]

# epsilon 0.5 keeps the tuple backend's row-by-row sampler quick; the
# estimates still move with the stream, which is what is under test.
SAMPLING = dict(
    min_sup=20, pfct=0.5, epsilon=0.5,
    use_probability_bounds=False, exact_event_limit=0,
)


def sampling_database():
    return random_uncertain_database(random.Random(1234), rows=150, items="abcdefg")


def sampling_config(backend: str, **overrides) -> MinerConfig:
    return MinerConfig(tidset_backend=backend, **{**SAMPLING, **overrides})


@functools.lru_cache(maxsize=None)
def serial_results(backend: str):
    results = MPFCIMiner(sampling_database(), sampling_config(backend)).mine()
    assert sum(result.method == "sampled" for result in results) > 10
    return results


def test_supervised_matches_serial(tidset_backend):
    report = run_supervised(
        sampling_database(), sampling_config(tidset_backend), processes=2
    )
    assert_identical_results(report.results, serial_results(tidset_backend))


@pytest.mark.parametrize("num_shards", [2, 3])
def test_sharded_matches_serial(tidset_backend, num_shards):
    sharded = mine_pfci_sharded(
        sampling_database(), sampling_config(tidset_backend), num_shards, processes=2
    )
    assert_identical_results(sharded, serial_results(tidset_backend))


def test_interrupted_checkpoint_resumes_to_serial(tidset_backend, tmp_path):
    database, config = sampling_database(), sampling_config(tidset_backend)
    path = tmp_path / "run.ckpt"
    branches = len(plan_root_branches(database, config)[0])
    with pytest.raises(BranchFailedError):
        run_supervised(
            database, config, processes=2, checkpoint_path=path,
            supervisor=SupervisorConfig(max_retries=0, fail_fast=True),
            fault_plan=FaultPlan({branches - 1: BranchFault("raise", attempts=99)}),
        )
    assert 0 < len(load_checkpoint(path).branches) < branches
    resumed = resume(database, config, path, processes=2)
    assert resumed.stats.checkpoint_branches_skipped > 0
    assert_identical_results(resumed.results, serial_results(tidset_backend))


def test_bfs_matches_serial(tidset_backend):
    bfs = MPFCIBreadthFirstMiner(sampling_database(), sampling_config(tidset_backend))
    assert_identical_results(bfs.mine(), serial_results(tidset_backend))


def test_naive_probabilities_match_serial(tidset_backend):
    naive = {
        result.itemset: result.probability
        for result in NaiveMiner(
            sampling_database(), sampling_config(tidset_backend)
        ).mine()
    }
    shared = [r for r in serial_results(tidset_backend) if r.itemset in naive]
    assert shared
    for result in shared:
        assert naive[result.itemset] == result.probability, result.itemset


def test_monitor_matches_scratch_after_every_slide(tidset_backend):
    config = sampling_config(tidset_backend, min_sup=4, pfct=0.4)
    rng = random.Random(2012)
    monitor = PFCIMonitor(config, window=25)
    sampled = 0
    for number in range(60):
        items = tuple(sorted(rng.sample("abcdefgh", rng.randint(1, 5))))
        monitor.append(f"T{number}", items, round(rng.uniform(0.05, 1.0), 3))
        scratch = MPFCIMiner(monitor.window.snapshot(), config).mine()
        assert_identical_results(monitor.results(), scratch)
        sampled += sum(result.method == "sampled" for result in scratch)
    assert sampled > 0


_SUBPROCESS_MINE = """
import json, random
from repro.core.config import MinerConfig
from repro.core.miner import MPFCIMiner
from tests.strategies import random_uncertain_database
database = random_uncertain_database(random.Random(1234), rows=150, items="abcdefg")
config = MinerConfig(**json.loads(%r))
print(json.dumps([r.to_dict() for r in MPFCIMiner(database, config).mine()]))
"""


def test_results_do_not_depend_on_the_hash_seed():
    script = _SUBPROCESS_MINE % json.dumps(SAMPLING)
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=hash_seed,
            PYTHONPATH=os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)]),
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=120,
            check=True,
        )
        outputs.append(json.loads(completed.stdout))
    assert outputs[0] == outputs[1]
    assert outputs[0] == [r.to_dict() for r in serial_results("bitmap")]
