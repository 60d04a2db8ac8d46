"""The six workloads: how each input is generated, called and checked.

Every input is built from the in-repo generators and saved as ``.utdz``;
the program under test only ever sees those files.  The certain rows of
each workload are fixed (a stand-in for a real dataset such as UCI
Mushroom), and ``--seed`` draws the uncertainty: the Gaussian existence
probabilities are drawn once, as ``repro.eval.datasets`` does, and seed
``S > 0`` assigns them to the rows in an order shuffled by ``S``.  Seed 0
is the unshuffled draw, so it reproduces ``eval.datasets``.  Shuffling
keeps the set of probabilities fixed, which keeps the amount of mining work
nearly the same from seed to seed; redrawing them moved the count of
closedness checks by up to a factor of two between seeds.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import MinerConfig
from repro.core.database import UncertainDatabase
from repro.core.miner import MPFCIMiner, ProbabilisticFrequentClosedItemset
from repro.core.stats import MiningStats
from repro.core.verify import verify_results
from repro.data.clickstream import generate_clickstream
from repro.data.columnar import load_columnar, save_columnar, save_shards
from repro.data.gaussian import gaussian_probabilities
from repro.data.mushroom import generate_mushroom_like
from repro.eval.datasets import MAX_PROBABILITY
from repro.runtime import ShardSet, run_sharded
from repro.runtime.checkpoint import deserialize_result, serialize_result

DATABASE_FILE = "db.utdz"
SHARD_MANIFEST = "shards/shard.shards.json"
REFERENCE_FILE = "reference.json"

# Pools use at most as many processes as the 2-CPU host the bounds were
# measured on has CPUs.
PROCESSES = 2


@dataclass(frozen=True)
class Workload:
    """One benchmark input and the entry point that consumes it.

    ``kind`` is ``"library"`` (a timed call in a fresh subprocess) or
    ``"service"`` (HTTP jobs against a ``python -m repro.service``
    subprocess; ``resubmit`` times resubmissions answered from the result
    cache instead of fresh jobs).  ``oracle`` names the check in
    :func:`check_results`.
    """

    name: str
    kind: str
    source: str
    rows: int
    ratio: float
    pfct: float
    oracle: str
    mean: float = 0.5
    variance: float = 0.5
    probability_seed: int = 1
    shards: int = 0
    resubmit: bool = False
    overrides: Dict[str, Any] = field(default_factory=dict)

    def config(self, size: int) -> MinerConfig:
        return MinerConfig.with_relative_min_sup(
            size, self.ratio, pfct=self.pfct, exact_event_limit=0, **self.overrides,
        )

    def digest(self) -> str:
        """Identity of the generated input, so a changed definition never
        reuses a stale cached input."""
        text = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:12]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        # Table VIII Mushroom at the paper's size: the batched support DP
        # does nearly all the work.
        Workload("mushroom-paper", "library", "mushroom", 8124, 0.3, 0.8, "tuple"),
        # Sparse, 157 words wide: tidset algebra is a large share.
        Workload(
            "clickstream-sparse", "library", "clickstream", 10000, 0.01, 0.5, "tuple",
            mean=0.8, variance=0.1, probability_seed=2,
        ),
        # MPFCI-NoBound: every check goes through Karp-Luby sampling.
        Workload(
            "mushroom-sampling", "library", "mushroom", 800, 0.3, 0.8, "verify",
            overrides={"use_probability_bounds": False},
        ),
        # Shard scan, merge self-check, supervisor pool and checkpoint
        # fsyncs together.
        Workload("mushroom-sharded", "library", "mushroom", 2000, 0.3, 0.8, "serial", shards=4),
        # Small jobs, each path on its own so that each is gated directly:
        # a fresh job writes (HTTP, JSON, materialization, pool start,
        # checkpoint and result fsyncs, cache put), a resubmission only
        # reads the result cache.
        Workload("service-fresh", "service", "mushroom", 400, 0.3, 0.8, "serial"),
        Workload("service-cached", "service", "mushroom", 400, 0.3, 0.8, "serial", resubmit=True),
    )
}


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def _certain_rows(workload: Workload) -> List[Tuple[str, ...]]:
    if workload.source == "mushroom":
        return generate_mushroom_like(num_rows=workload.rows, seed=8124)
    return generate_clickstream(num_sessions=workload.rows, num_items=400)


def build_database(workload: Workload, seed: int) -> UncertainDatabase:
    rows = _certain_rows(workload)
    probabilities = gaussian_probabilities(
        len(rows), workload.mean, workload.variance,
        random.Random(workload.probability_seed), max_probability=MAX_PROBABILITY,
    )
    if seed:
        random.Random(seed).shuffle(probabilities)
    return UncertainDatabase.from_itemsets(rows, probabilities)


def ensure_inputs(workload: Workload, seed: int, root: Path) -> Path:
    """The workload's input directory for ``seed``, generated on first use.

    Inputs are cached by (workload definition, seed); generation writes to
    a temporary directory that is renamed into place when complete.
    """
    directory = root / "inputs" / f"{workload.name}-{workload.digest()}-seed{seed}"
    if (directory / DATABASE_FILE).is_file():
        return directory
    staging = directory.with_name(directory.name + ".tmp")
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    save_columnar(build_database(workload, seed), staging / DATABASE_FILE)
    if workload.shards:
        save_shards(
            load_columnar(staging / DATABASE_FILE), staging / "shards", workload.shards,
        )
    shutil.rmtree(directory, ignore_errors=True)
    staging.rename(directory)
    return directory


def input_files(workload: Workload, directory: Path) -> List[Path]:
    """The ``.utdz`` files the program itself opens for this workload."""
    if workload.shards:
        return sorted((directory / "shards").glob("*.utdz"))
    return [directory / DATABASE_FILE]


# ----------------------------------------------------------------------
# entry points (run inside the workload subprocess)
# ----------------------------------------------------------------------
class MineEntry:
    """``MPFCIMiner(db, cfg).mine()`` on a memmapped ``.utdz``."""

    def __init__(self, workload: Workload, directory: Path, work: Path) -> None:
        self.database = load_columnar(directory / DATABASE_FILE)
        self.config = workload.config(len(self.database))
        # Building the first miner builds the packed tidset engine, which is
        # cached on the database: that is set-up, not per-call work.
        MPFCIMiner(self.database, self.config)

    def run(self) -> Tuple[List[ProbabilisticFrequentClosedItemset], MiningStats]:
        miner = MPFCIMiner(self.database, self.config)
        return miner.mine(), miner.stats

    def cleanup(self) -> Dict[str, int]:
        return {}


class ShardedEntry:
    """``run_sharded`` over the shard manifest, with a fresh checkpoint per call."""

    def __init__(self, workload: Workload, directory: Path, work: Path) -> None:
        self.shards = ShardSet.from_manifest(directory / SHARD_MANIFEST)
        self.config = workload.config(self.shards.total_transactions)
        self.work = work
        self.calls = 0
        self.checkpoint: Optional[Path] = None

    def run(self) -> Tuple[List[ProbabilisticFrequentClosedItemset], MiningStats]:
        self.calls += 1
        self.checkpoint = self.work / f"checkpoint-{self.calls}.jsonl"
        report = run_sharded(
            self.shards, self.config, processes=PROCESSES, checkpoint_path=self.checkpoint,
        )
        if not report.complete or report.lost_shards:
            raise RuntimeError(f"sharded run incomplete: lost {sorted(report.lost_shards)}")
        return report.results, report.stats

    def cleanup(self) -> Dict[str, int]:
        assert self.checkpoint is not None
        size = self.checkpoint.stat().st_size
        self.checkpoint.unlink()
        return {"checkpoint_bytes": size}


def open_entry(workload: Workload, directory: Path, work: Path) -> Any:
    entry_class = ShardedEntry if workload.shards else MineEntry
    return entry_class(workload, directory, work)


# ----------------------------------------------------------------------
# oracles (run in the benchmark process, untimed)
# ----------------------------------------------------------------------
def canonical(results: Sequence[ProbabilisticFrequentClosedItemset]) -> List[Dict[str, Any]]:
    return [serialize_result(result) for result in results]


def canonical_text(payload: Sequence[Dict[str, Any]]) -> str:
    return json.dumps(list(payload), sort_keys=True, separators=(",", ":"))


def _reference(workload: Workload, directory: Path) -> List[Dict[str, Any]]:
    """The oracle's own result set, cached beside the input it was mined from."""
    path = directory / REFERENCE_FILE
    if path.is_file():
        return json.loads(path.read_text(encoding="utf-8"))
    database = load_columnar(directory / DATABASE_FILE)
    config = workload.config(len(database))
    if workload.oracle == "tuple":
        config = config.variant(tidset_backend="tuple")
    elif workload.oracle == "verify":
        # Bounds on, and every undecided check by exact inclusion-exclusion.
        config = config.variant(
            use_probability_bounds=True, exact_event_limit=MinerConfig.exact_event_limit,
        )
    reference = canonical(MPFCIMiner(database, config).mine())
    temp = path.with_suffix(".tmp")
    temp.write_text(canonical_text(reference), encoding="utf-8")
    temp.replace(path)
    return reference


def check_results(
    workload: Workload, directory: Path, results: Sequence[Dict[str, Any]]
) -> List[str]:
    """Problems found in ``results`` (serialized), empty when correct."""
    reference = _reference(workload, directory)
    if workload.oracle in ("tuple", "serial"):
        problems = []
        if workload.oracle == "serial" and any(r["method"] == "sampled" for r in reference):
            problems.append("serial reference holds sampled results; the seed would matter")
        if canonical_text(results) != canonical_text(reference):
            problems.append(
                f"{len(results)} results differ from the {len(reference)}-result "
                f"{workload.oracle} reference"
            )
        return problems
    return _check_sampled(workload, directory, results, reference)


def _check_sampled(
    workload: Workload,
    directory: Path,
    results: Sequence[Dict[str, Any]],
    reference: Sequence[Dict[str, Any]],
) -> List[str]:
    """Karp-Luby output against the exact, bounds-on result of the same input."""
    database = load_columnar(directory / DATABASE_FILE)
    config = workload.config(len(database))
    problems = []
    if any(r["method"] == "sampled" for r in reference):
        problems.append("exact reference holds sampled results")
    report = verify_results(
        database, [deserialize_result(r) for r in results], config.min_sup, config.pfct,
    )
    if not report.all_sound:
        problems.append(report.summary())
    found = {tuple(r["itemset"]) for r in results}
    missing = [deserialize_result(r) for r in reference if tuple(r["itemset"]) not in found]
    for entry in verify_results(database, missing, config.min_sup).entries:
        if abs(entry.exact_probability - config.pfct) > config.epsilon:
            problems.append(
                f"{entry.result.itemset} missing though Pr_FC={entry.exact_probability:.4f} "
                f"is not within epsilon of pfct"
            )
    return problems


def result_sha256(results: Sequence[Dict[str, Any]]) -> str:
    return hashlib.sha256(canonical_text(results).encode()).hexdigest()
