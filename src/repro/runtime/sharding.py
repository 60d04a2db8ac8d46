"""Shard-partitioned supervised mining with failure domains and loss policies.

The uncertain database is split into contiguous row-range shards (see
:func:`repro.data.columnar.save_shards` — a ``.utdz`` shard of a columnar
database is a pure word-column slice of the packed matrix).  Mining then
runs in three phases:

1. **scan** (the failure-domain phase) — each shard is scanned by a
   supervised worker process that extracts, for every item the shard
   contains, the probabilities of the shard's transactions holding it (in
   row order) plus the shard's capped support PMF per item
   (:func:`repro.core.support.capped_support_pmf`).  Shards are first-class
   failure domains: the scans run on the recovery ladder that also runs
   mining branches (:class:`~repro.runtime.supervisor.RecoveryLadder`) —
   per-shard timeouts, bounded retries with backoff, pool rebuilds after a
   hang or hard crash, and an inline last resort — under the same
   :class:`~repro.runtime.supervisor.SupervisorConfig` knobs
   (``branch_timeout_seconds`` doubles as the per-shard scan timeout) but
   with their own ``shard_*`` counters.  A shard that exhausts every
   recovery path goes to the registry-resolved **shard-loss policy**
   (:data:`repro.registry.SHARD_LOSS_POLICIES`):

   * ``"fail-strict"`` (default) — abort the run with
     :class:`ShardLossError`; nothing partial is ever reported as global;
   * ``"degrade-bounds"`` — declare the shard lost, durably record the
     loss, and continue on the surviving shards.

2. **merge** — the per-shard scans are merged into the *global* candidate
   screen.  ``math.fsum`` over the concatenated probability vector is
   exactly rounded regardless of the shard partition, the
   Chernoff–Hoeffding filter is a pure function of that sum, and the exact
   ``Pr_F`` filter runs the same capped DP
   (:func:`repro.core.support.frequent_probability`) over the same
   position-ordered vector the unsharded planner would build — so the
   candidate list, branch split, and ranks are byte-for-byte the unsharded
   planner's.  On every merge the per-shard support DPs are also composed
   with :func:`repro.core.support.pmf_tail_convolve` (the convolution of
   capped PMFs over disjoint transaction sets) and cross-checked against
   the direct DP, so a merge that disagrees with the monolithic computation
   fails loudly (:class:`ShardMergeError`) instead of shipping silently
   wrong support numbers.  The check has no off switch; its measured cost
   is in ``docs/performance.md``.

3. **mine** — the surviving shards' rows are concatenated back into one
   database (bit-identical to the original when nothing was lost) and the
   precomputed plan is handed to :func:`~repro.runtime.supervisor.run_supervised`,
   which owns branch-level supervision, checkpointing, and resume exactly
   as for unsharded runs.

Checkpointing uses one JSONL file for all three phases: the header carries
a *sharded* fingerprint (per-shard digests + config + loss policy, so a
sharded checkpoint can never be resumed unsharded or under a different
policy — and is computable even when a shard's file has since vanished),
``shard-scan`` records make finished scans durable, ``shard-lost`` records
make losses durable, and the usual ``branch`` records follow.  ``kill -9``
at any point — mid-scan, mid-merge, mid-mining — resumes by replaying the
durable records and re-running only the missing work, bit-identically.

Degraded results (any shard lost under ``"degrade-bounds"``) are the exact
mining output of the *surviving* database, re-tagged
``provenance="shard-degraded"`` and annotated with certified global bounds:
``frequency_bounds`` brackets the true ``Pr_F`` (the lost shards can only
add support, so the surviving value is a lower bound; the upper bound
re-runs the support DP with the threshold relaxed by the lost transaction
count; both ends are widened by the DPs' rounding bound, so they also
bracket the computed full-database value) and ``support_bounds`` brackets
the true expected support (each lost transaction contributes at most 1).
See ``docs/robustness.md``.
"""

from __future__ import annotations

import hashlib
import logging
import math
import sys
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.bounds import chernoff_hoeffding_frequency_bound
from ..core.config import MinerConfig
from ..core.database import UncertainDatabase
from ..core.itemsets import Item, canonical
from ..core.miner import ProbabilisticFrequentClosedItemset
from ..core.stats import MiningStats
from ..core.support import capped_support_pmf, frequent_probability, pmf_tail_convolve
from ..registry import SHARD_LOSS_POLICIES
from .checkpoint import (
    FORMAT_VERSION,
    CheckpointError,
    CheckpointWriter,
    database_sha256,
    open_checkpoint,
)
from .faults import FaultPlan
from .supervisor import (
    RecoveryLadder,
    SupervisorConfig,
    SupervisorReport,
    plan_root_branches,
    run_supervised,
)

__all__ = [
    "ShardIntegrityError",
    "ShardLossError",
    "ShardMergeError",
    "ShardOutcome",
    "ShardScan",
    "ShardSet",
    "ShardSpec",
    "ShardedReport",
    "degrade_bounds_policy",
    "fail_strict_policy",
    "mine_pfci_sharded",
    "run_sharded",
    "sharded_fingerprint",
]

logger = logging.getLogger(__name__)

PathLike = Union[str, Path]

#: Agreement tolerance between the convolution merge of per-shard support DPs
#: and the direct DP over the concatenated vector.  The two differ only in
#: float summation order; disagreement beyond accumulated rounding means a
#: corrupted shard or a broken merge.
MERGE_VERIFY_TOLERANCE = 1e-9


class ShardLossError(RuntimeError):
    """A shard exhausted every recovery path under a ``"fail"`` loss policy."""


class ShardMergeError(RuntimeError):
    """The convolution merge of per-shard support DPs disagrees with the direct DP."""


class ShardIntegrityError(RuntimeError):
    """A shard's content hash does not match the digest recorded at split time."""


# ----------------------------------------------------------------------
# shard-loss policies (registry built-ins)
# ----------------------------------------------------------------------
ShardLossPolicy = Callable[[int, str, int, int], str]


def fail_strict_policy(shard: int, reason: str, surviving: int, lost: int) -> str:
    """Default policy: any unrecoverable shard aborts the whole run.

    Partial data never silently stands in for the full database — the run
    raises :class:`ShardLossError` and its checkpoint stays resumable once
    the shard is back.
    """
    return "fail"


def degrade_bounds_policy(shard: int, reason: str, surviving: int, lost: int) -> str:
    """Continue on the surviving shards, reporting certified bounds.

    Results are re-tagged ``provenance="shard-degraded"`` with
    ``frequency_bounds``/``support_bounds`` covering what the lost shards
    could have contributed.  Losing *every* shard still fails — there is
    nothing left to bound from.
    """
    return "degrade" if surviving > 0 else "fail"


SHARD_LOSS_POLICIES.register(
    "fail-strict", fail_strict_policy, deprecated_aliases=("default",)
)
SHARD_LOSS_POLICIES.register("degrade-bounds", degrade_bounds_policy)


# ----------------------------------------------------------------------
# shard descriptions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardSpec:
    """One shard's identity: row range, content digest, and data source.

    Exactly one of ``path`` (a ``.utdz`` file) and ``database`` (an
    in-memory slice) is set.  ``sha256`` is the shard's
    :func:`~repro.runtime.checkpoint.database_sha256`, recorded at split
    time so checkpoint identity survives the loss of the file itself and
    so a corrupted file is detected at scan time.
    """

    index: int
    start: int
    stop: int
    transactions: int
    sha256: str
    path: Optional[Path] = None
    database: Optional[UncertainDatabase] = None

    @property
    def source(self) -> Union[str, UncertainDatabase]:
        """Picklable handle a scan worker loads the shard from."""
        if self.database is not None:
            return self.database
        assert self.path is not None
        return str(self.path)


@dataclass(frozen=True)
class ShardSet:
    """An ordered, contiguous partition of one database into shards."""

    specs: Tuple[ShardSpec, ...]

    def __post_init__(self) -> None:
        expected_start = 0
        for position, spec in enumerate(self.specs):
            if spec.index != position or spec.start != expected_start:
                raise ValueError(
                    f"shard {spec.index} out of order or non-contiguous "
                    f"(expected index {position} starting at {expected_start})"
                )
            expected_start = spec.stop
        if not self.specs:
            raise ValueError("a shard set needs at least one shard")

    @property
    def total_transactions(self) -> int:
        return self.specs[-1].stop

    @classmethod
    def from_manifest(cls, path: PathLike) -> "ShardSet":
        """Build from a ``.shards.json`` manifest written by ``save_shards``.

        Missing shard *files* are not an error here — whether a missing
        shard fails the run or degrades it is the loss policy's decision,
        made when the scan actually needs the file.
        """
        from ..data.columnar import load_shard_manifest

        manifest = load_shard_manifest(path)
        specs = tuple(
            ShardSpec(
                index=entry["index"],
                start=entry["start"],
                stop=entry["stop"],
                transactions=entry["transactions"],
                sha256=entry["sha256"],
                path=Path(entry["path"]),
            )
            for entry in manifest["shards"]
        )
        return cls(specs)

    @classmethod
    def from_database(cls, database: UncertainDatabase, num_shards: int) -> "ShardSet":
        """Split an in-memory database into row-range shards."""
        from ..data.columnar import shard_ranges

        specs = []
        for index, (start, stop) in enumerate(shard_ranges(len(database), num_shards)):
            shard_db = database.restrict(range(start, stop))
            specs.append(
                ShardSpec(
                    index=index,
                    start=start,
                    stop=stop,
                    transactions=stop - start,
                    sha256=database_sha256(shard_db),
                    database=shard_db,
                )
            )
        return cls(tuple(specs))


def sharded_fingerprint(
    shards: ShardSet, config: MinerConfig, shard_policy: str
) -> Dict[str, Any]:
    """Checkpoint identity of a sharded run.

    Extends the unsharded :func:`~repro.runtime.checkpoint.config_fingerprint`
    structure with the shard layout (per-shard digests recorded at split
    time) and the loss policy, so a sharded checkpoint can never be resumed
    unsharded, against a different partition, or under a different policy.
    The combined ``database_sha256`` is derived from the shard digests, so
    it is computable even when a shard's file has since been lost.
    """
    digest = hashlib.sha256()
    for spec in shards.specs:
        digest.update(f"{spec.index}:{spec.transactions}:{spec.sha256}\n".encode())
    from dataclasses import asdict

    return {
        "format": FORMAT_VERSION,
        "database_sha256": digest.hexdigest(),
        "transactions": shards.total_transactions,
        "config": asdict(config),
        "shards": [
            {"index": spec.index, "transactions": spec.transactions, "sha256": spec.sha256}
            for spec in shards.specs
        ],
        "shard_policy": shard_policy,
    }


# ----------------------------------------------------------------------
# scan phase
# ----------------------------------------------------------------------
@dataclass
class ShardScan:
    """One shard's complete scan: per-item probability vectors (+ capped PMFs)."""

    shard: int
    transactions: int
    #: ``[item, [probability, ...]]`` pairs in the shard's canonical item
    #: order; probabilities are in shard row order.
    items: List[Any]
    #: per-item capped support PMFs aligned with ``items`` (``None`` when the
    #: scan was recovered from a checkpoint record; recomputed lazily).
    pmfs: Optional[List[List[float]]] = None

    def pmf_of(self, position: int, cap: int) -> Any:
        if self.pmfs is not None:
            return np.asarray(self.pmfs[position], dtype=np.float64)
        return capped_support_pmf(self.items[position][1], cap)


@dataclass
class ShardOutcome:
    """How one shard's scan eventually resolved."""

    shard: int
    # "scanned" | "checkpointed" | "recovered-inline" | "lost" | "cancelled"
    status: str
    attempts: int
    transactions: int
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shard": self.shard,
            "status": self.status,
            "attempts": self.attempts,
            "transactions": self.transactions,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ShardOutcome":
        return cls(
            shard=payload["shard"],
            status=payload["status"],
            attempts=payload["attempts"],
            transactions=payload["transactions"],
            error=payload.get("error"),
        )


def _scan_shard_worker(
    source: Union[str, UncertainDatabase],
    index: int,
    expected_sha256: Optional[str],
    cap: int,
    attempt: int,
    fault_plan: Optional[FaultPlan],
    inline: bool = False,
) -> Dict[str, Any]:
    """Scan one shard (module-level so the process pool can pickle it).

    Loads the shard, verifies its content digest, and extracts every item's
    probability vector plus its capped support PMF — the shard's entire
    contribution to the global candidate screen.
    """
    if fault_plan is not None:
        fault_plan.apply_shard(index, attempt, inline=inline)
    if isinstance(source, UncertainDatabase):
        shard_db = source
    else:
        from ..data.columnar import load_columnar

        shard_db = load_columnar(Path(source))
    if expected_sha256 is not None:
        actual = database_sha256(shard_db)
        if actual != expected_sha256:
            raise ShardIntegrityError(
                f"shard {index}: content hash {actual[:12]}… does not match the "
                f"digest recorded at split time ({expected_sha256[:12]}…)"
            )
    items: List[Any] = []
    pmfs: List[List[float]] = []
    for item in shard_db.items:
        positions = shard_db.tidset_of_item(item)
        probabilities = [shard_db.probability_of(position) for position in positions]
        items.append([item, probabilities])
        pmfs.append(capped_support_pmf(probabilities, cap).tolist())
    return {"transactions": len(shard_db), "items": items, "pmfs": pmfs}


class _ScanSupervision(RecoveryLadder[ShardSpec, Dict[str, Any]]):
    """Shard scans on the supervisor's recovery ladder: per-shard failure
    domains, with the shard-loss policy as the final rung instead of a
    failed-branch report."""

    retries_counter = "shard_retries"
    timeouts_counter = "shard_timeouts"
    inline_counter = "shards_recovered_inline"

    def __init__(
        self,
        shards: Sequence[ShardSpec],
        cap: int,
        processes: Optional[int],
        supervisor: SupervisorConfig,
        fault_plan: Optional[FaultPlan],
        policy_name: str,
        policy: ShardLossPolicy,
        total_shards: int,
        writer: Optional[CheckpointWriter],
        stats: MiningStats,
        lost: Dict[int, str],
        cancel_event: Optional[threading.Event],
    ) -> None:
        super().__init__(
            {spec.index: spec for spec in shards},
            processes,
            supervisor,
            fault_plan,
            writer,
            stats,
            cancel_event,
        )
        self.cap = cap
        self.policy_name = policy_name
        self.policy = policy
        self.total_shards = total_shards
        self.scans: Dict[int, ShardScan] = {}
        self.outcomes: Dict[int, ShardOutcome] = {}
        self.lost = lost
        self.cancelled = False

    def _describe(self, index: int, spec: ShardSpec) -> str:
        return f"shard {index} scan"

    def _args(self, index: int, spec: ShardSpec) -> Tuple[Any, ...]:
        return (
            spec.source, index, spec.sha256, self.cap, self.attempts[index], self.fault_plan
        )

    def _submit(self, pool: Any, index: int, spec: ShardSpec) -> Future:
        return pool.submit(_scan_shard_worker, *self._args(index, spec))

    def _run_inline(self, index: int, spec: ShardSpec) -> Dict[str, Any]:
        return _scan_shard_worker(*self._args(index, spec), inline=True)

    def _record_success(
        self, index: int, spec: ShardSpec, payload: Dict[str, Any], status: str
    ) -> None:
        if self.writer is not None:
            self.writer.write_shard_scan(
                index, payload["transactions"], payload["items"]
            )
            self.stats.checkpoint_shards_written += 1
        self.pending.pop(index, None)
        self.scans[index] = ShardScan(
            shard=index,
            transactions=payload["transactions"],
            items=payload["items"],
            pmfs=payload["pmfs"],
        )
        self.stats.shards_scanned += 1
        self.outcomes[index] = ShardOutcome(
            shard=index,
            status=status,
            attempts=self.attempts[index] + 1,
            transactions=spec.transactions,
        )

    def _give_up(self, index: int, spec: ShardSpec, error: BaseException) -> None:
        """Hand the lost shard to the loss policy: abort, or continue degraded."""
        reason = f"{type(error).__name__}: {error}"
        surviving = self.total_shards - len(self.lost) - 1
        # The shard is lost whatever the policy decides; count it first so
        # live stats (and the service's robustness aggregates) see losses
        # under fail-strict too, where the next line aborts the run.
        self.stats.shards_lost += 1
        decision = self.policy(index, reason, surviving, len(self.lost) + 1)
        if decision != "degrade":
            raise ShardLossError(
                f"shard {index} lost after {self.attempts[index]} "
                f"attempt(s) under policy {self.policy_name!r}: {reason}"
            ) from error
        logger.warning(
            "shard %d lost, continuing degraded (%d surviving): %s",
            index, surviving, reason,
        )
        self.pending.pop(index, None)
        self.lost[index] = reason
        self.outcomes[index] = ShardOutcome(
            shard=index,
            status="lost",
            attempts=self.attempts[index],
            transactions=spec.transactions,
            error=reason,
        )
        if self.writer is not None:
            self.writer.write_shard_lost(index, reason)

    def _record_cancellation(self) -> None:
        self.cancelled = True
        for index in sorted(self.pending):
            spec = self.pending.pop(index)
            self.outcomes[index] = ShardOutcome(
                shard=index,
                status="cancelled",
                attempts=self.attempts[index],
                transactions=spec.transactions,
            )
        if self.writer is not None:
            self.writer.write_cancelled([])


# ----------------------------------------------------------------------
# merge phase
# ----------------------------------------------------------------------
def _merge_screen(
    surviving: Sequence[ShardSpec],
    scans: Dict[int, ShardScan],
    config: MinerConfig,
    stats: MiningStats,
) -> List[Item]:
    """Recompute the global candidate screen from the per-shard scans.

    Decision-for-decision identical to the unsharded planner's
    ``_passes_frequency_pruning`` over the concatenated database: counts
    sum exactly, ``fsum`` is order-independent, the CH bound is a pure
    function of the sum, and the ``Pr_F`` DP runs over the identical
    position-ordered vector.  The per-shard capped support DPs are also
    composed with ``pmf_tail_convolve`` and checked against the direct DP
    for every candidate.
    """
    total = sum(spec.transactions for spec in surviving)
    item_probs: Dict[Item, List[float]] = {}
    item_shard_pmfs: Dict[Item, List[Tuple[int, int]]] = {}
    for spec in surviving:
        scan = scans[spec.index]
        for position, (item, probabilities) in enumerate(scan.items):
            item_probs.setdefault(item, []).extend(probabilities)
            item_shard_pmfs.setdefault(item, []).append((spec.index, position))

    cap = config.min_sup
    candidates: List[Item] = []
    dp_evaluations = 0
    for item in canonical(item_probs.keys()):
        probabilities = item_probs[item]
        if len(probabilities) < config.min_sup:
            stats.pruned_by_count += 1
            continue
        if config.use_chernoff_pruning:
            expected = math.fsum(probabilities)
            bound = chernoff_hoeffding_frequency_bound(expected, total, config.min_sup)
            if bound <= config.pfct:
                stats.pruned_by_chernoff += 1
                continue
        dp_evaluations += 1
        prf = frequent_probability(probabilities, config.min_sup)
        merged_pmf = None
        for shard_index, position in item_shard_pmfs[item]:
            shard_pmf = scans[shard_index].pmf_of(position, cap)
            merged_pmf = (
                shard_pmf
                if merged_pmf is None
                else pmf_tail_convolve(merged_pmf, shard_pmf)
            )
        assert merged_pmf is not None
        if abs(float(merged_pmf[cap]) - prf) > MERGE_VERIFY_TOLERANCE:
            raise ShardMergeError(
                f"item {item!r}: pmf_add merge of per-shard support DPs "
                f"gives Pr_F={float(merged_pmf[cap])!r} but the direct DP "
                f"gives {prf!r} (beyond {MERGE_VERIFY_TOLERANCE})"
            )
        if prf <= config.pfct:
            stats.pruned_by_frequency += 1
            continue
        candidates.append(item)
    stats.frequent_probability_evaluations += dp_evaluations
    return candidates


def _load_surviving_rows(
    surviving: Sequence[ShardSpec],
) -> Tuple[List[Any], List[ShardSpec], Dict[int, str]]:
    """Load every surviving shard's rows, reporting shards that fail to load.

    A shard whose scan finished but whose file has since vanished cannot
    contribute rows to the mining phase; the caller routes such late losses
    through the same loss policy as scan-time failures.
    """
    rows: List[Any] = []
    loaded: List[ShardSpec] = []
    late_losses: Dict[int, str] = {}
    for spec in surviving:
        try:
            if spec.database is not None:
                shard_db = spec.database
            else:
                from ..data.columnar import load_columnar

                assert spec.path is not None
                shard_db = load_columnar(spec.path)
        except Exception as error:  # noqa: BLE001 - routed to the loss policy
            late_losses[spec.index] = f"{type(error).__name__}: {error}"
            continue
        rows.extend(shard_db.transactions)
        loaded.append(spec)
    return rows, loaded, late_losses


def _degrade_result(
    result: ProbabilisticFrequentClosedItemset,
    surviving_db: UncertainDatabase,
    lost_transactions: int,
    min_sup: int,
) -> ProbabilisticFrequentClosedItemset:
    """Re-tag one surviving-data result with certified global bounds.

    ``Pr_F`` is monotone in added transactions, so the surviving value is a
    global lower bound; the upper bound assumes every lost transaction
    contains the itemset with probability 1, i.e. the support DP re-run
    with the threshold relaxed by the lost count.  Expected support gains
    at most 1 per lost transaction.

    Both ``Pr_F`` ends are widened by a rounding margin.  The exact values
    bracket the full database's exact ``Pr_F``, but each end and the
    full-database value are computed by the capped DP, and each can be off
    by a few ulps in either direction.  Per row, the DP rounds ``1 − p``,
    two products, their sum, and the cap refund's product and sum: at most
    6 roundings, each within ``u = eps / 2`` of values whose sum is 1.  The
    transition is a stochastic matrix, so it does not grow earlier errors
    in the ℓ1 norm, and a DP over ``k`` rows is within ``6·k·u`` of exact.
    Each end is compared with a DP over ``k`` surviving rows and the
    full-database DP over at most ``k + lost`` rows.  So widening each end
    by ``6·u·(2k + lost) = 3·eps·(2k + lost)`` covers both errors.  The
    expected-support ends are exactly rounded sums (``math.fsum``), and
    rounding is monotone, so they need no margin.
    """
    tidset = surviving_db.tidset(result.itemset)
    probabilities = [surviving_db.probability_of(position) for position in tidset]
    relaxed = min_sup - lost_transactions
    upper = 1.0 if relaxed <= 0 else frequent_probability(probabilities, relaxed)
    margin = 3 * sys.float_info.epsilon * (2 * len(probabilities) + lost_transactions)
    lower = max(0.0, result.frequent_probability - margin)
    upper = min(1.0, max(result.frequent_probability, upper) + margin)
    return replace(
        result,
        provenance="shard-degraded",
        frequency_bounds=(lower, upper),
        support_bounds=(
            math.fsum(probabilities),
            math.fsum([*probabilities, lost_transactions]),
        ),
    )


# ----------------------------------------------------------------------
# reports and the public API
# ----------------------------------------------------------------------
@dataclass
class ShardedReport(SupervisorReport):
    """A sharded run's full outcome: the supervised report plus shard detail."""

    shard_outcomes: List[ShardOutcome] = field(default_factory=list)
    lost_shards: Dict[int, str] = field(default_factory=dict)
    shard_policy: str = "fail-strict"
    scan_cancelled: bool = False

    @property
    def degraded(self) -> bool:
        """True when any shard was lost and the results carry bounds."""
        return bool(self.lost_shards)

    @property
    def cancelled(self) -> bool:
        return self.scan_cancelled or bool(self.cancelled_branches)

    @property
    def complete(self) -> bool:
        return SupervisorReport.complete.fget(self) and not self.scan_cancelled  # type: ignore[attr-defined]

    def to_dict(self) -> Dict[str, Any]:
        payload = super().to_dict()
        payload.update(
            {
                "shard_outcomes": [outcome.to_dict() for outcome in self.shard_outcomes],
                "lost_shards": {
                    str(index): reason for index, reason in sorted(self.lost_shards.items())
                },
                "shard_policy": self.shard_policy,
                "scan_cancelled": self.scan_cancelled,
                "degraded": self.degraded,
            }
        )
        # recompute with the sharded semantics (scan cancellation counts)
        payload["complete"] = self.complete
        payload["cancelled"] = self.cancelled
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ShardedReport":
        base = SupervisorReport.from_dict(payload)
        return cls(
            results=base.results,
            outcomes=base.outcomes,
            stats=base.stats,
            shard_outcomes=[
                ShardOutcome.from_dict(entry)
                for entry in payload.get("shard_outcomes", [])
            ],
            lost_shards={
                int(index): reason
                for index, reason in payload.get("lost_shards", {}).items()
            },
            shard_policy=payload.get("shard_policy", "fail-strict"),
            scan_cancelled=payload.get("scan_cancelled", False),
        )


def run_sharded(
    shards: ShardSet,
    config: MinerConfig,
    processes: Optional[int] = None,
    supervisor: Optional[SupervisorConfig] = None,
    shard_policy: str = "fail-strict",
    checkpoint_path: Optional[PathLike] = None,
    resume_from_checkpoint: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    live_stats: Optional[MiningStats] = None,
    cancel_event: Optional[threading.Event] = None,
) -> ShardedReport:
    """Mine a sharded database under shard-level supervision.

    Args:
        shards: the partition (:meth:`ShardSet.from_manifest` /
            :meth:`ShardSet.from_database`).
        config / processes / supervisor / fault_plan / live_stats /
            cancel_event: as :func:`~repro.runtime.supervisor.run_supervised`;
            ``supervisor.branch_timeout_seconds`` also bounds each shard
            scan, and ``fault_plan.shard_faults`` injects scan-phase chaos.
        shard_policy: registered shard-loss policy name
            (:data:`repro.registry.SHARD_LOSS_POLICIES`).
        checkpoint_path / resume_from_checkpoint: one JSONL file covers all
            three phases; resume replays finished shard scans, recorded
            losses, and finished branches, then completes the rest
            bit-identically.

    Returns:
        A :class:`ShardedReport`; ``report.results`` is bit-identical to
        unsharded mining when no shard was lost, and carries
        ``shard-degraded`` bounds otherwise.
    """
    supervisor = supervisor or SupervisorConfig()
    started = time.perf_counter()
    policy_name = SHARD_LOSS_POLICIES.canonicalize(shard_policy)
    policy = SHARD_LOSS_POLICIES.get(shard_policy)
    stats = live_stats if live_stats is not None else MiningStats()
    stats.shards_planned += len(shards.specs)
    fingerprint = sharded_fingerprint(shards, config, policy_name)

    writer: Optional[CheckpointWriter] = None
    known_scans: Dict[int, ShardScan] = {}
    lost: Dict[int, str] = {}
    if checkpoint_path is not None:
        writer, checkpoint = open_checkpoint(
            checkpoint_path, fingerprint, resume=resume_from_checkpoint
        )
        if checkpoint is not None:
            unknown = sorted(
                (set(checkpoint.shard_scans) | set(checkpoint.lost_shards))
                - set(range(len(shards.specs)))
            )
            if unknown:
                writer.close()
                raise CheckpointError(
                    f"{checkpoint_path}: checkpoint names shard {unknown[0]} but "
                    f"this run has {len(shards.specs)} shards"
                )
            for index, record in checkpoint.shard_scans.items():
                known_scans[index] = ShardScan(
                    shard=index,
                    transactions=record.transactions,
                    items=record.items,
                    pmfs=None,
                )
            lost = dict(checkpoint.lost_shards)

    outcomes: Dict[int, ShardOutcome] = {}
    for index, reason in sorted(lost.items()):
        stats.shards_lost += 1
        outcomes[index] = ShardOutcome(
            shard=index,
            status="lost",
            attempts=0,
            transactions=shards.specs[index].transactions,
            error=reason,
        )
    for index in sorted(known_scans):
        if index in lost:
            continue
        stats.checkpoint_shards_skipped += 1
        outcomes[index] = ShardOutcome(
            shard=index,
            status="checkpointed",
            attempts=0,
            transactions=shards.specs[index].transactions,
        )

    try:
        # -- phase 1: scan --------------------------------------------------
        scan_started = time.perf_counter()
        to_scan = [
            spec
            for spec in shards.specs
            if spec.index not in known_scans and spec.index not in lost
        ]
        scan = _ScanSupervision(
            shards=to_scan,
            cap=config.min_sup,
            processes=processes,
            supervisor=supervisor,
            fault_plan=fault_plan,
            policy_name=policy_name,
            policy=policy,
            total_shards=len(shards.specs),
            writer=writer,
            stats=stats,
            lost=lost,
            cancel_event=cancel_event,
        )
        scan.run()
        stats.shard_scan_seconds += time.perf_counter() - scan_started
        scans = dict(known_scans)
        scans.update(scan.scans)
        outcomes.update(scan.outcomes)

        if scan.cancelled:
            stats.elapsed_seconds = time.perf_counter() - started
            return ShardedReport(
                results=[],
                outcomes=[],
                stats=stats,
                shard_outcomes=[outcomes[i] for i in sorted(outcomes)],
                lost_shards=dict(lost),
                shard_policy=policy_name,
                scan_cancelled=True,
            )

        # -- phase 2: merge -------------------------------------------------
        merge_started = time.perf_counter()
        surviving = [spec for spec in shards.specs if spec.index not in lost]
        rows, loaded, late_losses = _load_surviving_rows(surviving)
        for index, reason in sorted(late_losses.items()):
            surviving_count = len(shards.specs) - len(lost) - 1
            decision = policy(index, reason, surviving_count, len(lost) + 1)
            if decision != "degrade":
                raise ShardLossError(
                    f"shard {index} unavailable at merge time under policy "
                    f"{policy_name!r}: {reason}"
                )
            logger.warning("shard %d lost at merge time: %s", index, reason)
            lost[index] = reason
            stats.shards_lost += 1
            outcomes[index] = ShardOutcome(
                shard=index,
                status="lost",
                attempts=0,
                transactions=shards.specs[index].transactions,
                error=reason,
            )
            if writer is not None:
                writer.write_shard_lost(index, reason)
        if not loaded:
            raise ShardLossError(
                "every shard is lost or unavailable; nothing left to mine"
            )
        surviving_db = UncertainDatabase(rows)
        candidates = _merge_screen(loaded, scans, config, stats)
        plan, _ = plan_root_branches(surviving_db, config, candidates=candidates)
        stats.shard_merge_seconds += time.perf_counter() - merge_started
    finally:
        if writer is not None:
            writer.close()

    # -- phase 3: mine (branch supervision owns the checkpoint now) --------
    report = run_supervised(
        surviving_db,
        config,
        processes=processes,
        supervisor=supervisor,
        checkpoint_path=checkpoint_path,
        resume_from_checkpoint=checkpoint_path is not None,
        fault_plan=fault_plan,
        live_stats=stats,
        cancel_event=cancel_event,
        plan=plan,
        fingerprint_override=fingerprint,
    )

    results = report.results
    if lost:
        lost_transactions = sum(
            shards.specs[index].transactions for index in lost
        )
        results = [
            _degrade_result(result, surviving_db, lost_transactions, config.min_sup)
            for result in results
        ]

    stats.elapsed_seconds = time.perf_counter() - started
    return ShardedReport(
        results=results,
        outcomes=report.outcomes,
        stats=stats,
        shard_outcomes=[outcomes[index] for index in sorted(outcomes)],
        lost_shards=dict(lost),
        shard_policy=policy_name,
        scan_cancelled=False,
    )


def mine_pfci_sharded(
    database: UncertainDatabase,
    config: MinerConfig,
    num_shards: int,
    processes: Optional[int] = None,
    stats: Optional[MiningStats] = None,
    supervisor: Optional[SupervisorConfig] = None,
    shard_policy: str = "fail-strict",
    fault_plan: Optional[FaultPlan] = None,
) -> List[ProbabilisticFrequentClosedItemset]:
    """Convenience wrapper: split in memory, mine sharded, return results.

    Bit-identical to :func:`repro.core.miner.mine_pfci` (and every other
    engine), sampled checks included — asserted by the conformance suite.
    """
    report = run_sharded(
        ShardSet.from_database(database, num_shards),
        config,
        processes=processes,
        supervisor=supervisor,
        shard_policy=shard_policy,
        fault_plan=fault_plan,
    )
    if stats is not None:
        stats.merge(report.stats)
        stats.elapsed_seconds = report.stats.elapsed_seconds
    return report.results
