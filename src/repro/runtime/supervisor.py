"""Branch-parallel mining under supervision: timeouts, retries, recovery, resume.

MPFCI's depth-first enumeration partitions cleanly at the root: candidate
item ``i``'s subtree (prefix ``(i,)`` with extension items ``> i``) is mined
independently of every other branch, because every pruning rule (Lemmas
4.1–4.4) reads only the branch's own itemsets plus global tidsets.
:func:`plan_root_branches` runs phase 1 once and splits the root branches;
this module mines them in worker processes through the public
:meth:`~repro.core.miner.MPFCIMiner.mine_branch` entry point and merges the
results and per-worker :class:`~repro.core.stats.MiningStats` (each worker
owns a private support-DP cache, so ``dp_cache_hits + dp_cache_misses ==
dp_requests`` holds for the merged run too).  It is the one branch-parallel
mining path, and it treats worker failure as a normal event:

* **per-branch timeouts** — each branch's wall-clock deadline starts when
  it begins *running* on a worker (queued branches cannot time out while
  they wait for a slot); when a branch overruns it, the pool's worker
  processes are terminated (a hung worker cannot be cancelled through
  ``ProcessPoolExecutor``), the pool is rebuilt, and only unfinished
  branches are re-dispatched.  Only the timed-out branch is charged an
  attempt — other in-flight branches lost to the kill are collateral and
  are re-dispatched without consuming their retry budget
  (``branch_collateral_restarts``);
* **bounded retries with backoff** — a failed/timed-out branch is retried up
  to ``max_retries`` times with exponential backoff;
* **``BrokenProcessPool`` recovery** — a worker that dies hard (OOM killer,
  segfault, injected ``os._exit``) breaks the pool and poisons every
  in-flight future; the breakage cannot be attributed to a single branch, so
  every unfinished branch is charged one attempt, the pool is rebuilt, and
  the unfinished branches are re-dispatched;
* **inline last resort** — a branch that exhausts its retry budget runs
  in-process in the supervisor (where a poisoned-pool or pickling problem
  cannot recur); if even that fails, the branch is reported as failed in the
  :class:`SupervisorReport` and counted in ``MiningStats.branches_failed``
  without killing the run (set ``fail_fast=True`` to raise instead, as
  :func:`mine_pfci_parallel` does);
* **checkpoint/resume** — with a checkpoint path, every completed branch is
  durably appended to a JSONL file (:mod:`repro.runtime.checkpoint`);
  resuming validates the config fingerprint and skips finished branches, so
  an interrupted run continues bit-identically;
* **cooperative cancellation** — a ``cancel_event`` (any
  ``threading.Event``) stops the run at the next supervision tick: finished
  branches are kept, in-flight workers are killed without being charged an
  attempt, the rest resolve as ``"cancelled"`` outcomes, and the checkpoint
  is durably marked cancelled so resume refuses it
  (:class:`~repro.runtime.checkpoint.CheckpointCancelledError`) — a killed
  job can never masquerade as an interrupted one.

Every recovery action increments a ``MiningStats`` counter
(``branches_dispatched``, ``branch_retries``, ``branch_timeouts``,
``branch_collateral_restarts``, ``pool_rebuilds``,
``branches_recovered_inline``, ``branches_failed``,
``checkpoint_branches_written``, ``checkpoint_branches_skipped``), all
surfaced in ``MiningStats.report()["runtime"]``.

The loop itself is :class:`RecoveryLadder`; the shard scans of
:mod:`repro.runtime.sharding` run on it too, with their own counters and
the shard-loss policy as their final rung.  Pool workers exit on their own
when the supervising process dies (:func:`_worker_process_init`).

Determinism: branch results depend only on (database, config), never on
scheduling, retry count, or which recovery path ran — each sampled check
draws from a stream seeded by its own itemset
(:func:`repro.core.approx.check_rng`) — so a supervised run under fault
injection returns exactly the serial miner's results, sampled values
included (asserted in ``tests/test_runtime_faults.py`` and
``tests/conformance``).
"""

from __future__ import annotations

import logging
import math
import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Generic, List, NamedTuple, Optional, Tuple, TypeVar, Union

from ..core.config import MinerConfig
from ..core.database import UncertainDatabase
from ..core.itemsets import Item
from ..core.miner import MPFCIMiner, ProbabilisticFrequentClosedItemset
from ..core.stats import MiningStats
from .checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointWriter,
    config_fingerprint,
    deserialize_result,
    open_checkpoint,
    serialize_result,
)
from .faults import FaultPlan

__all__ = [
    "BranchFailedError",
    "BranchOutcome",
    "BranchTask",
    "SupervisorConfig",
    "SupervisorReport",
    "mine_pfci_parallel",
    "mine_pfci_supervised",
    "plan_root_branches",
    "resume",
    "run_supervised",
]

logger = logging.getLogger(__name__)

PathLike = Union[str, Path]


class BranchFailedError(RuntimeError):
    """Raised under ``fail_fast`` when a branch exhausts every recovery path."""


@dataclass(frozen=True)
class SupervisorConfig:
    """Recovery policy of the supervised runtime.

    Attributes:
        branch_timeout_seconds: wall-clock budget per branch, measured from
            the moment it starts running on a worker, so queue wait never
            counts against it (``None`` = no timeout).  An overrun branch
            is treated as hung: the pool is killed and rebuilt, and only
            the overrun branch is charged an attempt.
        max_retries: pool attempts per branch beyond the first; after the
            budget is spent the branch falls back to inline execution.
        backoff_base_seconds / backoff_multiplier / backoff_cap_seconds:
            exponential backoff before re-dispatching retried branches
            (``base * multiplier**(attempt-1)``, capped).
        inline_fallback: run retry-exhausted branches in-process as a last
            resort instead of failing them outright.
        fail_fast: raise :class:`BranchFailedError` on the first branch that
            fails every recovery path, instead of recording it and
            continuing with the surviving branches.
        poll_interval_seconds: supervision loop wake-up period for deadline
            checks.
    """

    branch_timeout_seconds: Optional[float] = None
    max_retries: int = 2
    backoff_base_seconds: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_cap_seconds: float = 2.0
    inline_fallback: bool = True
    fail_fast: bool = False
    poll_interval_seconds: float = 0.05

    def __post_init__(self) -> None:
        for name in (
            "branch_timeout_seconds",
            "backoff_base_seconds",
            "backoff_multiplier",
            "backoff_cap_seconds",
            "poll_interval_seconds",
        ):
            value = getattr(self, name)
            # NaN passes every comparison below; inf breaks wait() and sleep().
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.branch_timeout_seconds is not None and not (
            self.branch_timeout_seconds > 0.0
        ):
            raise ValueError("branch_timeout_seconds must be > 0 when set")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_seconds < 0.0:
            raise ValueError("backoff_base_seconds must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if self.backoff_cap_seconds < 0.0:
            raise ValueError("backoff_cap_seconds must be >= 0")
        if self.poll_interval_seconds <= 0.0:
            raise ValueError("poll_interval_seconds must be > 0")

    def backoff_seconds(self, attempt: int) -> float:
        """Backoff before dispatching ``attempt`` (1-based retry index)."""
        if attempt <= 0 or self.backoff_base_seconds == 0.0:
            return 0.0
        return min(
            self.backoff_cap_seconds,
            self.backoff_base_seconds * self.backoff_multiplier ** (attempt - 1),
        )


@dataclass
class BranchOutcome:
    """How one root branch eventually completed (or didn't)."""

    rank: int
    item: Item
    # "completed" | "checkpointed" | "recovered-inline" | "failed" | "cancelled"
    status: str
    attempts: int
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form (round-trips through :meth:`from_dict`)."""
        return {
            "rank": self.rank,
            "item": self.item,
            "status": self.status,
            "attempts": self.attempts,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "BranchOutcome":
        return cls(
            rank=payload["rank"],
            item=payload["item"],
            status=payload["status"],
            attempts=payload["attempts"],
            error=payload.get("error"),
        )


@dataclass
class SupervisorReport:
    """Everything a supervised run produced, including partial-failure detail."""

    results: List[ProbabilisticFrequentClosedItemset]
    outcomes: List[BranchOutcome] = field(default_factory=list)
    stats: MiningStats = field(default_factory=MiningStats)

    @property
    def failed(self) -> List[BranchOutcome]:
        return [outcome for outcome in self.outcomes if outcome.status == "failed"]

    @property
    def cancelled_branches(self) -> List[BranchOutcome]:
        return [outcome for outcome in self.outcomes if outcome.status == "cancelled"]

    @property
    def cancelled(self) -> bool:
        """True when the run was stopped cooperatively before finishing."""
        return bool(self.cancelled_branches)

    @property
    def complete(self) -> bool:
        """True when every branch produced results (none were lost)."""
        return not self.failed and not self.cancelled_branches

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form: results via the checkpoint serializer (item values
        preserved, floats shortest-exact), outcomes, and a stats snapshot.

        This is the *only* sanctioned way to ship a report across a process
        or serialization boundary — job-status endpoints read this, never
        private fields.  Round-trips through :meth:`from_dict`.
        """
        return {
            "results": [serialize_result(result) for result in self.results],
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
            "stats": self.stats.snapshot(),
            "complete": self.complete,
            "cancelled": self.cancelled,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SupervisorReport":
        return cls(
            results=[deserialize_result(entry) for entry in payload["results"]],
            outcomes=[
                BranchOutcome.from_dict(entry) for entry in payload.get("outcomes", [])
            ],
            stats=MiningStats.from_snapshot(payload.get("stats", {})),
        )


BranchResult = Tuple[List[ProbabilisticFrequentClosedItemset], MiningStats]


# ----------------------------------------------------------------------
# branch planning
# ----------------------------------------------------------------------
class BranchTask(NamedTuple):
    """One root branch of the prefix tree, ready to dispatch to a worker."""

    item: Item
    extensions: Tuple[Item, ...]
    rank: int


def plan_root_branches(
    database: UncertainDatabase,
    config: MinerConfig,
    candidates: Optional[List[Item]] = None,
) -> Tuple[List[BranchTask], MiningStats]:
    """Run phase 1 (candidate filtering) once and split the root branches.

    Returns the per-branch tasks in rank order plus the planner's
    :class:`MiningStats`: the work :meth:`MPFCIMiner.candidate_items`
    counts, which is exactly what :meth:`MPFCIMiner.mine` does before its
    DFS loop.

    ``candidates`` short-circuits the filtering: the sharded runtime
    (:mod:`repro.runtime.sharding`) recomputes the identical candidate list
    from merged per-shard scans and passes it here, so the branch split —
    item order, extension suffixes, ranks — is byte-for-byte the one an
    unsharded planner would produce, without re-reading the database.
    """
    stats = MiningStats()
    if candidates is None:
        planner = MPFCIMiner(database, config)
        candidates = planner.candidate_items()
        stats = planner.stats
    tasks = [
        BranchTask(item, tuple(candidates[position + 1 :]), position)
        for position, item in enumerate(candidates)
    ]
    return tasks, stats


# ----------------------------------------------------------------------
# worker entry points (module-level: ProcessPoolExecutor pickles by name)
# ----------------------------------------------------------------------
def _supervised_branch_worker(
    database: UncertainDatabase,
    config: MinerConfig,
    item: Item,
    extensions: Tuple[Item, ...],
    rank: int,
    attempt: int,
    fault_plan: Optional[FaultPlan],
    inline: bool = False,
) -> BranchResult:
    """Apply any scripted fault, then mine one root branch (pool or inline).

    The rank and attempt only select the scripted fault; the branch itself
    is the same computation on every attempt and path.
    """
    if fault_plan is not None:
        fault_plan.apply(rank, attempt, inline=inline)
    miner = MPFCIMiner(database, config)
    results = miner.mine_branch(item, extensions)
    return results, miner.stats


# ----------------------------------------------------------------------
# pool lifecycle helpers
# ----------------------------------------------------------------------
#: How often a pool worker checks that the process that forked it is alive.
_PARENT_POLL_SECONDS = 0.5


def _exit_when_orphaned(parent: int) -> None:
    """Watchdog thread body: end this worker once its parent is gone.

    A parent killed with SIGKILL never shuts its pool down, so its workers
    would wait on the call queue forever, reparented to init.
    ``PR_SET_PDEATHSIG`` alone does not cover this: it fires when the
    *thread* that forked the worker exits, and the service forks its pools
    from a runner thread.
    """
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_SECONDS)
    os._exit(1)


def _worker_process_init() -> None:
    """Pool-worker initializer: shed the host's signal plumbing, watch the parent.

    Fork-started workers inherit the parent's signal handlers *and* its
    ``signal.set_wakeup_fd`` pipe.  When the parent is an asyncio host
    (e.g. the mining service), a ``terminate()`` delivered to a worker
    would fire the inherited handler, which writes the signal number into
    the *shared* wakeup pipe — and the parent's event loop reads it as if
    the host itself had been signalled.  Resetting to the default
    disposition (and detaching the wakeup fd) keeps worker lifecycle
    signals inside the worker.  A daemon thread then exits the worker when
    its parent dies (:func:`_exit_when_orphaned`).
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # non-main thread or closed fd: nothing to shed
        pass
    threading.Thread(
        target=_exit_when_orphaned, args=(os.getppid(),), daemon=True
    ).start()


def _new_pool(processes: Optional[int]) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=processes, initializer=_worker_process_init
    )


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool, killing hung workers.

    ``ProcessPoolExecutor`` has no public way to cancel a *running* task, so
    a hung worker would otherwise block ``shutdown`` forever.  Terminating
    the worker processes (private ``_processes``, guarded for absence)
    breaks the pool immediately; the subsequent ``shutdown`` then returns.
    """
    processes = getattr(pool, "_processes", None)
    if processes:
        for process in list(processes.values()):
            if process.is_alive():
                process.terminate()
    pool.shutdown(wait=True, cancel_futures=True)


# ----------------------------------------------------------------------
# the recovery ladder
# ----------------------------------------------------------------------
TaskT = TypeVar("TaskT")
ValueT = TypeVar("ValueT")


class RecoveryLadder(Generic[TaskT, ValueT]):
    """The one recovery loop behind branch mining and shard scans.

    Internal to :mod:`repro.runtime`, not public API.  Tasks are keyed by
    an int (branch rank, shard index).  Each round dispatches every pending
    task once, after the backoff of its most-retried task; a task's
    deadline starts when it starts running on a worker.  A timeout kills
    the pool and charges only the overdue task (the rest are collateral);
    a ``BrokenExecutor`` charges every in-flight task; either way the pool
    is rebuilt.  A task out of pool retries runs inline, and if that fails
    too it goes to the final rung.  Cancellation is cooperative: it is
    checked every round and every poll.

    A subclass supplies the pieces that differ per kind of task: how a task
    is described in logs, submitted to the pool and run inline, what a
    success records, the final rung (:meth:`_give_up`), the cancellation
    record, and the names of its ``MiningStats`` counters (``None`` keeps
    no counter).
    """

    retries_counter: str
    timeouts_counter: str
    inline_counter: str
    dispatched_counter: Optional[str] = None
    collateral_counter: Optional[str] = None

    def __init__(
        self,
        tasks: Dict[int, TaskT],
        processes: Optional[int],
        supervisor: SupervisorConfig,
        fault_plan: Optional[FaultPlan],
        writer: Optional[CheckpointWriter],
        stats: MiningStats,
        cancel_event: Optional[threading.Event],
    ) -> None:
        self.pending: Dict[int, TaskT] = dict(tasks)
        self.attempts: Dict[int, int] = {key: 0 for key in tasks}
        self.processes = processes
        self.supervisor = supervisor
        self.fault_plan = fault_plan
        self.writer = writer
        self.stats = stats
        self.cancel_event = cancel_event

    # -- what each kind of task supplies ----------------------------------
    def _describe(self, key: int, task: TaskT) -> str:
        raise NotImplementedError

    def _submit(self, pool: ProcessPoolExecutor, key: int, task: TaskT) -> Future:
        raise NotImplementedError

    def _run_inline(self, key: int, task: TaskT) -> ValueT:
        raise NotImplementedError

    def _record_success(self, key: int, task: TaskT, value: ValueT, status: str) -> None:
        raise NotImplementedError

    def _give_up(self, key: int, task: TaskT, error: BaseException) -> None:
        """Final rung: the task exhausted every recovery path."""
        raise NotImplementedError

    def _record_cancellation(self) -> None:
        """Resolve every still-pending task as cancelled."""
        raise NotImplementedError

    # -- the shared ladder ------------------------------------------------
    def _count(self, counter: Optional[str]) -> None:
        if counter is not None:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)

    def _cancelled(self) -> bool:
        return self.cancel_event is not None and self.cancel_event.is_set()

    def _charge_attempt(self, key: int) -> None:
        """Consume one attempt; count the retry if the task stays eligible."""
        self.attempts[key] += 1
        if self.attempts[key] <= self.supervisor.max_retries:
            self._count(self.retries_counter)

    def _resolve_exhausted(self) -> None:
        """Run inline (or give up on) every task that is out of pool retries."""
        for key in sorted(self.pending):
            if self._cancelled():
                return
            if self.attempts[key] <= self.supervisor.max_retries:
                continue
            task = self.pending[key]
            if not self.supervisor.inline_fallback:
                self._give_up(
                    key,
                    task,
                    RuntimeError("retry budget exhausted (inline fallback disabled)"),
                )
                continue
            logger.warning(
                "%s: retry budget exhausted, running inline", self._describe(key, task)
            )
            try:
                value = self._run_inline(key, task)
            except Exception as error:  # noqa: BLE001 - goes to the final rung
                self._give_up(key, task, error)
            else:
                self._count(self.inline_counter)
                self._record_success(key, task, value, "recovered-inline")

    def run(self) -> None:
        if not self.pending:
            return
        if self._cancelled():
            self._record_cancellation()
            return
        pool = _new_pool(self.processes)
        try:
            while self.pending:
                self._resolve_exhausted()
                if not self.pending or self._cancelled():
                    break
                pool = self._run_round(pool)
            if self._cancelled() and self.pending:
                self._record_cancellation()
        finally:
            _terminate_pool(pool)

    def _run_round(self, pool: ProcessPoolExecutor) -> ProcessPoolExecutor:
        """Dispatch every pending task once; handle one failure wave.

        Returns the pool to use next round (a fresh one after breakage or a
        timeout kill).
        """
        supervisor = self.supervisor
        backoff = max(
            (supervisor.backoff_seconds(self.attempts[key]) for key in self.pending),
            default=0.0,
        )
        if backoff > 0.0:
            time.sleep(backoff)

        futures: Dict[Future, int] = {}
        deadlines: Dict[Future, float] = {}
        for key in sorted(self.pending):
            futures[self._submit(pool, key, self.pending[key])] = key
            self._count(self.dispatched_counter)

        pool_broken = False
        timeout_kill = False
        while futures:
            done, _ = wait(
                set(futures),
                timeout=supervisor.poll_interval_seconds,
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                key = futures.pop(future)
                deadlines.pop(future, None)
                task = self.pending[key]
                try:
                    value = future.result()
                except BrokenExecutor:
                    # The pool is poisoned; every in-flight future is lost
                    # and none of them can be blamed individually.  This
                    # task is charged here, the still-pending ones below.
                    pool_broken = True
                    self._charge_attempt(key)
                except Exception as error:  # clean per-task failure
                    self._charge_attempt(key)
                    logger.warning(
                        "%s attempt %d raised: %s",
                        self._describe(key, task), self.attempts[key], error,
                    )
                    if (
                        self.attempts[key] > supervisor.max_retries
                        and not supervisor.inline_fallback
                    ):
                        self._give_up(key, task, error)
                else:
                    self._record_success(key, task, value, "completed")
            if pool_broken:
                break

            if self._cancelled():
                # Cooperative cancel: keep everything that finished before
                # the signal (already recorded and checkpointed above), kill
                # the in-flight workers, and leave their tasks pending for
                # run() to resolve as cancelled.  Nothing is charged an
                # attempt — cancellation is not a failure.
                _terminate_pool(pool)
                return pool

            if supervisor.branch_timeout_seconds is None:
                continue

            # Deadline sweep: a task's clock starts when it begins running
            # on a worker, so queued tasks never time out while they wait
            # for a slot.  Any overdue task means a hung worker that only a
            # pool kill can dislodge.
            now = time.monotonic()
            for future in futures:
                if future not in deadlines and future.running():
                    deadlines[future] = now + supervisor.branch_timeout_seconds
            overdue = [
                future for future, deadline in deadlines.items() if now > deadline
            ]
            if overdue:
                for future in overdue:
                    key = futures.pop(future)
                    deadlines.pop(future, None)
                    self._count(self.timeouts_counter)
                    self._charge_attempt(key)
                    logger.warning(
                        "%s attempt %d timed out after %.3fs",
                        self._describe(key, self.pending[key]), self.attempts[key],
                        supervisor.branch_timeout_seconds,
                    )
                pool_broken = True
                timeout_kill = True
                break

        if pool_broken:
            for key in futures.values():
                if timeout_kill:
                    # The kill is attributable to the timed-out task(s),
                    # already charged above; everything else in flight is
                    # collateral and keeps its full retry budget.
                    self._count(self.collateral_counter)
                else:
                    # Unattributable breakage (BrokenProcessPool): no single
                    # task can be blamed, so every in-flight task is charged
                    # one attempt.
                    self._charge_attempt(key)
            _terminate_pool(pool)
            self.stats.pool_rebuilds += 1
            return _new_pool(self.processes)
        return pool


# ----------------------------------------------------------------------
# branch supervision
# ----------------------------------------------------------------------
class _Supervision(RecoveryLadder[BranchTask, BranchResult]):
    """Root-branch mining on the recovery ladder."""

    retries_counter = "branch_retries"
    timeouts_counter = "branch_timeouts"
    inline_counter = "branches_recovered_inline"
    dispatched_counter = "branches_dispatched"
    collateral_counter = "branch_collateral_restarts"

    def __init__(
        self,
        database: UncertainDatabase,
        config: MinerConfig,
        tasks: List[BranchTask],
        processes: Optional[int],
        supervisor: SupervisorConfig,
        fault_plan: Optional[FaultPlan],
        writer: Optional[CheckpointWriter],
        stats: MiningStats,
        cancel_event: Optional[threading.Event] = None,
    ) -> None:
        super().__init__(
            {task.rank: task for task in tasks},
            processes,
            supervisor,
            fault_plan,
            writer,
            stats,
            cancel_event,
        )
        self.database = database
        self.config = config
        self.results: List[ProbabilisticFrequentClosedItemset] = []
        self.outcomes: Dict[int, BranchOutcome] = {}

    def restore(self, checkpoint: Checkpoint, path: PathLike) -> None:
        """Replay the branches ``checkpoint`` already holds: keep their
        results and stats, and take them off the to-do list."""
        planned = len(self.pending)
        for rank, record in sorted(checkpoint.branches.items()):
            if self.pending.pop(rank, None) is None:
                raise CheckpointError(
                    f"{path}: checkpoint holds branch {rank} but "
                    f"this run only plans {planned} branches"
                )
            self.results.extend(record.results)
            self.stats.merge(record.stats)
            self.stats.checkpoint_branches_skipped += 1
            self.outcomes[rank] = BranchOutcome(
                rank=rank, item=record.item, status="checkpointed", attempts=0
            )

    def _describe(self, rank: int, task: BranchTask) -> str:
        return f"branch {rank} ({task.item!r})"

    def _args(self, rank: int, task: BranchTask) -> Tuple[Any, ...]:
        return (
            self.database,
            self.config,
            task.item,
            task.extensions,
            rank,
            self.attempts[rank],
            self.fault_plan,
        )

    def _submit(self, pool: ProcessPoolExecutor, rank: int, task: BranchTask) -> Future:
        return pool.submit(_supervised_branch_worker, *self._args(rank, task))

    def _run_inline(self, rank: int, task: BranchTask) -> BranchResult:
        return _supervised_branch_worker(*self._args(rank, task), inline=True)

    def _record_success(
        self, rank: int, task: BranchTask, value: BranchResult, status: str
    ) -> None:
        branch_results, branch_stats = value
        if self.writer is not None:
            # Checkpoint *before* keeping the results: a branch whose record
            # could not be made durable (disk full, read-only volume) is a
            # failed branch — counting it as completed would let a resumed
            # run silently lose it.  The writer is retired after the first
            # failure; the durable prefix on disk stays resumable, later
            # branches complete uncheckpointed, and the run reports >= 1
            # failed branch so the job ends failed instead of hanging.
            try:
                self.writer.write_branch(rank, task.item, branch_results, branch_stats)
            except CheckpointError as error:
                self.writer = None
                self._give_up(rank, task, error)
                return
            self.stats.checkpoint_branches_written += 1
        self.pending.pop(rank, None)
        self.results.extend(branch_results)
        self.stats.merge(branch_stats)
        self.outcomes[rank] = BranchOutcome(
            rank=rank,
            item=task.item,
            status=status,
            attempts=self.attempts[rank] + 1,
        )

    def _give_up(self, rank: int, task: BranchTask, error: BaseException) -> None:
        """Report the branch failed (or raise under ``fail_fast``)."""
        self.pending.pop(rank, None)
        self.stats.branches_failed += 1
        self.outcomes[rank] = BranchOutcome(
            rank=rank,
            item=task.item,
            status="failed",
            attempts=self.attempts[rank],
            error=f"{type(error).__name__}: {error}",
        )
        logger.error(
            "branch %d (%r) failed after %d attempt(s): %s",
            rank, task.item, self.attempts[rank], error,
        )
        if self.supervisor.fail_fast:
            raise BranchFailedError(
                f"branch {rank} ({task.item!r}) failed after "
                f"{self.attempts[rank]} attempt(s): {error}"
            ) from error

    def _record_cancellation(self) -> None:
        """Resolve every still-pending branch as cancelled, durably.

        The checkpoint gets one ``cancelled`` record naming the abandoned
        ranks, so the file can never be mistaken for a merely *interrupted*
        run: resume refuses it, and a service restart will not resurrect —
        or cache the eventual results of — deliberately killed work.
        """
        ranks = sorted(self.pending)
        for rank in ranks:
            task = self.pending.pop(rank)
            self.stats.branches_cancelled += 1
            self.outcomes[rank] = BranchOutcome(
                rank=rank,
                item=task.item,
                status="cancelled",
                attempts=self.attempts[rank],
            )
        logger.info("run cancelled with %d branch(es) unfinished", len(ranks))
        if self.writer is not None and ranks:
            self.writer.write_cancelled(ranks)


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------
def run_supervised(
    database: UncertainDatabase,
    config: MinerConfig,
    processes: Optional[int] = None,
    supervisor: Optional[SupervisorConfig] = None,
    checkpoint_path: Optional[PathLike] = None,
    resume_from_checkpoint: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    live_stats: Optional[MiningStats] = None,
    cancel_event: Optional[threading.Event] = None,
    plan: Optional[List[BranchTask]] = None,
    fingerprint_override: Optional[Dict[str, Any]] = None,
) -> SupervisorReport:
    """Mine under supervision and return the full :class:`SupervisorReport`.

    Args:
        database / config: what to mine, as :meth:`MPFCIMiner.mine` takes.
        processes: worker count (``None`` = ``os.cpu_count()``).
        supervisor: recovery policy (defaults to :class:`SupervisorConfig`).
        checkpoint_path: when set, append every completed branch to this
            JSONL checkpoint.  Without ``resume_from_checkpoint``, a path
            that already holds a checkpoint is refused
            (:class:`~repro.runtime.checkpoint.CheckpointError`) instead of
            silently truncated.
        resume_from_checkpoint: load ``checkpoint_path`` first, validate its
            config fingerprint against (database, config), skip the branches
            it already holds, and keep appending to the same file.  A
            checkpoint carrying a cancellation record is refused
            (:class:`~repro.runtime.checkpoint.CheckpointCancelledError`).
        fault_plan: deterministic fault injection (tests only).
        live_stats: when provided, used as the run's merged-counter
            accumulator *in place* — another thread can watch progress via
            ``live_stats.snapshot()`` while the run executes (this is how
            the service's job-status endpoint streams counters).  The same
            object is returned as ``report.stats``.
        cancel_event: cooperative cancellation.  When set (any thread), the
            run keeps every branch that already finished, kills in-flight
            workers, resolves the rest as ``"cancelled"`` outcomes, and
            durably marks the checkpoint cancelled so it cannot be resumed.
        plan: precomputed root-branch decomposition.  When provided,
            :func:`plan_root_branches` is skipped and
            the caller owns the planner's candidate-phase stats — this is
            how the sharded runtime reuses the supervisor after computing
            the candidate screen from per-shard scans.
        fingerprint_override: checkpoint identity to use instead of
            ``config_fingerprint(database, config)`` — the sharded runtime
            extends the fingerprint with shard layout and loss policy so a
            sharded checkpoint can never be resumed unsharded (or vice
            versa).
    """
    supervisor = supervisor or SupervisorConfig()
    started = time.perf_counter()
    if plan is None:
        tasks, planner_stats = plan_root_branches(database, config)
    else:
        tasks, planner_stats = list(plan), MiningStats()

    merged = live_stats if live_stats is not None else MiningStats()
    merged.merge(planner_stats)

    writer: Optional[CheckpointWriter] = None
    checkpoint: Optional[Checkpoint] = None
    if checkpoint_path is not None:
        writer, checkpoint = open_checkpoint(
            checkpoint_path,
            fingerprint_override
            if fingerprint_override is not None
            else config_fingerprint(database, config),
            resume=resume_from_checkpoint,
        )
    supervision = _Supervision(
        database=database,
        config=config,
        tasks=tasks,
        processes=processes,
        supervisor=supervisor,
        fault_plan=fault_plan,
        writer=writer,
        stats=merged,
        cancel_event=cancel_event,
    )
    try:
        if checkpoint is not None:
            supervision.restore(checkpoint, checkpoint_path)
        supervision.run()
    finally:
        if writer is not None:
            writer.close()

    results = sorted(
        supervision.results,
        key=lambda result: (len(result.itemset), result.itemset),
    )
    merged.elapsed_seconds = time.perf_counter() - started
    outcomes = [supervision.outcomes[rank] for rank in sorted(supervision.outcomes)]
    return SupervisorReport(results=results, outcomes=outcomes, stats=merged)


def mine_pfci_supervised(
    database: UncertainDatabase,
    config: MinerConfig,
    processes: Optional[int] = None,
    stats: Optional[MiningStats] = None,
    supervisor: Optional[SupervisorConfig] = None,
    checkpoint_path: Optional[PathLike] = None,
    resume_from_checkpoint: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    cancel_event: Optional[threading.Event] = None,
) -> List[ProbabilisticFrequentClosedItemset]:
    """Mine under supervision and return only the result list.

    ``stats``, when given, accumulates the merged run counters — the
    planner's candidate-phase work plus every branch's — with
    ``elapsed_seconds`` overwritten by the run's wall-clock (a sum of
    per-worker times would report CPU seconds, not latency).  The return
    value matches :meth:`MPFCIMiner.mine`'s ordering.  The other keywords
    are those of :func:`run_supervised`.
    """
    report = run_supervised(
        database,
        config,
        processes=processes,
        supervisor=supervisor,
        checkpoint_path=checkpoint_path,
        resume_from_checkpoint=resume_from_checkpoint,
        fault_plan=fault_plan,
        cancel_event=cancel_event,
    )
    if stats is not None:
        stats.merge(report.stats)
        stats.elapsed_seconds = report.stats.elapsed_seconds
    return report.results


def mine_pfci_parallel(
    database: UncertainDatabase,
    config: MinerConfig,
    processes: Optional[int] = None,
    stats: Optional[MiningStats] = None,
) -> List[ProbabilisticFrequentClosedItemset]:
    """Mine with worker processes; never return a partial result list.

    :func:`mine_pfci_supervised` under ``SupervisorConfig(fail_fast=True)``:
    a branch that fails its pool retries and its inline run raises
    :class:`BranchFailedError`, chained to the cause.
    """
    return mine_pfci_supervised(
        database,
        config,
        processes=processes,
        stats=stats,
        supervisor=SupervisorConfig(fail_fast=True),
    )


def resume(
    database: UncertainDatabase,
    config: MinerConfig,
    checkpoint_path: PathLike,
    processes: Optional[int] = None,
    supervisor: Optional[SupervisorConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> SupervisorReport:
    """Continue an interrupted run from its checkpoint.

    Validates the checkpoint's config fingerprint against ``(database,
    config)`` — a mismatch raises
    :class:`~repro.runtime.checkpoint.CheckpointMismatchError` — then mines
    only the branches the checkpoint does not already hold, appending new
    completions to the same file.
    """
    return run_supervised(
        database,
        config,
        processes=processes,
        supervisor=supervisor,
        checkpoint_path=checkpoint_path,
        resume_from_checkpoint=True,
        fault_plan=fault_plan,
    )
