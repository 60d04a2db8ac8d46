"""Fault-tolerant mining runtime: supervision, checkpointing, fault injection.

The serial miner (:mod:`repro.core.miner`) runs in one process and assumes
it completes.  This package adds branch parallelism and the operational
layer for long or flaky runs:

* :mod:`repro.runtime.supervisor` — branch-parallel mining:
  :func:`run_supervised` / :func:`mine_pfci_supervised` split the search at
  its root branches (:func:`~repro.runtime.supervisor.plan_root_branches`)
  and add per-branch timeouts, bounded retries, ``BrokenProcessPool``
  recovery, and an inline last-resort execution path;
  :func:`mine_pfci_parallel` is its fail-fast form, which raises
  :class:`BranchFailedError` rather than return a partial list;
* :mod:`repro.runtime.checkpoint` — durable append-only JSONL branch
  checkpoints with config fingerprinting, and :func:`resume` to continue an
  interrupted run bit-identically;
* :mod:`repro.runtime.sharding` — :func:`run_sharded` /
  :func:`mine_pfci_sharded`: shard-partitioned mining where each shard is a
  supervised failure domain, per-shard support DPs merge bit-identically
  into the global screen, and a registry-resolved shard-loss policy decides
  between failing strictly and degrading to certified support/frequency
  bounds (``docs/robustness.md``);
* :mod:`repro.runtime.faults` — the deterministic chaos harness
  (:class:`FaultPlan`): scripted crash/hang/exit/slow-IO faults per branch
  *and* per shard, used by the robustness suite and the CI chaos-smoke job.
"""

from .checkpoint import (
    Checkpoint,
    CheckpointCancelledError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointWriteError,
    CheckpointWriter,
    ShardScanRecord,
    config_fingerprint,
    database_sha256,
    fingerprint,
    has_checkpoint_header,
    load_checkpoint,
    validate_fingerprint,
)
from .faults import BranchFault, FaultInjected, FaultPlan
from .sharding import (
    ShardIntegrityError,
    ShardLossError,
    ShardMergeError,
    ShardOutcome,
    ShardSet,
    ShardSpec,
    ShardedReport,
    degrade_bounds_policy,
    fail_strict_policy,
    mine_pfci_sharded,
    run_sharded,
    sharded_fingerprint,
)
from .supervisor import (
    BranchFailedError,
    BranchOutcome,
    SupervisorConfig,
    SupervisorReport,
    mine_pfci_parallel,
    mine_pfci_supervised,
    resume,
    run_supervised,
)

__all__ = [
    "BranchFailedError",
    "BranchFault",
    "BranchOutcome",
    "Checkpoint",
    "CheckpointCancelledError",
    "CheckpointError",
    "CheckpointMismatchError",
    "CheckpointWriteError",
    "CheckpointWriter",
    "FaultInjected",
    "FaultPlan",
    "ShardIntegrityError",
    "ShardLossError",
    "ShardMergeError",
    "ShardOutcome",
    "ShardScanRecord",
    "ShardSet",
    "ShardSpec",
    "ShardedReport",
    "SupervisorConfig",
    "SupervisorReport",
    "config_fingerprint",
    "database_sha256",
    "degrade_bounds_policy",
    "fail_strict_policy",
    "fingerprint",
    "has_checkpoint_header",
    "load_checkpoint",
    "mine_pfci_parallel",
    "mine_pfci_sharded",
    "mine_pfci_supervised",
    "resume",
    "run_sharded",
    "run_supervised",
    "sharded_fingerprint",
    "validate_fingerprint",
]
