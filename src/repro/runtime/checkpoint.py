"""Append-only JSONL branch checkpoints for long mining runs.

Format: line 1 is a header record carrying the run's *config fingerprint*
(a SHA-256 of the database contents plus the full
:class:`~repro.core.config.MinerConfig`); every later line is one completed
root branch — its rank, branch item, serialized
:class:`~repro.core.miner.ProbabilisticFrequentClosedItemset` list, and the
branch's :class:`~repro.core.stats.MiningStats` delta::

    {"kind": "header", "format": 3, "fingerprint": {...}}
    {"kind": "branch", "rank": 0, "item": "a", "results": [...], "stats": {...}}
    {"kind": "branch", "rank": 3, "item": "d", "results": [...], "stats": {...}}

Sharded runs (:mod:`repro.runtime.sharding`) interleave two more record
kinds before the branch records.  A ``shard-scan`` record captures one
shard's complete per-item scan — for every item, the probabilities of the
shard's transactions containing it, in row order — which is everything the
merge phase needs, so a resumed run does not scan a finished shard again.
The mining phase still loads every surviving shard's rows, so a shard whose
file has since been lost is a merge-time loss that goes through the loss
policy::

    {"kind": "shard-scan", "shard": 1, "transactions": 64,
     "items": [["a", [0.9, 0.6]], ["b", [0.6]]]}

and a ``shard-lost`` record durably marks a shard whose retries exhausted
under the ``degrade-bounds`` loss policy, so a resumed run degrades
identically instead of quietly retrying its way back to full fidelity::

    {"kind": "shard-lost", "shard": 2, "reason": "scan timed out after ..."}

A cooperatively cancelled run appends one final record naming every branch
it abandoned::

    {"kind": "cancelled", "ranks": [1, 2]}

which turns the file from "resumable" into "deliberately abandoned":
:func:`load_checkpoint` surfaces it as ``Checkpoint.cancelled`` and the
supervisor's resume path refuses such a file with
:class:`CheckpointCancelledError` instead of silently resurrecting killed
work.

Each branch line is written as a single ``write()`` of the full line
followed by ``flush`` + ``fsync``, so a crash can at worst leave one
truncated *final* line — which :func:`load_checkpoint` tolerates and
discards (the branch simply re-runs on resume).  A line missing its
terminating newline is treated as truncated even if its prefix parses as
JSON, because it was never durably committed.  A malformed line anywhere
*before* the end is corruption and raises :class:`CheckpointError`.

:func:`load_checkpoint` also reports ``valid_bytes`` — the file offset just
past the last durable record.  Resume passes it to
``CheckpointWriter(fresh=False, truncate_to=...)``, which truncates the
crash-damaged tail before appending; without that, the first re-mined
branch would be written onto the partial line, merging into one corrupt
record mid-file and making every later load fail.

Resume safety rests on the fingerprint: branch decomposition, every
pruning decision and every sampled check's stream are functions of
(database, config), so a checkpoint is only replayable against the exact
pair that produced it.
:func:`validate_fingerprint` raises :class:`CheckpointMismatchError` naming
the first differing field otherwise.

Floats survive the JSON round-trip bit-for-bit (Python serializes them via
``repr``, which is shortest-exact), which is what makes resumed runs
*bit-identical* to uninterrupted ones — asserted in
``tests/test_runtime_checkpoint.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..core.config import MinerConfig
from ..core.database import UncertainDatabase
from ..core.itemsets import Item
from ..core.miner import ProbabilisticFrequentClosedItemset
from ..core.stats import MiningStats

__all__ = [
    "CheckpointCancelledError",
    "CheckpointError",
    "CheckpointMismatchError",
    "CheckpointWriteError",
    "CheckpointWriter",
    "BranchRecord",
    "Checkpoint",
    "ShardScanRecord",
    "config_fingerprint",
    "database_sha256",
    "fingerprint",
    "has_checkpoint_header",
    "load_checkpoint",
    "open_checkpoint",
    "validate_fingerprint",
]

# Bumped whenever a code change moves result bits, so checkpoints and
# service-cache entries of the old code stop matching (2: Pr_F clamped to 1,
# zero-probability events dropped before their DP; 3: each sampled check
# draws from a stream seeded by (seed, itemset), not from a run-wide one).
FORMAT_VERSION = 3

PathLike = Union[str, Path]


class CheckpointError(ValueError):
    """A checkpoint file is missing, corrupt, or structurally invalid."""


class CheckpointMismatchError(CheckpointError):
    """A checkpoint's fingerprint does not match the (database, config) pair."""


class CheckpointWriteError(CheckpointError):
    """A checkpoint append failed at the OS level (disk full, read-only fs).

    Raised instead of letting the underlying :class:`OSError` propagate so
    the supervisor can fail *one branch* with an actionable message and keep
    draining the rest of the run, rather than hanging or dying mid-loop.
    The file's durable prefix (everything up to the last fsynced record) is
    still a valid, resumable checkpoint.
    """


class CheckpointCancelledError(CheckpointError):
    """A checkpoint carries a cancellation record and may not be resumed.

    A cancelled run was abandoned *deliberately* — resuming it silently
    would resurrect work the operator killed, and (worse) let a service
    publish the eventual results as if the job had run to completion.
    Callers that really want the work re-done submit a fresh run instead.
    """


# ----------------------------------------------------------------------
# fingerprinting
# ----------------------------------------------------------------------
def database_sha256(database: UncertainDatabase) -> str:
    """Stable content hash of an uncertain database.

    Hashes every row's ``(tid, probability, items)`` in position order;
    probabilities use ``repr`` so the hash is exact, not formatted.
    """
    digest = hashlib.sha256()
    for txn in database:
        row = "\t".join(
            [txn.tid, repr(txn.probability), " ".join(str(item) for item in txn.items)]
        )
        digest.update(row.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def config_fingerprint(
    database: UncertainDatabase, config: MinerConfig
) -> Dict[str, Any]:
    """The identity a checkpoint is valid against: database hash + full config."""
    return {
        "format": FORMAT_VERSION,
        "database_sha256": database_sha256(database),
        "transactions": len(database),
        "config": asdict(config),
    }


def fingerprint(database: UncertainDatabase, config: MinerConfig) -> str:
    """One sha256 hex digest identifying a (database, config) pair.

    The digest is computed over the canonical JSON form of
    :func:`config_fingerprint` — the exact structure checkpoint headers
    store — so a checkpoint and any content-addressed artifact (e.g. the
    service result cache, :mod:`repro.service.cache`) agree on identity by
    construction: equal digests iff :func:`validate_fingerprint` would
    accept the pair.
    """
    canonical = json.dumps(config_fingerprint(database, config), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def validate_fingerprint(
    recorded: Dict[str, Any], expected: Dict[str, Any], path: PathLike
) -> None:
    """Raise :class:`CheckpointMismatchError` naming the first differing field."""
    if recorded == expected:
        return
    for key in ("format", "database_sha256", "transactions"):
        if recorded.get(key) != expected.get(key):
            raise CheckpointMismatchError(
                f"{path}: checkpoint {key} {recorded.get(key)!r} does not match "
                f"this run's {expected.get(key)!r}"
            )
    recorded_config = recorded.get("config")
    expected_config = expected.get("config")
    if not isinstance(recorded_config, dict):
        recorded_config = {}
    if not isinstance(expected_config, dict):
        expected_config = {}
    for key in sorted(set(recorded_config) | set(expected_config)):
        if recorded_config.get(key) != expected_config.get(key):
            raise CheckpointMismatchError(
                f"{path}: checkpoint was written with {key}="
                f"{recorded_config.get(key)!r} but this run has "
                f"{key}={expected_config.get(key)!r}"
            )
    # Sharded fingerprints extend the structure with extra top-level keys
    # ("shards", "shard_policy"); name the first of those that differs too.
    for key in sorted(
        (set(recorded) | set(expected))
        - {"format", "database_sha256", "transactions", "config"}
    ):
        if recorded.get(key) != expected.get(key):
            raise CheckpointMismatchError(
                f"{path}: checkpoint {key} {recorded.get(key)!r} does not match "
                f"this run's {expected.get(key)!r}"
            )
    raise CheckpointMismatchError(f"{path}: checkpoint fingerprint mismatch")


# ----------------------------------------------------------------------
# result (de)serialization
# ----------------------------------------------------------------------
def serialize_result(result: ProbabilisticFrequentClosedItemset) -> Dict[str, Any]:
    """JSON form preserving item values (unlike ``to_dict``, which stringifies)."""
    payload = {
        "itemset": list(result.itemset),
        "probability": result.probability,
        "lower": result.lower,
        "upper": result.upper,
        "method": result.method,
        "frequent_probability": result.frequent_probability,
        "provenance": result.provenance,
    }
    if result.frequency_bounds is not None:
        payload["frequency_bounds"] = list(result.frequency_bounds)
    if result.support_bounds is not None:
        payload["support_bounds"] = list(result.support_bounds)
    return payload


def _bounds_pair(raw: Any) -> Any:
    return None if raw is None else (raw[0], raw[1])


def deserialize_result(payload: Dict[str, Any]) -> ProbabilisticFrequentClosedItemset:
    return ProbabilisticFrequentClosedItemset(
        itemset=tuple(payload["itemset"]),
        probability=payload["probability"],
        lower=payload["lower"],
        upper=payload["upper"],
        method=payload["method"],
        frequent_probability=payload["frequent_probability"],
        provenance=payload.get("provenance", "exact"),
        frequency_bounds=_bounds_pair(payload.get("frequency_bounds")),
        support_bounds=_bounds_pair(payload.get("support_bounds")),
    )


class _MalformedRecord(ValueError):
    """A checkpoint record lacks a field or holds a value of the wrong type."""


_ABSENT = object()


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_str(value: Any) -> bool:
    return isinstance(value, str)


def _is_item(value: Any) -> bool:
    return isinstance(value, str) or _is_number(value)


def _is_list(value: Any) -> bool:
    return isinstance(value, list)


def _is_list_of(valid: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda value: _is_list(value) and all(map(valid, value))


def _is_bounds(value: Any) -> bool:
    return value is None or (_is_list_of(_is_number)(value) and len(value) == 2)


def _is_scan_item(value: Any) -> bool:
    """One ``[item, [probability, ...]]`` pair of a ``shard-scan`` record."""
    return (
        isinstance(value, list)
        and len(value) == 2
        and _is_item(value[0])
        and _is_list_of(_is_number)(value[1])
    )


def _is_stats(value: Any) -> bool:
    """A stats snapshot: an object whose known counters are all numbers."""
    known = MiningStats.__dataclass_fields__
    return isinstance(value, dict) and all(
        _is_number(count) for name, count in value.items() if name in known
    )


def _field(
    record: Dict[str, Any],
    name: str,
    valid: Callable[[Any], bool],
    default: Any = _ABSENT,
) -> Any:
    """``record[name]`` once ``valid`` accepts it; ``default`` when absent
    (a missing field without a default is malformed)."""
    if name not in record:
        if default is _ABSENT:
            raise _MalformedRecord(f"no {name!r} field")
        return default
    value = record[name]
    if not valid(value):
        raise _MalformedRecord(f"field {name!r} holds {value!r:.80}")
    return value


def _read_result(payload: Any) -> ProbabilisticFrequentClosedItemset:
    if not isinstance(payload, dict):
        raise _MalformedRecord(f"result {payload!r:.80} is not an object")
    _field(payload, "itemset", _is_list_of(_is_item))
    for name in ("probability", "lower", "upper", "frequent_probability"):
        _field(payload, name, _is_number)
    _field(payload, "method", _is_str)
    _field(payload, "provenance", _is_str, default=None)
    _field(payload, "frequency_bounds", _is_bounds, default=None)
    _field(payload, "support_bounds", _is_bounds, default=None)
    return deserialize_result(payload)


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
@dataclass
class BranchRecord:
    """One completed branch recovered from a checkpoint."""

    rank: int
    item: Item
    results: List[ProbabilisticFrequentClosedItemset]
    stats: MiningStats


@dataclass
class ShardScanRecord:
    """One completed shard scan recovered from a sharded checkpoint.

    ``items`` maps each of the shard's items to the probabilities of the
    shard's transactions that contain it, in shard row order — the exact
    inputs the merge phase feeds back through the support DP, so floats
    must survive the JSON round-trip bit-for-bit (they do; see module
    docstring).
    """

    shard: int
    transactions: int
    items: List[Any]  # [item, [probability, ...]] pairs, shard item order


@dataclass
class Checkpoint:
    """A parsed checkpoint: fingerprint plus completed branches by rank.

    ``valid_bytes`` is the file offset just past the last durable
    (newline-terminated, valid-JSON) record; anything beyond it is a
    crash-truncated tail that resume must cut off before appending.
    Sharded runs additionally carry ``shard_scans`` (finished scans by
    shard index) and ``lost_shards`` (shard index → loss reason).
    """

    fingerprint: Dict[str, Any]
    branches: Dict[int, BranchRecord]
    valid_bytes: int = 0
    #: True when the run that wrote this file was cooperatively cancelled;
    #: ``cancelled_ranks`` lists the branches it abandoned.
    cancelled: bool = False
    cancelled_ranks: List[int] = field(default_factory=list)
    shard_scans: Dict[int, ShardScanRecord] = field(default_factory=dict)
    lost_shards: Dict[int, str] = field(default_factory=dict)


def load_checkpoint(path: PathLike) -> Checkpoint:
    """Parse a checkpoint file, tolerating a truncated final line.

    Raises :class:`CheckpointError` when the file is missing, has no valid
    header, is corrupt anywhere before its last line, or holds a record
    whose kind, fields or field types are wrong (naming the file and line).
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"{path}: checkpoint file does not exist")
    data = path.read_bytes()
    if not data:
        raise CheckpointError(f"{path}: checkpoint file is empty")

    raw_lines = data.splitlines(keepends=True)
    records: List[Tuple[int, Any]] = []
    valid_bytes = 0
    consumed = 0
    for number, raw in enumerate(raw_lines, start=1):
        consumed += len(raw)
        final = number == len(raw_lines)
        terminated = raw.endswith(b"\n")
        if not raw.strip():
            if terminated:
                valid_bytes = consumed
            continue
        if not terminated:
            # A line without its newline was never durably committed: a
            # crash mid-append leaves exactly one such partial final line
            # (possibly a valid-JSON prefix), and the branch it described
            # simply re-runs on resume.
            if final:
                break
            raise CheckpointError(f"{path}:{number}: unterminated checkpoint line")
        try:
            records.append((number, json.loads(raw.decode("utf-8"))))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            if final:
                break
            raise CheckpointError(
                f"{path}:{number}: corrupt checkpoint line: {error}"
            ) from error
        valid_bytes = consumed

    header = records[0][1] if records else None
    if not isinstance(header, dict) or header.get("kind") != "header":
        raise CheckpointError(f"{path}: first line is not a checkpoint header")
    if header.get("format") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint format {header.get('format')!r}"
        )
    fingerprint = header.get("fingerprint")
    if not isinstance(fingerprint, dict):
        raise CheckpointError(f"{path}: header carries no fingerprint")

    branches: Dict[int, BranchRecord] = {}
    cancelled = False
    cancelled_ranks: List[int] = []
    shard_scans: Dict[int, ShardScanRecord] = {}
    lost_shards: Dict[int, str] = {}
    for number, record in records[1:]:
        try:
            kind = record.get("kind") if isinstance(record, dict) else None
            if kind == "cancelled":
                cancelled = True
                cancelled_ranks.extend(
                    _field(record, "ranks", _is_list_of(_is_int), default=[])
                )
            elif kind == "shard-scan":
                shard = _field(record, "shard", _is_int)
                shard_scans[shard] = ShardScanRecord(
                    shard=shard,
                    transactions=_field(record, "transactions", _is_int),
                    items=[
                        [item, list(probs)]
                        for item, probs in _field(
                            record, "items", _is_list_of(_is_scan_item)
                        )
                    ],
                )
            elif kind == "shard-lost":
                shard = _field(record, "shard", _is_int)
                lost_shards[shard] = _field(record, "reason", _is_str, default="")
            elif kind == "branch":
                rank = _field(record, "rank", _is_int)
                branches[rank] = BranchRecord(
                    rank=rank,
                    item=_field(record, "item", _is_item),
                    results=[
                        _read_result(entry)
                        for entry in _field(record, "results", _is_list)
                    ],
                    stats=MiningStats.from_snapshot(
                        _field(record, "stats", _is_stats)
                    ),
                )
            elif isinstance(record, dict):
                raise _MalformedRecord(f"unexpected record kind {kind!r}")
            else:
                raise _MalformedRecord(f"{record!r:.80} is not an object")
        except _MalformedRecord as error:
            raise CheckpointError(
                f"{path}:{number}: malformed checkpoint record: {error}"
            ) from None
    return Checkpoint(
        fingerprint=fingerprint,
        branches=branches,
        valid_bytes=valid_bytes,
        cancelled=cancelled,
        cancelled_ranks=sorted(set(cancelled_ranks)),
        shard_scans=shard_scans,
        lost_shards=lost_shards,
    )


def has_checkpoint_header(path: PathLike) -> bool:
    """True when ``path`` exists and its first line is a checkpoint header.

    Used to refuse starting a *fresh* run onto a path that already holds a
    previous run's checkpoint — truncating it on a ``--checkpoint`` /
    ``--resume`` mix-up would destroy exactly the progress the feature
    exists to preserve.
    """
    path = Path(path)
    try:
        with path.open("rb") as handle:
            first = handle.readline()
    except OSError:
        return False
    try:
        record = json.loads(first.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        return False
    return isinstance(record, dict) and record.get("kind") == "header"


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
class CheckpointWriter:
    """Append-only writer; one durable line per completed branch.

    ``fresh=True`` truncates and writes a new header; ``fresh=False``
    (resume) appends to the existing file, whose header must already have
    been validated by the caller.  On resume, pass the loaded checkpoint's
    ``valid_bytes`` as ``truncate_to`` so a crash-truncated tail is cut off
    before the first append — otherwise the new record would merge with the
    partial line into mid-file corruption that no later load tolerates.
    """

    def __init__(
        self,
        path: PathLike,
        fingerprint: Dict[str, Any],
        fresh: bool = True,
        truncate_to: Optional[int] = None,
    ) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        mode = "w" if fresh else "a"
        self._handle: Optional[Any] = self.path.open(mode, encoding="utf-8")
        if fresh:
            self._write_line(
                {
                    "kind": "header",
                    "format": FORMAT_VERSION,
                    "fingerprint": fingerprint,
                }
            )
        elif truncate_to is not None:
            # Append mode writes at EOF regardless of position, so after
            # the truncate every new record starts on its own line.
            self._handle.truncate(truncate_to)
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def _write_line(self, payload: Dict[str, Any]) -> None:
        if self._handle is None:
            raise CheckpointError(f"{self.path}: writer is closed")
        try:
            self._handle.write(json.dumps(payload, sort_keys=True) + "\n")
            self._handle.flush()
            os.fsync(self._handle.fileno())
        except OSError as error:
            # Disk full / read-only fs / quota: the handle may now hold a
            # partial line, so retire it — the durable prefix on disk is
            # still a valid checkpoint, and the caller fails just this
            # record instead of hanging or corrupting later appends.
            handle, self._handle = self._handle, None
            try:
                handle.close()
            except OSError:
                pass
            reason = error.strerror or str(error)
            raise CheckpointWriteError(
                f"{self.path}: checkpoint append failed ({reason}) — free disk "
                "space or point the checkpoint at a writable volume and resume; "
                "progress up to the last durable record is preserved"
            ) from error

    def write_branch(
        self,
        rank: int,
        item: Item,
        results: List[ProbabilisticFrequentClosedItemset],
        stats: MiningStats,
    ) -> None:
        """Durably record one completed branch (results + stats delta)."""
        self._write_line(
            {
                "kind": "branch",
                "rank": rank,
                "item": item,
                "results": [serialize_result(result) for result in results],
                "stats": stats.as_dict(),
            }
        )

    def write_shard_scan(
        self, shard: int, transactions: int, items: List[Any]
    ) -> None:
        """Durably record one finished shard scan (per-item probabilities).

        ``items`` is a list of ``[item, [probability, ...]]`` pairs in shard
        item order; a resumed run replays the record instead of scanning
        the shard again.  The mining phase still loads the shard's rows, so
        if its file has since been lost the shard is a merge-time loss that
        the loss policy decides.
        """
        self._write_line(
            {
                "kind": "shard-scan",
                "shard": shard,
                "transactions": transactions,
                "items": items,
            }
        )

    def write_shard_lost(self, shard: int, reason: str) -> None:
        """Durably mark a shard as lost under a degrading loss policy.

        Once recorded, a resumed run treats the shard as lost without
        retrying it, so the resumed results (and their ``shard-degraded``
        provenance) match the run that first declared the loss.
        """
        self._write_line({"kind": "shard-lost", "shard": shard, "reason": reason})

    def write_cancelled(self, ranks: List[int]) -> None:
        """Durably mark the run as cancelled, naming the abandoned branches.

        After this record the file is no longer resumable
        (:class:`CheckpointCancelledError` on resume) — the cancellation is
        as durable as the progress it interrupts, so a restarted service
        cannot mistake a killed job for an interrupted one.
        """
        self._write_line({"kind": "cancelled", "ranks": sorted(ranks)})

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def open_checkpoint(
    path: PathLike, fingerprint: Dict[str, Any], resume: bool
) -> Tuple[CheckpointWriter, Optional[Checkpoint]]:
    """Open the checkpoint of a run whose identity is ``fingerprint``.

    A fresh run (``resume=False``) refuses a path that already holds a
    checkpoint, so a ``--checkpoint`` / ``--resume`` mix-up cannot truncate
    a previous run's progress, and starts a new file.  A resumed run loads
    the file, refuses it if it was cancelled
    (:class:`CheckpointCancelledError`), validates its fingerprint
    (:class:`CheckpointMismatchError`), and reopens it for appending with
    any crash-damaged tail cut off at ``valid_bytes``.

    Returns the writer and, on resume, the loaded checkpoint.
    """
    if not resume:
        if has_checkpoint_header(path):
            raise CheckpointError(
                f"{path}: already holds a checkpoint; resume "
                "from it (CLI: --resume) or delete the file to start over"
            )
        return CheckpointWriter(path, fingerprint, fresh=True), None
    checkpoint = load_checkpoint(path)
    if checkpoint.cancelled:
        raise CheckpointCancelledError(
            f"{path}: this run was cancelled; a cancelled checkpoint cannot be "
            "resumed — delete the file and start a fresh run"
        )
    validate_fingerprint(checkpoint.fingerprint, fingerprint, path)
    writer = CheckpointWriter(
        path, fingerprint, fresh=False, truncate_to=checkpoint.valid_bytes
    )
    return writer, checkpoint
