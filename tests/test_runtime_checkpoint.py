"""Checkpoint/resume tests: durability, bit-identical continuation, refusal.

The contract under test (docs/robustness.md): interrupting a supervised run
and resuming from its checkpoint yields the *same* results — bit-identical
probabilities, same ordering — and merged stats equal to the uninterrupted
run's on every mining counter; a checkpoint from a different (database,
config) pair is refused with a named mismatch.
"""

import copy
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import MinerConfig
from repro.core.database import UncertainDatabase, paper_table2_database
from repro.core.miner import MPFCIMiner, ProbabilisticFrequentClosedItemset
from repro.core.stats import MiningStats
from repro.runtime import (
    BranchFailedError,
    BranchFault,
    CheckpointError,
    CheckpointMismatchError,
    FaultPlan,
    ShardSet,
    SupervisorConfig,
    config_fingerprint,
    load_checkpoint,
    resume,
    run_sharded,
    run_supervised,
    validate_fingerprint,
)
from repro.runtime import checkpoint as checkpoint_module
from repro.runtime.checkpoint import (
    FORMAT_VERSION,
    CheckpointWriter,
    deserialize_result,
    fingerprint,
    serialize_result,
)
from tests.strategies import random_uncertain_database

# Mining counters must merge identically across interrupted and
# uninterrupted runs; supervision/checkpoint bookkeeping legitimately
# differs (a resumed run dispatches fewer branches and skips some), and
# wall-clock floats are never comparable.
SUPERVISION_FIELDS = {
    "branches_dispatched",
    "branch_retries",
    "branch_timeouts",
    "branch_collateral_restarts",
    "pool_rebuilds",
    "branches_recovered_inline",
    "branches_failed",
    "checkpoint_branches_written",
    "checkpoint_branches_skipped",
}


def mining_counters(stats: MiningStats):
    return {
        name: value
        for name, value in stats.as_dict().items()
        if isinstance(value, int) and name not in SUPERVISION_FIELDS
    }


def result_key(results):
    return [
        (
            result.itemset,
            result.probability,
            result.lower,
            result.upper,
            result.method,
            result.frequent_probability,
            result.provenance,
        )
        for result in results
    ]


@pytest.fixture(scope="module")
def database():
    return paper_table2_database()


@pytest.fixture(scope="module")
def config():
    return MinerConfig(min_sup=2, pfct=0.5, exact_event_limit=12, seed=7)


class TestSerialization:
    def test_result_roundtrip_is_bitwise(self):
        result = ProbabilisticFrequentClosedItemset(
            itemset=("a", "c"),
            probability=0.1 + 0.2,  # 0.30000000000000004: repr-exact roundtrip
            lower=1.0 / 3.0,
            upper=2.0 / 3.0,
            method="sampled",
            frequent_probability=0.875400000000001,
            provenance="approx-degraded",
        )
        payload = json.loads(json.dumps(serialize_result(result)))
        assert deserialize_result(payload) == result

    def test_provenance_defaults_to_exact_on_old_records(self):
        payload = serialize_result(
            ProbabilisticFrequentClosedItemset(("a",), 0.9, 0.9, 0.9, "exact", 0.9)
        )
        del payload["provenance"]
        assert deserialize_result(payload).provenance == "exact"


class TestCheckpointFile:
    def test_roundtrip(self, tmp_path, database, config):
        path = tmp_path / "run.ckpt"
        report = run_supervised(database, config, processes=2, checkpoint_path=path)
        checkpoint = load_checkpoint(path)
        assert checkpoint.fingerprint == config_fingerprint(database, config)
        assert len(checkpoint.branches) == len(report.outcomes)
        restored = [
            result
            for rank in sorted(checkpoint.branches)
            for result in checkpoint.branches[rank].results
        ]
        restored.sort(key=lambda result: (len(result.itemset), result.itemset))
        assert result_key(restored) == result_key(report.results)
        assert report.stats.checkpoint_branches_written == len(checkpoint.branches)

    def test_truncated_final_line_is_tolerated(self, tmp_path, database, config):
        path = tmp_path / "run.ckpt"
        run_supervised(database, config, processes=2, checkpoint_path=path)
        complete = load_checkpoint(path)
        # Simulate a crash mid-append: the last line is half-written.
        text = path.read_text()
        keep = text.rindex("\n", 0, len(text) - 1) + 1
        path.write_text(text[:keep] + '{"kind": "bra')
        truncated = load_checkpoint(path)
        assert len(truncated.branches) == len(complete.branches) - 1
        assert truncated.valid_bytes == keep

    def test_unterminated_final_line_is_discarded_even_if_it_parses(
        self, tmp_path, database, config
    ):
        """A crash can land between the payload write and its newline hitting
        disk; the line parses but was never durably committed."""
        path = tmp_path / "run.ckpt"
        run_supervised(database, config, processes=2, checkpoint_path=path)
        complete = load_checkpoint(path)
        assert complete.valid_bytes == path.stat().st_size
        text = path.read_text()
        path.write_text(text[:-1])  # strip only the final newline
        truncated = load_checkpoint(path)
        assert len(truncated.branches) == len(complete.branches) - 1
        assert truncated.valid_bytes == text.rindex("\n", 0, len(text) - 1) + 1

    def test_mid_file_corruption_raises(self, tmp_path, database, config):
        path = tmp_path / "run.ckpt"
        run_supervised(database, config, processes=2, checkpoint_path=path)
        lines = path.read_text().splitlines(True)
        lines[1] = "NOT JSON\n"
        path.write_text("".join(lines))
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(path)

    def test_missing_or_headerless_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            load_checkpoint(tmp_path / "absent.ckpt")
        path = tmp_path / "headerless.ckpt"
        path.write_text('{"kind": "branch", "rank": 0}\n')
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(path)

    def test_fresh_writer_truncates(self, tmp_path, database, config):
        path = tmp_path / "run.ckpt"
        path.write_text("stale content that is not a checkpoint\n")
        with CheckpointWriter(path, config_fingerprint(database, config)):
            pass
        checkpoint = load_checkpoint(path)
        assert checkpoint.branches == {}


def _without(record, key):
    return {name: value for name, value in record.items() if name != key}


# Each case turns (header, a branch record with results) into the records of
# a damaged file; every one must fail with CheckpointError.
MALFORMED = {
    "first line is an array": lambda header, branch: [[header], branch],
    "first line is a number": lambda header, branch: [7, branch],
    "branch without rank": lambda header, branch: [header, _without(branch, "rank")],
    "branch without results": lambda header, branch: [
        header, _without(branch, "results")
    ],
    "result without probability": lambda header, branch: [
        header,
        dict(branch, results=[_without(branch["results"][0], "probability")]),
    ],
    "later line is an array": lambda header, branch: [header, [branch]],
    "later line is a string": lambda header, branch: [header, "branch"],
    "shard index is a string": lambda header, branch: [
        header, {"kind": "shard-scan", "shard": "x", "transactions": 64, "items": []}
    ],
    "scan items are numbers": lambda header, branch: [
        header, {"kind": "shard-scan", "shard": 0, "transactions": 64, "items": [1]}
    ],
    "stats is an array": lambda header, branch: [header, dict(branch, stats=[])],
    "stats counter is a string": lambda header, branch: [
        header, dict(branch, stats={"nodes_visited": "3"})
    ],
    "rank is a boolean": lambda header, branch: [header, dict(branch, rank=True)],
    "cancelled ranks are strings": lambda header, branch: [
        header, {"kind": "cancelled", "ranks": ["1"]}
    ],
    "unknown record kind": lambda header, branch: [header, dict(branch, kind="x")],
}


def _write_records(path, records):
    path.write_text("".join(json.dumps(record) + "\n" for record in records))


class TestMalformedRecords:
    @pytest.fixture
    def real_records(self, tmp_path, database, config):
        path = tmp_path / "real.ckpt"
        run_supervised(database, config, processes=1, checkpoint_path=path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        branch = next(record for record in records[1:] if record["results"])
        return records[0], branch

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_raises_checkpoint_error_naming_file_and_line(
        self, tmp_path, real_records, case
    ):
        records = MALFORMED[case](*real_records)
        path = tmp_path / "damaged.ckpt"
        _write_records(path, records)
        with pytest.raises(CheckpointError) as caught:
            load_checkpoint(path)
        assert str(path) in str(caught.value)
        if isinstance(records[0], dict):
            assert f"{path}:2:" in str(caught.value)


@pytest.fixture(scope="module")
def real_checkpoint(tmp_path_factory):
    """Every record kind, as the writers produce them: a sharded run's
    header, shard-scan and branch records, then a shard-lost and a
    cancelled record."""
    path = tmp_path_factory.mktemp("real") / "run.ckpt"
    database = random_uncertain_database(random.Random(5), rows=150, items="abcd")
    shards = ShardSet.from_database(database, 3)
    run_sharded(shards, MinerConfig(min_sup=20, pfct=0.5), processes=1, checkpoint_path=path)
    checkpoint = load_checkpoint(path)
    assert checkpoint.shard_scans and any(
        record.results for record in checkpoint.branches.values()
    )
    with CheckpointWriter(path, checkpoint.fingerprint, fresh=False) as writer:
        writer.write_shard_lost(2, "scan timed out")
        writer.write_cancelled([0, 1])
    records = [json.loads(line) for line in path.read_text().splitlines()]
    return checkpoint.fingerprint, records


_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=70),
    st.floats(allow_nan=False),
    st.text(max_size=2),
    st.lists(st.integers(min_value=0, max_value=2), max_size=2),
    st.dictionaries(st.sampled_from(["kind", "rank", "x"]), st.integers(), max_size=1),
)


def _locations(value, prefix=()):
    """The key path of every value nested inside a decoded JSON record."""
    if isinstance(value, dict):
        children = list(value.items())
    elif isinstance(value, list):
        children = list(enumerate(value))
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _locations(child, prefix + (key,))


@st.composite
def mutated_records(draw, records):
    """Drop a key, change a value's type, or replace a whole record with a
    JSON scalar or array, on one line of ``records``."""
    records = copy.deepcopy(records)
    line = draw(st.integers(min_value=0, max_value=len(records) - 1))
    mutation = draw(st.sampled_from(["drop", "retype", "replace"]))
    if mutation == "replace":
        records[line] = draw(st.one_of(_JSON_VALUES, st.lists(_JSON_VALUES, max_size=2)))
        return records
    location = draw(st.sampled_from(list(_locations(records[line]))))
    parent = records[line]
    for key in location[:-1]:
        parent = parent[key]
    if mutation == "drop":
        del parent[location[-1]]
    else:
        parent[location[-1]] = draw(_JSON_VALUES)
    return records


@given(data=st.data())
def test_mutated_checkpoint_loads_or_raises_checkpoint_error(real_checkpoint, data):
    expected, records = real_checkpoint
    mutated = data.draw(mutated_records(records))
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "mutated.ckpt"
        _write_records(path, mutated)
        try:
            checkpoint = load_checkpoint(path)
            validate_fingerprint(checkpoint.fingerprint, expected, path)
        except CheckpointError:
            pass


class TestResume:
    def test_interrupted_run_resumes_bit_identically(self, tmp_path, database, config):
        """The acceptance scenario: a run is killed partway (fail_fast on an
        always-faulting branch), then resumed without the fault.  Results
        and merged mining counters equal the uninterrupted run's."""
        uninterrupted = run_supervised(database, config, processes=2)

        path = tmp_path / "run.ckpt"
        plan = FaultPlan({3: BranchFault("raise", attempts=99)})
        with pytest.raises(BranchFailedError):
            run_supervised(
                database, config, processes=2, checkpoint_path=path,
                supervisor=SupervisorConfig(max_retries=0, fail_fast=True),
                fault_plan=plan,
            )
        interrupted = load_checkpoint(path)
        assert 0 < len(interrupted.branches) < len(uninterrupted.outcomes)

        resumed = resume(database, config, path, processes=2)
        assert result_key(resumed.results) == result_key(uninterrupted.results)
        assert mining_counters(resumed.stats) == mining_counters(uninterrupted.stats)
        assert resumed.stats.checkpoint_branches_skipped == len(interrupted.branches)
        statuses = {o.rank: o.status for o in resumed.outcomes}
        for rank in interrupted.branches:
            assert statuses[rank] == "checkpointed"

        # The checkpoint now holds every branch: resuming again mines nothing.
        idle = resume(database, config, path, processes=2)
        assert result_key(idle.results) == result_key(uninterrupted.results)
        assert idle.stats.branches_dispatched == 0

    def test_resume_refuses_mismatched_config(self, tmp_path, database, config):
        path = tmp_path / "run.ckpt"
        run_supervised(database, config, processes=2, checkpoint_path=path)
        with pytest.raises(CheckpointMismatchError, match="min_sup"):
            resume(database, config.variant(min_sup=3), path)
        with pytest.raises(CheckpointMismatchError, match="seed"):
            resume(database, config.variant(seed=8), path)

    def test_resume_refuses_mismatched_database(self, tmp_path, database, config):
        path = tmp_path / "run.ckpt"
        run_supervised(database, config, processes=2, checkpoint_path=path)
        smaller = UncertainDatabase(list(database)[:-1])
        with pytest.raises(CheckpointMismatchError, match="database_sha256"):
            resume(smaller, config, path)

    def test_resume_refuses_an_older_format(self, tmp_path, database, config):
        """A checkpoint written by code whose results differ is not replayed."""
        path = tmp_path / "run.ckpt"
        run_supervised(database, config, processes=2, checkpoint_path=path)
        lines = path.read_text().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["format"] = FORMAT_VERSION - 1
        header["fingerprint"]["format"] = FORMAT_VERSION - 1
        path.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
        with pytest.raises(CheckpointError, match="format"):
            resume(database, config, path, processes=2)

    def test_fingerprint_covers_the_format_version(
        self, monkeypatch, database, config
    ):
        """Service-cache keys move with the format, so no stale answer is served."""
        current = fingerprint(database, config)
        monkeypatch.setattr(checkpoint_module, "FORMAT_VERSION", FORMAT_VERSION - 1)
        assert fingerprint(database, config) != current

    def test_validate_fingerprint_names_first_difference(self, database, config):
        fingerprint = config_fingerprint(database, config)
        other = config_fingerprint(database, config.variant(pfct=0.25))
        with pytest.raises(CheckpointMismatchError, match="pfct"):
            validate_fingerprint(other, fingerprint, "x.ckpt")
        validate_fingerprint(fingerprint, dict(fingerprint), "x.ckpt")  # equal: ok

    def test_resume_after_truncated_tail_remines_that_branch(
        self, tmp_path, database, config
    ):
        path = tmp_path / "run.ckpt"
        uninterrupted = run_supervised(database, config, processes=2, checkpoint_path=path)
        text = path.read_text()
        path.write_text(text[: text.rindex("\n", 0, len(text) - 1) + 1] + '{"kind"')
        resumed = resume(database, config, path, processes=2)
        assert result_key(resumed.results) == result_key(uninterrupted.results)
        assert resumed.stats.branches_dispatched == 1

        # The resume must have truncated the partial tail before appending:
        # the healed file parses cleanly, holds every branch, and survives a
        # *second* crash/resume cycle (this used to merge the re-mined
        # record onto the partial line, corrupting the file mid-way).
        healed = load_checkpoint(path)
        assert len(healed.branches) == len(uninterrupted.outcomes)
        assert healed.valid_bytes == path.stat().st_size
        again = resume(database, config, path, processes=2)
        assert again.stats.branches_dispatched == 0
        assert result_key(again.results) == result_key(uninterrupted.results)

        text = path.read_text()
        path.write_text(text[: text.rindex("\n", 0, len(text) - 1) + 1] + '{"ki')
        twice = resume(database, config, path, processes=2)
        assert twice.stats.branches_dispatched == 1
        assert result_key(twice.results) == result_key(uninterrupted.results)
        assert load_checkpoint(path).valid_bytes == path.stat().st_size

    def test_fresh_checkpoint_refuses_to_overwrite_existing(
        self, tmp_path, database, config
    ):
        """--checkpoint on a path holding a previous run's checkpoint must
        not truncate it — that flag mix-up is exactly the interrupted-run
        scenario the feature protects."""
        path = tmp_path / "run.ckpt"
        first = run_supervised(database, config, processes=2, checkpoint_path=path)
        before = path.read_bytes()
        with pytest.raises(CheckpointError, match="already holds a checkpoint"):
            run_supervised(database, config, processes=2, checkpoint_path=path)
        assert path.read_bytes() == before  # untouched
        resumed = resume(database, config, path, processes=2)  # --resume still works
        assert result_key(resumed.results) == result_key(first.results)


class TestDiskFullDuringAppend:
    """ENOSPC (or any OSError) on a checkpoint append must fail loudly and
    locally: one actionable error, the durable prefix still resumable, the
    supervised run ending *failed* — never hung, never corrupted."""

    @staticmethod
    def _enospc_handle(handle):
        import errno
        import io

        class Full(io.TextIOBase):
            def fileno(self):
                return handle.fileno()

            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

        return Full()

    def test_writer_raises_actionable_error_and_retires(
        self, tmp_path, database, config
    ):
        from repro.runtime.checkpoint import CheckpointWriteError

        path = tmp_path / "run.ckpt"
        writer = CheckpointWriter(path, config_fingerprint(database, config))
        durable = path.read_bytes()
        writer._handle = self._enospc_handle(writer._handle)
        with pytest.raises(CheckpointWriteError, match="free disk space"):
            writer.write_shard_scan(0, 4, [])
        # Retired: later appends fail fast instead of corrupting the file.
        with pytest.raises(CheckpointError, match="writer is closed"):
            writer.write_branch(0, "a", [], MiningStats())
        # The durable prefix (the header) is still a loadable checkpoint.
        assert path.read_bytes() == durable
        loaded = load_checkpoint(path)
        validate_fingerprint(
            loaded.fingerprint, config_fingerprint(database, config), path
        )

    def test_supervised_run_fails_branch_but_never_hangs(
        self, tmp_path, database, config, monkeypatch
    ):
        from repro.runtime import checkpoint as checkpoint_module

        original = checkpoint_module.CheckpointWriter._write_line

        enospc = TestDiskFullDuringAppend._enospc_handle

        def failing(self, payload):
            # Poison the handle for branch records only: the write then
            # fails *inside* ``_write_line``, exercising the real
            # OSError → CheckpointWriteError wrapping and retirement.
            if payload.get("kind") == "branch" and self._handle is not None:
                self._handle = enospc(self._handle)
            return original(self, payload)

        monkeypatch.setattr(
            checkpoint_module.CheckpointWriter, "_write_line", failing
        )
        path = tmp_path / "run.ckpt"
        report = run_supervised(
            database, config, processes=2, checkpoint_path=path
        )
        assert not report.complete
        assert len(report.failed) >= 1
        for outcome in report.failed:
            assert "checkpoint append failed" in outcome.error
            assert "free disk space" in outcome.error
        # The header-only file is still a valid checkpoint; once space is
        # back (monkeypatch undone), resume completes bit-identically.
        monkeypatch.undo()
        serial = MPFCIMiner(database, config).mine()
        resumed = resume(database, config, path, processes=2)
        assert result_key(resumed.results) == result_key(serial)
