"""The ``.utdz`` zero-copy columnar format: round-trips, identity, failure.

Three contracts matter:

* **Round-trip** — a columnar save/load describes the identical database as
  the text parse it came from: same transactions, same items, and
  bit-exact float64 probabilities (the text format rounds to decimal
  digits; the columnar format must not lose anything *further*).
* **Identity** — ``repro.runtime.fingerprint`` is computed over database
  contents, so a text load and a columnar load of the same data must hash
  identically; that equality is what lets the service's content-addressed
  result cache serve jobs regardless of which format materialized them.
* **Failure** — a damaged file must fail loudly with a
  :class:`ColumnarFormatError` naming the file and the defect, never
  produce a silently-wrong database.
"""

from __future__ import annotations

import functools
import json
import math
import pickle
import random
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import MinerConfig
from repro.core.database import UncertainDatabase, paper_table2_database
from repro.core.miner import MPFCIMiner
from repro.data import (
    ColumnarFormatError,
    ColumnarUncertainDatabase,
    load_columnar,
    save_columnar,
)
from repro.data.columnar import _PREAMBLE, _align, save_shards
from repro.data.io import load_uncertain_database, save_uncertain_database
from repro.runtime.checkpoint import database_sha256, fingerprint
from tests.conformance.checks import (
    assert_identical_results,
    assert_results_in_unit_interval,
)
from tests.strategies import random_uncertain_database


@pytest.fixture
def database() -> UncertainDatabase:
    return paper_table2_database()


def assert_same_database(left: UncertainDatabase, right: UncertainDatabase):
    assert len(left) == len(right)
    assert left.items == right.items
    for a, b in zip(left.transactions, right.transactions):
        assert a.tid == b.tid
        assert tuple(a.items) == tuple(b.items)
        assert a.probability == b.probability  # bit-exact, not approx


class TestRoundTrip:
    def test_columnar_matches_text_parse(self, database, tmp_path):
        text_path = tmp_path / "db.utd"
        columnar_path = tmp_path / "db.utdz"
        save_uncertain_database(database, text_path)
        parsed = load_uncertain_database(text_path)
        save_columnar(parsed, columnar_path)
        loaded = load_columnar(columnar_path)
        assert isinstance(loaded, ColumnarUncertainDatabase)
        assert_same_database(parsed, loaded)

    def test_io_dispatch_on_suffix(self, database, tmp_path):
        path = tmp_path / "db.utdz"
        save_uncertain_database(database, path)
        loaded = load_uncertain_database(path)
        assert isinstance(loaded, ColumnarUncertainDatabase)
        assert_same_database(database, loaded)

    def test_load_is_lazy(self, database, tmp_path):
        path = tmp_path / "db.utdz"
        save_columnar(database, path)
        loaded = load_columnar(path)
        # Opening the file must not materialize any per-row structure; the
        # load-time win the format exists for is exactly this.
        assert loaded._lazy_transactions is None
        assert loaded._lazy_vertical is None
        assert loaded._lazy_probabilities is None
        # Building the bitmap engine adopts the memmap regions directly and
        # must not force the lazy fields either.
        loaded.tidset_engine("bitmap")
        assert loaded._lazy_vertical is None

    def test_pickle_round_trip(self, database, tmp_path):
        path = tmp_path / "db.utdz"
        save_columnar(database, path)
        loaded = load_columnar(path)
        clone = pickle.loads(pickle.dumps(loaded))
        assert_same_database(loaded, clone)
        assert database_sha256(clone) == database_sha256(database)

    def test_mining_parity_from_columnar(self, database, tmp_path):
        path = tmp_path / "db.utdz"
        save_columnar(database, path)
        loaded = load_columnar(path)
        for backend in ("tuple", "bitmap"):
            config = MinerConfig(min_sup=2, tidset_backend=backend)
            direct = MPFCIMiner(database, config).mine()
            columnar = MPFCIMiner(loaded, config).mine()
            assert [r.itemset for r in direct] == [r.itemset for r in columnar]
            assert [r.probability for r in direct] == [
                r.probability for r in columnar
            ]


class TestFingerprintIdentity:
    def test_fingerprint_identical_across_text_and_columnar(
        self, database, tmp_path
    ):
        text_path = tmp_path / "db.utd"
        columnar_path = tmp_path / "db.utdz"
        save_uncertain_database(database, text_path)
        parsed = load_uncertain_database(text_path)
        save_uncertain_database(parsed, columnar_path)
        columnar = load_uncertain_database(columnar_path)
        config = MinerConfig(min_sup=2)
        assert fingerprint(parsed, config) == fingerprint(columnar, config)
        assert database_sha256(parsed) == database_sha256(columnar)

    def test_columnar_save_is_lossless(self, database, tmp_path):
        # Unlike the text format (decimal rounding), columnar round-trips
        # the in-memory database's float64 probabilities bit-exactly.
        path = tmp_path / "db.utdz"
        save_columnar(database, path)
        assert database_sha256(load_columnar(path)) == database_sha256(database)


class TestCorruptFiles:
    def _valid_bytes(self, database, tmp_path) -> bytes:
        path = tmp_path / "valid.utdz"
        save_columnar(database, path)
        return path.read_bytes()

    def _expect_error(self, tmp_path, payload: bytes, match: str):
        path = tmp_path / "broken.utdz"
        path.write_bytes(payload)
        with pytest.raises(ColumnarFormatError, match=match) as excinfo:
            load_columnar(path)
        # The message must name the offending file.
        assert "broken.utdz" in str(excinfo.value)

    def test_too_short_for_preamble(self, tmp_path):
        self._expect_error(tmp_path, b"UT", match="not a .utdz file")

    def test_bad_magic(self, database, tmp_path):
        payload = bytearray(self._valid_bytes(database, tmp_path))
        payload[:4] = b"NOPE"
        self._expect_error(tmp_path, bytes(payload), match="bad magic")

    def test_unsupported_version(self, database, tmp_path):
        payload = bytearray(self._valid_bytes(database, tmp_path))
        payload[4:8] = (99).to_bytes(4, "little")
        self._expect_error(
            tmp_path, bytes(payload), match="unsupported .utdz version 99"
        )

    def test_header_longer_than_file(self, database, tmp_path):
        payload = bytearray(self._valid_bytes(database, tmp_path))
        payload[8:16] = (10**9).to_bytes(8, "little")
        self._expect_error(tmp_path, bytes(payload), match="header claims")

    def test_corrupt_header_json(self, database, tmp_path):
        payload = bytearray(self._valid_bytes(database, tmp_path))
        payload[_PREAMBLE.size] = ord("!")  # break the JSON object
        self._expect_error(tmp_path, bytes(payload), match="corrupt .utdz header")

    def test_truncated_regions(self, database, tmp_path):
        payload = self._valid_bytes(database, tmp_path)
        self._expect_error(
            tmp_path, payload[: len(payload) // 2], match="truncated .utdz file"
        )

    def test_text_file_with_wrong_suffix(self, database, tmp_path):
        text = tmp_path / "db.utd"
        save_uncertain_database(database, text)
        self._expect_error(tmp_path, text.read_bytes(), match="not a .utdz file")


def _regions(payload: bytes):
    """The header and the byte offsets of the item matrix and probability
    layout of a well-formed ``.utdz`` image."""
    _, _, header_length = _PREAMBLE.unpack_from(payload)
    header_end = _PREAMBLE.size + header_length
    header = json.loads(payload[_PREAMBLE.size : header_end])
    matrix_offset = _align(header_end)
    prob_offset = _align(matrix_offset + len(header["items"]) * header["words"] * 8)
    return header, matrix_offset, prob_offset


class TestRowRules:
    """The rules every ``UncertainTransaction`` obeys hold for mapped rows too."""

    def _damaged(self, database, tmp_path, damage) -> Path:
        path = tmp_path / "damaged.utdz"
        save_columnar(database, path)
        payload = bytearray(path.read_bytes())
        damage(payload, *_regions(bytes(payload)))
        path.write_bytes(bytes(payload))
        return path

    @pytest.mark.parametrize(
        "probability", [math.nan, 2.0, 0.0, -0.25, math.inf, 1.0 + 2**-52]
    )
    def test_probability_outside_unit_interval(self, database, tmp_path, probability):
        def damage(payload, header, matrix_offset, prob_offset):
            struct.pack_into("<d", payload, prob_offset + 8 * 2, probability)

        path = self._damaged(database, tmp_path, damage)
        with pytest.raises(ColumnarFormatError, match="row 2 has probability") as caught:
            load_columnar(path)
        assert "damaged.utdz" in str(caught.value)

    def test_item_bit_past_the_last_row(self, database, tmp_path):
        rows = len(database)

        def damage(payload, header, matrix_offset, prob_offset):
            word = struct.unpack_from("<Q", payload, matrix_offset)[0]
            struct.pack_into("<Q", payload, matrix_offset, word | (1 << rows))
            struct.pack_into("<d", payload, prob_offset + 8 * rows, 0.9)

        path = self._damaged(database, tmp_path, damage)
        with pytest.raises(ColumnarFormatError, match="item 'a' has a bit set past"):
            load_columnar(path)

    def test_row_without_items(self, database, tmp_path):
        def damage(payload, header, matrix_offset, prob_offset):
            for row in range(len(header["items"])):
                offset = matrix_offset + row * header["words"] * 8
                word = struct.unpack_from("<Q", payload, offset)[0]
                struct.pack_into("<Q", payload, offset, word & ~(1 << 3))

        path = self._damaged(database, tmp_path, damage)
        with pytest.raises(ColumnarFormatError, match="row 3 holds no items"):
            load_columnar(path)

    @pytest.mark.parametrize(
        "items", ['["b","a","c","d"]', '["a","a","c","d"]', '["a","b","c",444]']
    )
    def test_items_out_of_canonical_order(self, database, tmp_path, items):
        def damage(payload, header, matrix_offset, prob_offset):
            start = payload.index(b'["a","b","c","d"]')
            payload[start : start + len(items)] = items.encode()

        path = self._damaged(database, tmp_path, damage)
        with pytest.raises(ColumnarFormatError, match="corrupt .utdz header"):
            load_columnar(path)


@given(
    rows=st.integers(min_value=0, max_value=200),
    seed=st.integers(min_value=0, max_value=2**16),
    num_shards=st.integers(min_value=1, max_value=4),
)
def test_every_saved_file_loads(rows, seed, num_shards):
    """What ``save_columnar`` and ``save_shards`` write passes the row rules."""
    database = random_uncertain_database(random.Random(seed), rows, items="abcdefg")
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "whole.utdz"
        save_columnar(database, path)
        assert_same_database(load_columnar(path), database)
        if rows:
            manifest = json.loads(
                save_shards(database, Path(directory) / "shards", num_shards).read_text()
            )
            for entry in manifest["shards"]:
                shard = load_columnar(Path(directory) / "shards" / entry["path"])
                assert_same_database(
                    shard, database.restrict(range(entry["start"], entry["stop"]))
                )


@functools.lru_cache(maxsize=None)
def _mutation_source() -> bytes:
    """A 70-row image: one full and one partial matrix word per item."""
    database = random_uncertain_database(random.Random(8), rows=70, items="abcde")
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "source.utdz"
        save_columnar(database, path)
        return path.read_bytes()


@st.composite
def mutated_images(draw):
    payload = bytearray(_mutation_source())
    header, matrix_offset, prob_offset = _regions(bytes(payload))
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if draw(st.booleans()):
            # A whole probability entry, live row or padding, of any value.
            slot = draw(st.integers(min_value=0, max_value=header["words"] * 64 - 1))
            struct.pack_into("<d", payload, prob_offset + 8 * slot, draw(st.floats()))
            continue
        region = draw(st.sampled_from(["anywhere", "matrix", "probabilities"]))
        start, stop = {
            "anywhere": (0, len(payload)),
            "matrix": (matrix_offset, prob_offset),
            "probabilities": (prob_offset, len(payload)),
        }[region]
        offset = draw(st.integers(min_value=start, max_value=stop - 1))
        if draw(st.booleans()):
            payload[offset] ^= 1 << draw(st.integers(min_value=0, max_value=7))
        else:
            payload[offset] = draw(st.integers(min_value=0, max_value=255))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        del payload[draw(st.integers(min_value=0, max_value=len(payload) - 1)) :]
    return bytes(payload)


@given(payload=mutated_images())
def test_mutated_file_fails_by_name_or_mines_alike(payload):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "mutated.utdz"
        path.write_bytes(payload)
        try:
            database = load_columnar(path)
        except ColumnarFormatError:
            return
        assert np.all((database.probability_array > 0) & (database.probability_array <= 1))
        mined = {
            backend: MPFCIMiner(
                database, MinerConfig(min_sup=8, pfct=0.3, tidset_backend=backend)
            ).mine()
            for backend in ("bitmap", "tuple")
        }
        assert_identical_results(mined["bitmap"], mined["tuple"])
        assert_results_in_unit_interval(mined["bitmap"])
        del database  # release the memory map before the directory goes


class TestAtomicWrites:
    """``save_columnar`` lands via temp + fsync + rename: a failed save can
    never leave a truncated ``.utdz`` (or a stray temp file) behind."""

    def test_save_leaves_no_temp_sibling(self, tmp_path, database):
        path = tmp_path / "db.utdz"
        save_columnar(database, path)
        assert_same_database(load_columnar(path), database)
        assert [p.name for p in tmp_path.iterdir()] == ["db.utdz"]

    def test_failed_replace_preserves_previous_contents(
        self, tmp_path, database, monkeypatch
    ):
        import errno
        import os as os_module

        path = tmp_path / "db.utdz"
        save_columnar(database, path)
        before = path.read_bytes()

        real_replace = os_module.replace

        def full_disk(src, dst, *args, **kwargs):
            if str(dst) == str(path):
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_replace(src, dst, *args, **kwargs)

        from repro.data import columnar as columnar_module

        monkeypatch.setattr(columnar_module.os, "replace", full_disk)
        smaller = UncertainDatabase(list(database)[:2])
        with pytest.raises(OSError):
            save_columnar(smaller, path)
        monkeypatch.undo()
        # The original file is untouched and the temp file was cleaned up.
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["db.utdz"]
        assert_same_database(load_columnar(path), database)
