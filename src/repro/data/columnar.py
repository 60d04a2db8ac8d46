"""Zero-copy columnar serialization of uncertain databases (``.utdz``).

The text format (:mod:`repro.data.io`) is convenient but every load pays
Python-per-row parsing; a service worker re-materializing the same dataset
for every job pays it over and over.  ``.utdz`` stores the database in the
exact shape the packed-bitmap tidset engine consumes, so a load is one
``numpy.memmap`` plus a JSON header — the engine adopts the regions without
copying and transactions/vertical index are materialized lazily only if an
oracle path (or the fingerprint) asks for them.

Layout (all integers little-endian, regions 64-byte aligned)::

    0       magic  b"UTDZ"
    4       version uint32              (currently 1)
    8       header_length uint64
    16      header JSON (UTF-8): {"format": "utdz", "transactions": n,
                "words": w, "tids": [...], "items": [...]}
    ...     zero padding to the next 64-byte boundary
    A       item matrix — uint64, C-order, shape (len(items), w); row i is
            the packed transaction bitmap of items[i] (bit t = transaction
            t contains the item), exactly the matrix
            :class:`repro.core.tidsets.BitmapTidsetEngine` uses
    ...     zero padding to the next 64-byte boundary
    B       probability layout — float64, length w*64; entry t is the
            existence probability of transaction t, padding entries are 0.0
            (the engine's padded layout, adopted as-is)

Region offsets are derived from the header length and the shape fields, so
the header stays self-contained; growing the format means bumping
``COLUMNAR_VERSION`` and teaching :func:`load_columnar` both versions.

Probabilities round-trip bit-exactly (binary float64, no decimal
formatting), so ``repro.runtime.fingerprint`` of a text-loaded database and
of its ``.utdz`` copy are identical — the property the service's
content-addressed result cache relies on.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..core._types import BoolArray, FloatArray, WordArray
from ..core.database import Tidset, UncertainDatabase, UncertainTransaction
from ..core.itemsets import Item, Itemset, is_sorted_itemset
from ..core.tidsets import pack_positions

__all__ = [
    "COLUMNAR_SUFFIX",
    "COLUMNAR_VERSION",
    "SHARD_MANIFEST_SUFFIX",
    "SHARD_ROW_ALIGNMENT",
    "ColumnarFormatError",
    "ColumnarUncertainDatabase",
    "save_columnar",
    "load_columnar",
    "load_shard_manifest",
    "save_shards",
    "shard_ranges",
]

PathLike = Union[str, Path]

COLUMNAR_SUFFIX = ".utdz"
COLUMNAR_VERSION = 1

#: Suffix of shard manifests written by :func:`save_shards`.
SHARD_MANIFEST_SUFFIX = ".shards.json"
SHARD_MANIFEST_VERSION = 1

#: Row-range shards start on multiples of 64 transactions, so a shard of a
#: packed ``.utdz`` matrix is a pure *word-column* slice — the distributed
#: split is a file-copy, never a re-pack.
SHARD_ROW_ALIGNMENT = 64

_MAGIC = b"UTDZ"
_PREAMBLE = struct.Struct("<4sIQ")  # magic, version, header length
_ALIGNMENT = 64


class ColumnarFormatError(ValueError):
    """A ``.utdz`` file is malformed (bad magic, truncated, inconsistent)."""


def _align(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


class ColumnarUncertainDatabase(UncertainDatabase):
    """An :class:`UncertainDatabase` backed by ``.utdz`` memmap regions.

    The packed item matrix and the padded probability layout are the
    memmapped file regions themselves; the bitmap tidset engine adopts both
    zero-copy through ``bitmap_parts``.  Row objects, the vertical index
    and the probability tuple — everything the mining hot path does *not*
    need — are materialized lazily on first access, which is what makes
    opening a dataset tens of times cheaper than parsing its text form.
    """

    def __init__(
        self,
        tids: Tuple[str, ...],
        items: Itemset,
        matrix: WordArray,
        probability_layout: FloatArray,
    ) -> None:
        # Deliberately does NOT call the parent constructor: the eager
        # fields it would build are exactly what this class defers.
        self._tids = tids
        self._columnar_items = items
        self._matrix = matrix
        self._layout = probability_layout
        self._size = len(tids)
        self._lazy_bits: Optional[BoolArray] = None
        self._lazy_transactions: Optional[Tuple[UncertainTransaction, ...]] = None
        self._lazy_vertical: Optional[Dict[Item, Tidset]] = None
        self._lazy_probabilities: Optional[Tuple[float, ...]] = None
        self._probability_array = probability_layout[: self._size]
        self._item_probability_arrays = {}
        self._engines = {}
        self._bitmap_parts = {
            "matrix": matrix,
            "probabilities": probability_layout,
            "offset": 0,
        }

    # -- lazy views of the eager parent fields -------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def items(self) -> Itemset:
        return self._columnar_items

    def _unpacked_bits(self) -> BoolArray:
        """Boolean ``(items, transactions)`` membership matrix (cached)."""
        if self._lazy_bits is None:
            bits = np.unpackbits(
                self._matrix.view(np.uint8), axis=1, bitorder="little"
            )
            self._lazy_bits = bits[:, : self._size].astype(bool)
        return self._lazy_bits

    @property
    def _transactions(self) -> Tuple[UncertainTransaction, ...]:
        if self._lazy_transactions is None:
            bits = self._unpacked_bits()
            item_array = np.array(self._columnar_items, dtype=object)
            self._lazy_transactions = tuple(
                UncertainTransaction(
                    tid,
                    tuple(item_array[bits[:, position]].tolist()),
                    float(self._probability_array[position]),
                )
                for position, tid in enumerate(self._tids)
            )
        return self._lazy_transactions

    @property
    def _vertical(self) -> Dict[Item, Tidset]:
        if self._lazy_vertical is None:
            bits = self._unpacked_bits()
            self._lazy_vertical = {
                item: tuple(np.flatnonzero(bits[row]).tolist())
                for row, item in enumerate(self._columnar_items)
            }
        return self._lazy_vertical

    @property
    def _probabilities(self) -> Tuple[float, ...]:
        if self._lazy_probabilities is None:
            self._lazy_probabilities = tuple(self._probability_array.tolist())
        return self._lazy_probabilities


def _json_safe_items(items: Itemset) -> List[Item]:
    for item in items:
        if not isinstance(item, (str, int)):
            raise ColumnarFormatError(
                f"columnar format stores str/int items only, got {type(item).__name__}"
            )
    return list(items)


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically: temp file + fsync + rename.

    A crash mid-write (power loss, kill -9, ``ENOSPC``) can never leave a
    truncated file at ``path`` — readers see either the previous contents or
    the complete new ones.  The temp file lives in the same directory so the
    ``os.replace`` stays on one filesystem; the directory entry is fsynced
    best-effort afterwards so the rename itself is durable too.
    """
    temp = path.with_name(path.name + ".tmp")
    try:
        with open(temp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    try:
        directory_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(directory_fd)
    except OSError:
        pass
    finally:
        os.close(directory_fd)


def _assemble_utdz(
    tids: Tuple[str, ...], items: Itemset, matrix: WordArray, layout: FloatArray
) -> bytes:
    """Assemble the ``.utdz`` byte image from already-built regions."""
    size = len(tids)
    n_words = matrix.shape[1] if matrix.size else max((size + 63) // 64, 1)
    header = {
        "format": "utdz",
        "transactions": size,
        "words": n_words,
        "tids": list(tids),
        "items": _json_safe_items(items),
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    matrix_offset = _align(_PREAMBLE.size + len(header_bytes))
    prob_offset = _align(matrix_offset + matrix.nbytes)
    total = prob_offset + layout.nbytes

    buffer = bytearray(total)
    _PREAMBLE.pack_into(
        buffer, 0, _MAGIC, COLUMNAR_VERSION, len(header_bytes)
    )
    buffer[_PREAMBLE.size : _PREAMBLE.size + len(header_bytes)] = header_bytes
    buffer[matrix_offset : matrix_offset + matrix.nbytes] = matrix.tobytes()
    buffer[prob_offset : prob_offset + layout.nbytes] = layout.tobytes()
    return bytes(buffer)


def _pack_database(database: UncertainDatabase) -> Tuple[WordArray, FloatArray]:
    """Pack a database into the ``.utdz`` matrix + probability regions."""
    items = database.items
    size = len(database)
    n_words = max((size + 63) // 64, 1)
    matrix = np.zeros((len(items), n_words), dtype=np.uint64)
    for row, item in enumerate(items):
        matrix[row] = pack_positions(database.tidset_of_item(item), n_words * 64)
    layout = np.zeros(n_words * 64, dtype=np.float64)
    layout[:size] = database.probability_array
    return matrix, layout


def save_columnar(database: UncertainDatabase, path: PathLike) -> None:
    """Write ``database`` as a ``.utdz`` columnar file, atomically.

    The item matrix is packed from the vertical index in canonical item
    order; the probability layout is the engine's padded float64 layout.
    The bytes land via temp file + fsync + rename, so a crash mid-write
    never leaves a truncated dataset behind.
    """
    path = Path(path)
    matrix, layout = _pack_database(database)
    _atomic_write_bytes(
        path,
        _assemble_utdz(
            tuple(txn.tid for txn in database.transactions),
            database.items,
            matrix,
            layout,
        ),
    )


# ----------------------------------------------------------------------
# row-range sharding
# ----------------------------------------------------------------------
def shard_ranges(transactions: int, num_shards: int) -> List[Tuple[int, int]]:
    """Split ``transactions`` rows into up to ``num_shards`` aligned ranges.

    Every range starts on a multiple of :data:`SHARD_ROW_ALIGNMENT` (64), so
    a range of a packed ``.utdz`` matrix is a pure word-column slice.  Ranges
    are as equal as the alignment permits; when the database is too small
    for ``num_shards`` aligned non-empty ranges, fewer are returned.
    """
    if transactions <= 0:
        raise ValueError(f"transactions must be > 0, got {transactions}")
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    blocks = -(-transactions // SHARD_ROW_ALIGNMENT)  # ceil division
    shards = min(num_shards, blocks)
    base, extra = divmod(blocks, shards)
    ranges = []
    start = 0
    for index in range(shards):
        width = (base + (1 if index < extra else 0)) * SHARD_ROW_ALIGNMENT
        stop = min(start + width, transactions)
        ranges.append((start, stop))
        start = stop
    return ranges


def _slice_columnar(
    database: ColumnarUncertainDatabase, start: int, stop: int
) -> Tuple[Tuple[str, ...], Itemset, WordArray, FloatArray]:
    """Word-aligned row slice of an open columnar database (the file-copy
    path: word columns and probability entries are copied, never re-packed).

    Items whose bitmap is empty within the slice are dropped, matching what
    ``save_columnar(database.restrict(range(start, stop)))`` would store.
    """
    word_start = start // SHARD_ROW_ALIGNMENT
    words = -(-(stop - start) // SHARD_ROW_ALIGNMENT)
    matrix = np.ascontiguousarray(
        database._matrix[:, word_start : word_start + words]
    )
    keep = matrix.any(axis=1)
    matrix = np.ascontiguousarray(matrix[keep])
    items = tuple(
        item for row, item in enumerate(database.items) if keep[row]
    )
    layout = np.ascontiguousarray(
        database._layout[start : start + words * SHARD_ROW_ALIGNMENT]
    )
    return database._tids[start:stop], items, matrix, layout


def save_shards(
    database: UncertainDatabase,
    directory: PathLike,
    num_shards: int,
    stem: str = "shard",
) -> Path:
    """Split ``database`` into row-range ``.utdz`` shards plus a manifest.

    Writes ``<stem>.NN.utdz`` files (every one a self-contained columnar
    dataset of a 64-aligned row range — for a memmapped columnar source the
    slice is a file copy of the packed word columns) and a
    ``<stem>.shards.json`` manifest recording each shard's range, row count
    and content digest.  The digests make the sharded run's checkpoint
    identity computable from the manifest alone, even when a shard file is
    later lost — which is what lets the ``degrade-bounds`` shard-loss policy
    reason about missing rows.  All writes are atomic.

    Returns the manifest path.
    """
    from ..runtime.checkpoint import database_sha256

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ranges = shard_ranges(len(database), num_shards)
    columnar = database if isinstance(database, ColumnarUncertainDatabase) else None
    entries: List[Dict[str, Any]] = []
    for index, (start, stop) in enumerate(ranges):
        name = f"{stem}.{index:02d}{COLUMNAR_SUFFIX}"
        path = directory / name
        if columnar is not None:
            tids, items, matrix, layout = _slice_columnar(columnar, start, stop)
            _atomic_write_bytes(path, _assemble_utdz(tids, items, matrix, layout))
        else:
            save_columnar(database.restrict(range(start, stop)), path)
        entries.append(
            {
                "index": index,
                "path": name,
                "start": start,
                "stop": stop,
                "transactions": stop - start,
                "sha256": database_sha256(load_columnar(path)),
            }
        )
    manifest = {
        "format": "utdz-shards",
        "version": SHARD_MANIFEST_VERSION,
        "transactions": len(database),
        "shards": entries,
    }
    manifest_path = directory / f"{stem}{SHARD_MANIFEST_SUFFIX}"
    _atomic_write_bytes(
        manifest_path,
        json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"),
    )
    return manifest_path


def load_shard_manifest(path: PathLike) -> Dict[str, Any]:
    """Read and validate a ``.shards.json`` manifest written by
    :func:`save_shards`.

    Shard ``path`` entries are resolved relative to the manifest's own
    directory and returned absolute.  Raises :class:`ColumnarFormatError`
    on any structural defect; missing shard *files* are not an error here —
    shard loss is the runtime's decision
    (:mod:`repro.runtime.sharding`), not the loader's.
    """
    path = Path(path)
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise ColumnarFormatError(f"{path}: unreadable shard manifest: {error}") from error
    if not isinstance(manifest, dict) or manifest.get("format") != "utdz-shards":
        raise ColumnarFormatError(f"{path}: not a shard manifest")
    if manifest.get("version") != SHARD_MANIFEST_VERSION:
        raise ColumnarFormatError(
            f"{path}: unsupported shard manifest version {manifest.get('version')!r}"
        )
    shards = manifest.get("shards")
    if not isinstance(shards, list) or not shards:
        raise ColumnarFormatError(f"{path}: manifest lists no shards")
    expected_start = 0
    for position, entry in enumerate(shards):
        if not isinstance(entry, dict):
            raise ColumnarFormatError(f"{path}: shard entry {position} is not an object")
        try:
            index = int(entry["index"])
            start, stop = int(entry["start"]), int(entry["stop"])
            transactions = int(entry["transactions"])
            sha256 = str(entry["sha256"])
            shard_path = str(entry["path"])
        except (KeyError, TypeError, ValueError) as error:
            raise ColumnarFormatError(
                f"{path}: shard entry {position} is malformed: {error}"
            ) from error
        if index != position or start != expected_start or stop - start != transactions or stop <= start:
            raise ColumnarFormatError(
                f"{path}: shard entry {position} has an inconsistent row range"
            )
        if not sha256:
            raise ColumnarFormatError(f"{path}: shard entry {position} lacks a sha256")
        entry["path"] = str((path.parent / shard_path).resolve())
        expected_start = stop
    if manifest.get("transactions") != expected_start:
        raise ColumnarFormatError(
            f"{path}: manifest claims {manifest.get('transactions')} transactions "
            f"but its shards cover {expected_start}"
        )
    return manifest


def load_columnar(path: PathLike) -> ColumnarUncertainDatabase:
    """Open a ``.utdz`` file as a memmap-backed database (no copying).

    Raises :class:`ColumnarFormatError` — a ``ValueError`` — with a message
    naming the file and the defect when the file is not a ``.utdz``, is
    truncated, or its header is inconsistent with its size.
    """
    path = Path(path)
    file_size = path.stat().st_size
    if file_size < _PREAMBLE.size:
        raise ColumnarFormatError(
            f"{path}: not a .utdz file (only {file_size} bytes, "
            f"preamble needs {_PREAMBLE.size})"
        )
    raw: np.ndarray = np.memmap(path, dtype=np.uint8, mode="r")
    magic, version, header_length = _PREAMBLE.unpack_from(
        bytes(raw[: _PREAMBLE.size])
    )
    if magic != _MAGIC:
        raise ColumnarFormatError(f"{path}: not a .utdz file (bad magic {magic!r})")
    if version != COLUMNAR_VERSION:
        raise ColumnarFormatError(
            f"{path}: unsupported .utdz version {version} "
            f"(this build reads version {COLUMNAR_VERSION})"
        )
    header_end = _PREAMBLE.size + header_length
    if header_end > file_size:
        raise ColumnarFormatError(
            f"{path}: truncated .utdz file (header claims {header_length} bytes, "
            f"file has {file_size})"
        )
    try:
        header = json.loads(bytes(raw[_PREAMBLE.size : header_end]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ColumnarFormatError(f"{path}: corrupt .utdz header: {error}") from error
    try:
        size = int(header["transactions"])
        n_words = int(header["words"])
        tids = tuple(str(tid) for tid in header["tids"])
        items = tuple(header["items"])
    except (KeyError, TypeError, ValueError) as error:
        raise ColumnarFormatError(
            f"{path}: corrupt .utdz header (missing or malformed field): {error}"
        ) from error
    if len(tids) != size:
        raise ColumnarFormatError(
            f"{path}: corrupt .utdz header ({len(tids)} tids for "
            f"{size} transactions)"
        )
    if n_words < max((size + 63) // 64, 1):
        raise ColumnarFormatError(
            f"{path}: corrupt .utdz header ({n_words} words cannot hold "
            f"{size} transactions)"
        )

    matrix_offset = _align(header_end)
    matrix_bytes = len(items) * n_words * 8
    prob_offset = _align(matrix_offset + matrix_bytes)
    prob_bytes = n_words * 64 * 8
    expected = prob_offset + prob_bytes
    if file_size < expected:
        raise ColumnarFormatError(
            f"{path}: truncated .utdz file (expected {expected} bytes, "
            f"found {file_size})"
        )
    matrix = (
        raw[matrix_offset : matrix_offset + matrix_bytes]
        .view(np.uint64)
        .reshape(len(items), n_words)
    )
    layout = raw[prob_offset : prob_offset + prob_bytes].view(np.float64)
    _check_rows(path, items, matrix, layout[:size])
    return ColumnarUncertainDatabase(tids, items, matrix, layout)


def _check_rows(
    path: Path, items: Itemset, matrix: WordArray, probabilities: FloatArray
) -> None:
    """Hold the regions to the rules every :class:`UncertainTransaction`
    obeys, vectorized over the whole map: items are distinct str/int values
    in canonical order, each row's probability is in ``(0, 1]``, no item bit
    is set at or past the row count, and every row holds at least one item.
    """
    if not all(
        isinstance(item, (str, int)) and not isinstance(item, bool) for item in items
    ):
        raise ColumnarFormatError(f"{path}: corrupt .utdz header (items must be str or int)")
    try:
        canonical = is_sorted_itemset(items)
    except TypeError:
        canonical = False
    if not canonical:
        raise ColumnarFormatError(
            f"{path}: corrupt .utdz header (items are not distinct and sorted)"
        )
    size = len(probabilities)
    bad = np.flatnonzero(~((probabilities > 0.0) & (probabilities <= 1.0)))
    if len(bad):
        raise ColumnarFormatError(
            f"{path}: row {bad[0]} has probability {probabilities[bad[0]]!r}, "
            "outside (0, 1]"
        )
    full_words, tail_bits = divmod(size, 64)
    beyond = np.full(matrix.shape[1] - full_words, np.uint64(2**64 - 1))
    if tail_bits:
        beyond[0] = ~np.uint64((1 << tail_bits) - 1)
    stray = np.flatnonzero((matrix[:, full_words:] & beyond).any(axis=1))
    if len(stray):
        raise ColumnarFormatError(
            f"{path}: item {items[stray[0]]!r} has a bit set past the last of "
            f"{size} rows"
        )
    occupied = np.bitwise_or.reduce(matrix, axis=0)
    bits = np.unpackbits(occupied.view(np.uint8), bitorder="little")[:size]
    empty = np.flatnonzero(bits == 0)
    if len(empty):
        raise ColumnarFormatError(f"{path}: row {empty[0]} holds no items")
