"""Columnar binary synopsis storage: aligned numpy segments, mmap reads.

The JSON interchange format (:mod:`repro.io.text_format`) round-trips every
synopsis exactly and stays the debugging / interchange surface, but a store
built on it would pay a text tax on every disk hit: parse, box,
re-materialise every array.  This module is the on-disk format of
:class:`~repro.service.store.SynopsisStore`:

* **one append-only pack file per store** (``synopses.pack``) holding every
  synopsis's numeric payload as 64-byte-aligned little-endian numpy segments
  followed by a compact JSON meta blob (segment names/dtypes/shapes, the
  synopsis's own meta, the build config), the whole entry covered by a CRC-32;
* **one fixed-record index file** (``synopses.idx``) appended in lock-step —
  ``key -> (offset, length, meta span, checksum)`` — that a fresh process
  loads with a single :func:`numpy.frombuffer` call, so opening a store with
  100k entries costs milliseconds and no per-entry parsing;
* **zero-copy loads**: payload segments are returned as read-only views into
  one shared :class:`numpy.memmap` of the pack, so a loaded synopsis feeds
  the batch query engine without copying and resident memory stays sublinear
  in the entry count (the OS pages in only what queries touch).

Each synopsis class carries its own column schema: ``put`` stores what
:meth:`~repro.core.synopsis.Synopsis.to_columns` returns, and ``get``
rebuilds the synopsis with ``synopsis_class(kind).from_columns``, through
the same fixed kind table that :class:`~repro.core.spec.SynopsisSpec` and
the JSON layer use.

Any damage — truncated pack, bad magic, unsupported version, checksum
mismatch, torn index record — surfaces as a typed
:class:`~repro.exceptions.StoreCorruptionError` naming the offending file,
never a cryptic numpy reshape or JSON decode traceback.
"""

from __future__ import annotations

import json
import os
import shutil
import struct
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.synopsis import Synopsis, synopsis_class, synopsis_kind_of
from ..exceptions import StoreCorruptionError, SynopsisError

__all__ = ["SynopsisPack", "PACK_VERSION"]

PathLike = Union[str, Path]

#: Version of the on-disk layout; bumped on any incompatible change.
PACK_VERSION = 1

#: Every payload segment starts on a multiple of this (vector-load friendly,
#: and coarser than any numpy dtype's natural alignment).
ALIGNMENT = 64

_PACK_MAGIC = b"REPROPAK"
_INDEX_MAGIC = b"REPROIDX"
_HEADER = struct.Struct("<8sII")  # magic, version, reserved

#: One fixed-size index record per ``put``; later records supersede earlier
#: ones for the same key.  Loaded in bulk with ``np.frombuffer``.
_INDEX_RECORD = np.dtype(
    [
        ("key", "S64"),
        ("offset", "<u8"),
        ("length", "<u8"),
        ("meta_offset", "<u8"),
        ("meta_length", "<u8"),
        ("crc32", "<u4"),
        ("flags", "<u4"),
    ]
)


def _align(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


# ----------------------------------------------------------------------
# The pack: one payload file + one fixed-record index file
# ----------------------------------------------------------------------
def _write_header(path: Path, magic: bytes) -> None:
    scratch = path.with_suffix(f".tmp-{os.getpid()}")
    scratch.write_bytes(_HEADER.pack(magic, PACK_VERSION, 0))
    os.replace(scratch, path)


def _check_header(raw: bytes, magic: bytes, path: Path) -> None:
    if len(raw) < _HEADER.size:
        raise StoreCorruptionError(
            f"file truncated below its {_HEADER.size}-byte header", path=path
        )
    found_magic, version, _ = _HEADER.unpack_from(raw)
    if found_magic != magic:
        raise StoreCorruptionError(
            f"bad magic {found_magic!r} (expected {magic!r}); not a repro "
            "columnar store file, or one that was overwritten",
            path=path,
        )
    if version != PACK_VERSION:
        raise StoreCorruptionError(
            f"unsupported format version {version} (this build reads version "
            f"{PACK_VERSION})",
            path=path,
        )


class SynopsisPack:
    """Append-only columnar pack of synopses with memory-mapped reads.

    Parameters
    ----------
    directory:
        Directory holding the two store files, created if needed:
        ``synopses.pack`` (payload segments + per-entry meta blobs) and
        ``synopses.idx`` (fixed 104-byte records, one per ``put``).

    ``put`` appends the payload first and its index record second, so a
    crashed writer can leave dead bytes in the pack but never a live index
    record pointing at missing data; re-``put`` of an existing key appends a
    superseding record (the index is last-write-wins) and :meth:`compact`
    reclaims the dead space.  ``get`` returns synopses whose arrays are
    read-only views into one shared ``np.memmap`` — no payload copies, and
    attempts to mutate a loaded view raise.
    """

    PACK_NAME = "synopses.pack"
    INDEX_NAME = "synopses.idx"

    def __init__(self, directory: PathLike):
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._pack_path = self._directory / self.PACK_NAME
        self._index_path = self._directory / self.INDEX_NAME
        # Encoded key -> row into the bulk-loaded record array, or a plain
        # field dict for entries appended by this process.  Keys stay *bytes*
        # and records stay in the numpy array (no per-entry dicts, no per-key
        # decode), which is what holds store open at 100k entries to tens of
        # milliseconds; the str<->bytes translation happens per API call.
        self._entries: Dict[bytes, Union[int, Dict[str, int]]] = {}
        self._records = np.empty(0, dtype=_INDEX_RECORD)
        self._record_count = 0
        self._view: Optional[np.memmap] = None
        pack_exists = self._pack_path.exists()
        index_exists = self._index_path.exists()
        if pack_exists != index_exists:
            missing = self.INDEX_NAME if pack_exists else self.PACK_NAME
            present = self._pack_path if pack_exists else self._index_path
            raise StoreCorruptionError(
                f"columnar store is missing its companion file {missing!r}",
                path=present,
            )
        if not pack_exists:
            _write_header(self._pack_path, _PACK_MAGIC)
            _write_header(self._index_path, _INDEX_MAGIC)
        else:
            with open(self._pack_path, "rb") as pack:
                _check_header(pack.read(_HEADER.size), _PACK_MAGIC, self._pack_path)
            self._load_index()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @staticmethod
    def present(directory: PathLike) -> bool:
        """Whether ``directory`` holds (either of) the pack store files."""
        directory = Path(directory)
        return (directory / SynopsisPack.PACK_NAME).exists() or (
            directory / SynopsisPack.INDEX_NAME
        ).exists()

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def pack_path(self) -> Path:
        return self._pack_path

    @property
    def index_path(self) -> Path:
        return self._index_path

    def keys(self) -> Tuple[str, ...]:
        """Live entry keys, in first-insertion order."""
        return tuple(key.decode("ascii") for key in self._entries)

    def __contains__(self, key: str) -> bool:
        return key.encode("ascii", errors="replace") in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Index loading
    # ------------------------------------------------------------------
    def _load_index(self) -> None:
        raw = self._index_path.read_bytes()
        _check_header(raw, _INDEX_MAGIC, self._index_path)
        body = raw[_HEADER.size:]
        if len(body) % _INDEX_RECORD.itemsize:
            raise StoreCorruptionError(
                f"index holds a torn record: {len(body)} body bytes is not a "
                f"multiple of the {_INDEX_RECORD.itemsize}-byte record size",
                path=self._index_path,
            )
        records = np.frombuffer(body, dtype=_INDEX_RECORD)
        self._record_count = int(records.size)
        self._records = records
        # Last-write-wins per key: later rows overwrite earlier ones.  numpy
        # S-dtype items drop trailing NULs, so the raw bytes key directly.
        self._entries = {
            key: row for row, key in enumerate(records["key"].tolist())
        }

    def _entry(self, encoded_key: bytes) -> Dict[str, int]:
        """The index fields for one live key (record row or runtime put)."""
        ref = self._entries[encoded_key]
        if isinstance(ref, dict):
            return ref
        record = self._records[ref]
        return {
            "offset": int(record["offset"]),
            "length": int(record["length"]),
            "meta_offset": int(record["meta_offset"]),
            "meta_length": int(record["meta_length"]),
            "crc32": int(record["crc32"]),
        }

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def put(self, key: str, synopsis: Synopsis, config: Optional[Dict] = None) -> None:
        """Append one synopsis under ``key`` (superseding any earlier entry)."""
        encoded_key = key.encode("ascii", errors="strict")
        if not key or len(encoded_key) > 64:
            raise SynopsisError(
                f"columnar store keys must be 1-64 ASCII characters, got {key!r}"
            )
        kind = synopsis_kind_of(synopsis)
        synopsis_class(kind)  # refuse a kind that get() could not decode
        meta, columns = synopsis.to_columns()
        with open(self._pack_path, "r+b") as pack:
            pack.seek(0, os.SEEK_END)
            base = pack.tell()
            if base < _HEADER.size:
                raise StoreCorruptionError(
                    "pack file truncated below its header", path=self._pack_path
                )
            blob = bytearray()
            segments: List[Dict[str, Any]] = []
            for name, array in columns.items():
                array = np.ascontiguousarray(array)
                if array.dtype.byteorder == ">":
                    array = array.astype(array.dtype.newbyteorder("<"))
                start = _align(base + len(blob))
                blob.extend(b"\0" * (start - base - len(blob)))
                blob.extend(array.tobytes())
                segments.append(
                    {
                        "name": name,
                        "dtype": array.dtype.str,
                        "shape": list(array.shape),
                        "offset": start,
                        "nbytes": int(array.nbytes),
                    }
                )
            meta_payload = {
                "key": key,
                "kind": kind,
                "config": dict(config or {}),
                "meta": meta,
                "segments": segments,
            }
            meta_bytes = json.dumps(
                meta_payload, sort_keys=True, separators=(",", ":")
            ).encode()
            meta_offset = base + len(blob)
            blob.extend(meta_bytes)
            crc = zlib.crc32(blob)
            pack.write(blob)
            pack.flush()
        record = np.zeros(1, dtype=_INDEX_RECORD)
        record["key"] = encoded_key
        record["offset"] = base
        record["length"] = len(blob)
        record["meta_offset"] = meta_offset
        record["meta_length"] = len(meta_bytes)
        record["crc32"] = crc
        with open(self._index_path, "ab") as index:
            index.write(record.tobytes())
            index.flush()
        self._record_count += 1
        self._entries[encoded_key] = {
            "offset": base,
            "length": len(blob),
            "meta_offset": meta_offset,
            "meta_length": len(meta_bytes),
            "crc32": crc,
        }

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _mapped(self) -> np.memmap:
        size = self._pack_path.stat().st_size
        if size < _HEADER.size:
            raise StoreCorruptionError(
                "pack file truncated below its header", path=self._pack_path
            )
        if self._view is None or self._view.size < size:
            self._view = np.memmap(self._pack_path, dtype=np.uint8, mode="r")
        return self._view

    def _entry_meta(self, key: str, *, verify: bool = True) -> Dict[str, Any]:
        entry = self._entry(key.encode("ascii"))
        view = self._mapped()
        end = entry["offset"] + entry["length"]
        if end > view.size:
            raise StoreCorruptionError(
                f"pack file truncated: entry {key[:16]}... needs bytes "
                f"[{entry['offset']}, {end}) but the pack holds {view.size}",
                path=self._pack_path,
            )
        if verify:
            found = zlib.crc32(view[entry["offset"]: end])
            if found != entry["crc32"]:
                raise StoreCorruptionError(
                    f"payload checksum mismatch for entry {key[:16]}...: index "
                    f"records crc32 {entry['crc32']:#010x} but the pack bytes "
                    f"hash to {found:#010x}",
                    path=self._pack_path,
                )
        meta_end = entry["meta_offset"] + entry["meta_length"]
        try:
            payload = json.loads(bytes(view[entry["meta_offset"]: meta_end]))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise StoreCorruptionError(
                f"malformed meta blob for entry {key[:16]}...: {exc}",
                path=self._pack_path,
            ) from exc
        if not isinstance(payload, dict):
            raise StoreCorruptionError(
                f"malformed meta blob for entry {key[:16]}...: not an object",
                path=self._pack_path,
            )
        return payload

    def get(self, key: str) -> Optional[Tuple[Synopsis, Dict]]:
        """``(synopsis, config)`` for ``key``, or ``None`` when absent.

        The synopsis's numeric payload is returned as read-only views into
        the shared pack mmap — zero copies; the whole entry's CRC-32 is
        verified first (a sequential pass over the mapped bytes, far cheaper
        than a JSON parse).
        """
        if key not in self:
            return None
        payload = self._entry_meta(key)
        view = self._mapped()
        try:
            columns: Dict[str, np.ndarray] = {}
            for segment in payload["segments"]:
                dtype = np.dtype(segment["dtype"])
                start, nbytes = int(segment["offset"]), int(segment["nbytes"])
                columns[segment["name"]] = (
                    view[start: start + nbytes].view(dtype).reshape(segment["shape"])
                )
            synopsis = synopsis_class(payload["kind"]).from_columns(
                payload.get("meta", {}), columns
            )
        except (KeyError, TypeError, ValueError) as exc:
            # SynopsisError is a ValueError, so an unknown kind and the value
            # objects' rejections of inconsistent payloads land here too.
            raise StoreCorruptionError(
                f"cannot decode entry {key[:16]}...: {exc}", path=self._pack_path
            ) from exc
        return synopsis, payload.get("config", {})

    # ------------------------------------------------------------------
    # Maintenance: inspection, verification, compaction
    # ------------------------------------------------------------------
    def describe(self, *, verify: bool = False) -> List[Dict[str, Any]]:
        """One header-index summary per live entry (for ``store inspect``).

        With ``verify=True`` every entry's CRC is checked and reported as
        ``crc_ok`` instead of raising, so a damaged store can still be
        inspected to find *which* entries are bad.
        """
        report = []
        for key in self.keys():
            entry = self._entry(key.encode("ascii"))
            row: Dict[str, Any] = {
                "key": key,
                "offset": entry["offset"],
                "nbytes": entry["length"],
                "crc32": f"{entry['crc32']:#010x}",
            }
            try:
                payload = self._entry_meta(key, verify=verify)
                row["kind"] = payload.get("kind", "?")
                row["segments"] = [
                    {k: segment[k] for k in ("name", "dtype", "shape", "offset", "nbytes")}
                    for segment in payload.get("segments", [])
                ]
                if verify:
                    row["crc_ok"] = True
            except StoreCorruptionError as exc:
                row["kind"] = "?"
                row["segments"] = []
                row["error"] = str(exc)
                if verify:
                    row["crc_ok"] = False
            report.append(row)
        return report

    @property
    def dead_records(self) -> int:
        """Superseded index records (their payload bytes are reclaimable)."""
        return self._record_count - len(self._entries)

    def compact(self) -> int:
        """Rewrite the pack keeping only live entries; returns bytes reclaimed.

        Appending is last-write-wins, so re-``put`` entries leave dead payload
        regions behind.  Compaction streams every live entry into a fresh
        pack + index in a scratch directory and atomically replaces both
        files.  Readers holding views into the old mmap keep working (the
        mapping outlives the unlink); this pack re-opens the new files.
        """
        before = self._pack_path.stat().st_size
        live = [(key, self.get(key)) for key in self.keys()]
        scratch_dir = self._directory / f".compact-{os.getpid()}"
        if scratch_dir.exists():
            shutil.rmtree(scratch_dir)
        fresh = SynopsisPack(scratch_dir)
        for key, loaded in live:
            assert loaded is not None
            synopsis, config = loaded
            fresh.put(key, synopsis, config)
        fresh.close()
        self.close()
        os.replace(fresh.pack_path, self._pack_path)
        os.replace(fresh.index_path, self._index_path)
        scratch_dir.rmdir()
        self._load_index()
        return before - self._pack_path.stat().st_size

    def clear(self) -> None:
        """Drop every entry: both files shrink back to their bare headers.

        This is the degenerate compaction :meth:`~repro.service.SynopsisStore.clear_disk`
        performs — the pack is truncated, not deleted, so the store stays
        open-able and append-able.
        """
        self.close()
        _write_header(self._pack_path, _PACK_MAGIC)
        _write_header(self._index_path, _INDEX_MAGIC)
        self._entries = {}
        self._records = np.empty(0, dtype=_INDEX_RECORD)
        self._record_count = 0

    def close(self) -> None:
        """Release the pack mmap (loaded views keep their own reference)."""
        self._view = None

    def __repr__(self) -> str:
        return (
            f"SynopsisPack({str(self._directory)!r}, entries={len(self._entries)}, "
            f"dead_records={self.dead_records})"
        )
