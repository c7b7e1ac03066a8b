"""Append-only JSONL write-ahead journal with per-record checksums.

The journal is the campaign's source of truth about progress: a chunk
counts as done if and only if a valid ``chunk_completed`` record exists.
Records are single JSON lines in canonical encoding, each carrying

* ``schema_version`` — rejected across schema majors;
* ``seq`` — a strictly consecutive sequence number starting at 0, so a
  missing middle record is detected as corruption, not silently skipped;
* ``checksum`` — SHA-256 over the canonical record without the checksum
  field, so a bit-flipped record never parses as valid progress.

Every append is flushed and fsynced before the writer returns: once a
``chunk_completed`` record is journaled, the chunk snapshot it points to
was already atomically persisted, so a crash at **any** byte offset
loses at most the record currently being written.  That final torn
record is expected damage — :func:`recover_journal` truncates it and
resumes — whereas damage anywhere before the tail means storage
corruption or hand-editing and raises
:class:`~repro.errors.JournalCorruptionError` instead of guessing.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.errors import JournalCorruptionError, SerializationError
from repro.obs.observer import resolve_observer
from repro.obs.trace import perf_now
from repro.sim.serialization import (
    SCHEMA_VERSION,
    canonical_dumps,
    check_schema_version,
    content_digest,
)

__all__ = ["JournalWriter", "read_journal", "recover_journal"]


def _record_checksum(record: dict) -> str:
    body = {key: value for key, value in record.items() if key != "checksum"}
    return content_digest(body)


def _parse_line(line: bytes) -> Optional[dict]:
    """One journal line as a validated record, or ``None`` if invalid.

    Invalid means: not JSON, not an object, missing or wrong checksum.
    Schema-major mismatches raise — they are not torn writes.
    """
    try:
        record = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(record, dict):
        return None
    checksum = record.get("checksum")
    if not isinstance(checksum, str):
        return None
    if _record_checksum(record) != checksum:
        return None
    check_schema_version(record, "journal record")
    return record


def read_journal(path: Union[str, Path]) -> Tuple[List[dict], bool]:
    """Read a journal; return ``(records, torn_tail)``.

    Read-only: a torn final record is *reported* (``torn_tail=True``)
    but the file is left untouched — use :func:`recover_journal` before
    appending.  Raises :class:`~repro.errors.JournalCorruptionError` for
    damage anywhere except the final record, including out-of-sequence
    records and a missing file with journal bytes elsewhere implied.
    """
    records, torn, _ = _scan(Path(path))
    return records, torn


def recover_journal(path: Union[str, Path]) -> List[dict]:
    """Read a journal, truncating a torn final record in place.

    Returns the valid records; after this call the file ends exactly at
    the last valid record, so a subsequent :class:`JournalWriter` can
    append safely.
    """
    path = Path(path)
    records, torn, valid_bytes = _scan(path)
    if torn:
        with open(path, "rb+") as handle:
            handle.truncate(valid_bytes)
            handle.flush()
            os.fsync(handle.fileno())
    return records


def _scan(path: Path) -> Tuple[List[dict], bool, int]:
    """Parse the journal; return ``(records, torn_tail, valid_bytes)``.

    A complete append always ends with a newline, so any bytes after
    the final newline are an interrupted append (torn tail).  A line
    that fails validation is likewise torn if and only if it is the last
    line of the file; anywhere earlier it is corruption and raises.
    """
    if not path.exists():
        return [], False, 0
    data = path.read_bytes()
    records: List[dict] = []
    valid_bytes = 0
    start = 0
    while start < len(data):
        newline = data.find(b"\n", start)
        if newline == -1:
            # Bytes after the last newline: the append was cut short.
            return records, True, valid_bytes
        line = data[start:newline]
        record = _parse_line(line)
        if record is None:
            if newline == len(data) - 1:
                # Invalid final line — a torn write that happened to end
                # on the newline; drop it like any other torn tail.
                return records, True, valid_bytes
            raise JournalCorruptionError(
                f"journal {path} record {len(records)} (byte {start}) is "
                "corrupt before the final record; refusing to guess — "
                "restore the journal from storage or restart the campaign"
            )
        if record.get("seq") != len(records):
            raise JournalCorruptionError(
                f"journal {path} record {len(records)} has sequence "
                f"number {record.get('seq')!r}; records are missing or "
                "reordered"
            )
        records.append(record)
        start = newline + 1
        valid_bytes = start
    return records, False, valid_bytes


class JournalWriter:
    """Appends checksummed records to a journal file.

    Parameters
    ----------
    path:
        Journal file (created if missing).
    next_seq:
        Sequence number of the next record — ``len(records)`` returned
        by :func:`recover_journal` when resuming, 0 for a fresh journal.
    observer:
        Optional :class:`~repro.obs.observer.Observer`; records the
        fsync latency of every append (``journal.fsync_seconds``).
        Write-only — journal bytes are identical with or without it.
    """

    def __init__(
        self, path: Union[str, Path], next_seq: int = 0, observer=None
    ) -> None:
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._seq = int(next_seq)
        self._obs = resolve_observer(observer)
        self._handle = open(self._path, "ab")

    @property
    def path(self) -> Path:
        """The journal file."""
        return self._path

    def append(self, record_type: str, **payload) -> dict:
        """Durably append one record; returns the record as written.

        The record is flushed and fsynced before returning, so callers
        may rely on journal-then-act ordering (write-ahead logging).
        """
        record = {
            "schema_version": SCHEMA_VERSION,
            "seq": self._seq,
            "type": record_type,
        }
        record.update(payload)
        record["checksum"] = _record_checksum(record)
        line = canonical_dumps(record) + "\n"
        self._handle.write(line.encode("utf-8"))
        self._handle.flush()
        if self._obs.enabled:
            started = perf_now()
            os.fsync(self._handle.fileno())
            self._obs.observe(
                "journal.fsync_seconds", max(perf_now() - started, 0.0)
            )
            self._obs.count("journal.appends")
        else:
            os.fsync(self._handle.fileno())
        self._seq += 1
        return record

    def close(self) -> None:
        """Close the underlying file handle."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
