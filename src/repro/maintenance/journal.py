"""Crash-safe, append-only mutation journal.

The journal is the durability primitive of tree maintenance: every mutation
of a :class:`~repro.maintenance.tree.MaintainedTree` is written here *before*
it is applied (write-ahead order), so a process killed at any instant —
including in the middle of a ``write`` — leaves a file from which
:meth:`MaintainedTree.replay` reconstructs the exact pre-kill tree.

File format (all integers little-endian)::

    MAGIC                        -- 11-byte file signature incl. version
    repeat:
        length  : uint32         -- byte length of the JSON payload
        crc32   : uint32         -- zlib.crc32 of the payload bytes
        payload : length bytes   -- canonical JSON record (sorted keys)

Records are canonical JSON (``sort_keys=True``, compact separators) so the
byte stream — and therefore the hash chain the tree derives from it — is
identical across processes and platforms.  Each append is flushed and
``fsync``'d before the mutation is applied.

A *torn tail* (partial frame from a mid-write kill) is expected, not an
error: :func:`read_records` stops at the first incomplete or checksum-failing
frame and reports how many bytes were valid; :meth:`MutationJournal.recover`
truncates the torn bytes so subsequent appends extend a well-formed file
(appending after garbage would orphan every later record).
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from pathlib import Path
from typing import Any, Dict, List, Tuple

from .. import obs

__all__ = ["MutationJournal", "read_records"]

#: File signature; bump the digit to break compatibility explicitly.
MAGIC = b"LUMOSJRNL1\n"

_PREFIX = struct.Struct("<II")  # (payload length, crc32)


def _encode(record: Dict[str, Any]) -> bytes:
    """Canonical JSON bytes of one record (the hashed/checksummed form)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _frame(record: Dict[str, Any]) -> bytes:
    payload = _encode(record)
    return _PREFIX.pack(len(payload), zlib.crc32(payload)) + payload


def read_records(path) -> Tuple[List[Dict[str, Any]], int]:
    """Parse ``path`` and return ``(records, valid_bytes)``.

    ``valid_bytes`` is the offset of the first torn/corrupt frame (== file
    size for a clean journal).  A missing or wrong ``MAGIC`` raises — that is
    a wrong *file*, not a crash artifact.
    """
    data = Path(path).read_bytes()
    if not data.startswith(MAGIC):
        raise ValueError(f"{path} is not a mutation journal (bad magic)")
    records: List[Dict[str, Any]] = []
    offset = len(MAGIC)
    while offset + _PREFIX.size <= len(data):
        length, checksum = _PREFIX.unpack_from(data, offset)
        start = offset + _PREFIX.size
        end = start + length
        if end > len(data):
            break  # torn tail: frame announced more bytes than were written
        payload = data[start:end]
        if zlib.crc32(payload) != checksum:
            break  # torn or corrupted payload — everything after is suspect
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            break
        records.append(record)
        offset = end
    return records, offset


class MutationJournal:
    """Append-only journal with checksummed, fsync'd frames."""

    def __init__(self, path, _file=None) -> None:
        self.path = Path(path)
        if _file is None:
            raise TypeError(
                "use MutationJournal.create() or MutationJournal.recover()"
            )
        self._file = _file

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def create(cls, path) -> "MutationJournal":
        """Start a fresh journal at ``path`` (truncating any existing file)."""
        file = open(path, "wb")
        file.write(MAGIC)
        file.flush()
        os.fsync(file.fileno())
        return cls(path, _file=file)

    @classmethod
    def recover(cls, path) -> Tuple["MutationJournal", List[Dict[str, Any]]]:
        """Reopen ``path`` for append, truncating any torn tail.

        Returns the journal plus the records that survived.  Truncation is
        what makes post-recovery appends safe: the next frame starts exactly
        where the last complete frame ended.
        """
        records, valid_bytes = read_records(path)
        file = open(path, "r+b")
        file.truncate(valid_bytes)
        file.seek(valid_bytes)
        file.flush()
        os.fsync(file.fileno())
        return cls(path, _file=file), records

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #
    def append(self, record: Dict[str, Any]) -> None:
        """Durably append one record (write + flush + fsync)."""
        frame = _frame(record)
        if obs.current_tracer() is None:
            self._file.write(frame)
            self._file.flush()
            os.fsync(self._file.fileno())
            return
        started = time.perf_counter()
        self._file.write(frame)
        self._file.flush()
        os.fsync(self._file.fileno())
        obs.add_counter("maintenance.journal_appends")
        obs.add_counter("maintenance.journal_bytes", len(frame))
        obs.observe("maintenance.fsync_seconds", time.perf_counter() - started)

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()

    def __enter__(self) -> "MutationJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
