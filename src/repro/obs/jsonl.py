"""Durable append-only JSONL files: the one durability contract.

The batch checkpoint, the run ledger, the request journal and the
access log serialize their own lines; this module alone puts them on
disk and reads them back (docs/RESILIENCE.md, "Durable logs").
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
from typing import IO, Any, Iterable

__all__ = ["JsonlWriter", "read_jsonl", "rewrite"]


def read_jsonl(path: str) -> tuple[list[Any], int]:
    """``(records, torn)``: every parseable line of ``path``, oldest
    first, and the number of non-blank lines that do not parse.  A
    missing file reads as empty."""
    records: list[Any] = []
    torn = 0
    if os.path.exists(path):
        with open(path, "rb") as fh:
            for raw in fh:
                if raw.strip():
                    try:
                        records.append(json.loads(raw))
                    except ValueError:  # cut JSON, or a cut UTF-8 char
                        torn += 1
    return records, torn


def rewrite(path: str, lines: Iterable[str]) -> None:
    """Replace ``path`` with ``lines`` atomically: write and fsync
    ``<path>.tmp``, then rename it over ``path``.  On failure the temp
    file is removed and ``path`` is left as it was."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write("".join(line + "\n" for line in lines).encode())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


class JsonlWriter:
    """Appends lines to ``path``, creating its parent directories.

    Every line is flushed; the file is fsynced every ``fsync_interval``
    lines and on close.  Before its first append the writer ends a
    final line a kill left cut, so a new record never glues onto it.
    With ``max_bytes`` the file is rotated to ``<path>.1`` (one
    generation) before a line would take it past that size.  A failed
    write or fsync raises; with an ``errors`` counter it is counted
    instead, and the writer stops (:attr:`broken`).
    ``fail_writes_after`` is the full-disk fault hook: every write
    after the Nth fails with ``ENOSPC``.
    """

    def __init__(self, path: str, fsync_interval: int = 1,
                 max_bytes: int | None = None, *, errors: Any = None):
        if fsync_interval < 1:
            raise ValueError("fsync_interval must be >= 1")
        self.path = path
        self.fsync_interval = fsync_interval
        self.max_bytes = max_bytes
        self.errors = errors
        self.broken = False
        self.fail_writes_after: int | None = None
        self._writes = self._unsynced = 0
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        self._fh: IO[bytes] | None = open(path, "ab")
        self._size = self._fh.tell()
        self._torn = False
        if self._size:
            with open(path, "rb") as fh:
                fh.seek(-1, os.SEEK_END)
                self._torn = fh.read(1) != b"\n"

    def write(self, line: str) -> bool:
        """Append ``line`` plus a newline and flush; ``False`` when the
        writer is closed or stopped."""
        if self._fh is None:
            return False
        data = line.encode() + b"\n"
        try:
            self._writes += 1
            if (self.fail_writes_after is not None
                    and self._writes > self.fail_writes_after):
                raise OSError(errno.ENOSPC, "injected ENOSPC (fault hook)")
            if (self.max_bytes and self._size
                    and self._size + len(data) > self.max_bytes):
                self._rotate()
            if self._torn:
                data = b"\n" + data
            self._fh.write(data)
            self._fh.flush()
            self._torn = False
            self._size += len(data)
            self._unsynced += 1
            if self._unsynced >= self.fsync_interval:
                self._fsync()
        except (OSError, ValueError) as e:
            return self._fail(e)
        return True

    def close(self) -> None:
        """fsync and close (idempotent)."""
        fh = self._fh
        if fh is None:
            return
        try:
            if self._unsynced:
                self._fsync()
        except (OSError, ValueError) as e:
            self._fail(e)
        finally:
            fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _fsync(self) -> None:
        os.fsync(self._fh.fileno())  # type: ignore[union-attr]
        self._unsynced = 0

    def _rotate(self) -> None:
        self._fsync()
        self._fh.close()  # type: ignore[union-attr]
        os.replace(self.path, self.path + ".1")
        self._fh = open(self.path, "ab")
        self._size = 0
        self._torn = False

    def _fail(self, exc: Exception) -> bool:
        if self.errors is None:
            raise exc
        self.errors.inc()
        self.broken = True
        with contextlib.suppress(OSError, ValueError):
            self._fh.close()  # type: ignore[union-attr]
        self._fh = None
        return False
