"""Durable request journal: the daemon's write-ahead log.

The serve daemon's result cache makes a *completed* request durable;
this journal makes an *accepted* one durable.  Every request that
passes admission gets an ``accept`` line **before** it is enqueued, and
a ``complete`` line when its response is produced — so after a SIGKILL
the set "accepted but never answered" is exactly the accepts without a
matching complete, and a restarted daemon can replay them idempotently
through the result cache (:meth:`repro.serve.server.RootServer.start`).
Exactly-once delivery falls out of the :func:`~repro.resilience
.checkpoint.poly_key` content address: a replayed solve lands in the
cache under the same key the client's retry will look up, so the retry
observes the original result bit-for-bit instead of a second solve.

File format (``repro.serve-journal/1``), one JSON object per line::

    {"ev": "accept", "request_id": "ab12-000001", "key": "<sha256>",
     "coeffs": ["-6", "1", "1"], "bits": 16, "strategy": "hybrid",
     "priority": 0, "time_unix": 1754...}
    {"ev": "complete", "request_id": "ab12-000001", "key": "<sha256>",
     "status": "ok"}

The file is written, read, and compacted through
:mod:`repro.obs.jsonl` (fsync every ``fsync_interval`` lines, torn
lines skipped on read).  A full disk must never fail the request that
was being journaled: a failed write or fsync is counted
(``journal.write_errors``), journaling stops, and serving continues —
availability over bookkeeping.  :attr:`RequestJournal.fail_writes_after`
is the deterministic rendering of that full disk for the chaos
campaign, and ``kill_after_accepts`` SIGKILLs the daemon after N accept
records — the deterministic "daemon died mid-flight" the restart tests
replay.

On open, an existing journal is **compacted**: completed pairs are
dropped and only the incomplete accepts are rewritten (atomically,
temp + rename), so the file stays bounded across restarts instead of
growing one generation per crash.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.jsonl import JsonlWriter, read_jsonl, rewrite
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "RequestJournal",
    "JournalEntry",
    "read_journal",
    "incomplete_entries",
    "SCHEMA",
]

SCHEMA = "repro.serve-journal/1"

#: Default fsync batching: a SIGKILL loses at most this many records.
DEFAULT_FSYNC_INTERVAL = 32


class JournalEntry(dict):
    """One parsed ``accept`` record (a dict with typed accessors)."""

    @property
    def key(self) -> str:
        return str(self.get("key", ""))

    @property
    def request_id(self) -> str:
        return str(self.get("request_id", "?"))

    @property
    def coeffs(self) -> list[int]:
        return [int(c) for c in self.get("coeffs", [])]

    @property
    def mu(self) -> int:
        return int(self.get("bits", 0))

    @property
    def strategy(self) -> str:
        return str(self.get("strategy", "hybrid"))

    @property
    def priority(self) -> int:
        return int(self.get("priority", 0))


def _is_record(rec: Any) -> bool:
    return isinstance(rec, dict) and rec.get("ev") in ("accept", "complete")


def read_journal(path: str) -> list[dict[str, Any]]:
    """Every parseable record, oldest first (torn lines skipped)."""
    return [r for r in read_jsonl(path)[0] if _is_record(r)]


def incomplete_entries(
    records: Iterable[Mapping[str, Any]]
) -> list[JournalEntry]:
    """The accepts without a matching complete, deduplicated by key.

    Matching is by ``request_id`` (each accepted request owes exactly
    one completion); the survivors are deduplicated by ``poly_key`` —
    two lost requests for the same polynomial need one replayed solve.
    Accepts that cannot be replayed (no coefficients — a torn or
    hand-damaged record) are dropped."""
    completed: set[str] = set()
    accepts: list[Mapping[str, Any]] = []
    for rec in records:
        if rec.get("ev") == "complete":
            completed.add(str(rec.get("request_id")))
        elif rec.get("ev") == "accept":
            accepts.append(rec)
    out: list[JournalEntry] = []
    seen_keys: set[str] = set()
    for rec in accepts:
        if str(rec.get("request_id")) in completed:
            continue
        entry = JournalEntry(rec)
        if not entry.key or not rec.get("coeffs") or entry.mu < 1:
            continue
        if entry.key in seen_keys:
            continue
        seen_keys.add(entry.key)
        out.append(entry)
    return out


class RequestJournal:
    """Append-only accept/complete WAL for one daemon.

    Parameters
    ----------
    path:
        The journal file; created (with parents) on first use.  An
        existing file is read for recovery and compacted on open.
    fsync_interval:
        fsync every N written lines (1 = every line, the checkpoint's
        contract; the default trades at most N lost records for not
        paying an fsync per request).
    metrics:
        Registry receiving ``journal.accepts`` / ``journal.completes``
        / ``journal.write_errors`` / ``journal.dropped_lines`` (a
        private one is created when omitted).

    Attributes
    ----------
    recovered:
        The incomplete accepts found on open — what
        :meth:`RootServer.start` replays.  Cleared by :meth:`replayed`
        bookkeeping only in the sense that completions are appended;
        the list itself is the recovery worklist.
    fail_writes_after:
        Fault hook (chaos/tests): after this many successful writes,
        every subsequent write raises ``OSError(ENOSPC)`` internally —
        exercised as the real full-disk path (counted + suspended).
    kill_after_accepts:
        Fault hook (chaos/tests): SIGKILL this process right after the
        Nth ``accept`` record of this session is durably written — the
        deterministic daemon-crash-mid-flight the restart suite needs.
    """

    def __init__(
        self,
        path: str,
        *,
        fsync_interval: int = DEFAULT_FSYNC_INTERVAL,
        metrics: MetricsRegistry | None = None,
    ):
        if fsync_interval < 1:  # before compaction touches the file
            raise ValueError("fsync_interval must be >= 1")
        self.path = path
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.kill_after_accepts: int | None = None
        self._accepts_this_session = 0
        self.recovered: list[JournalEntry] = []
        self.dropped_lines = 0
        if os.path.exists(path) and os.path.getsize(path) > 0:
            self._recover()
        self._log = JsonlWriter(
            path, fsync_interval,
            errors=self.metrics.counter("journal.write_errors"))

    # -- recovery --------------------------------------------------------
    def _recover(self) -> None:
        """Load the incomplete accepts and compact the file to them."""
        parsed, torn = read_jsonl(self.path)
        records = [r for r in parsed if _is_record(r)]
        self.dropped_lines = torn + len(parsed) - len(records)
        if self.dropped_lines:
            self.metrics.counter("journal.dropped_lines").inc(
                self.dropped_lines)
        self.recovered = incomplete_entries(records)
        try:
            rewrite(self.path, [json.dumps(dict(entry), separators=(",", ":"))
                                for entry in self.recovered])
        except OSError:
            # Compaction is an optimization, recovery is not: keep the
            # uncompacted journal and carry on.
            pass

    # -- the write path --------------------------------------------------
    @property
    def fail_writes_after(self) -> int | None:
        return self._log.fail_writes_after

    @fail_writes_after.setter
    def fail_writes_after(self, n: int | None) -> None:
        self._log.fail_writes_after = n

    def _write(self, rec: dict[str, Any]) -> bool:
        """Append one record; ``True`` if it reached the file."""
        return self._log.write(json.dumps(rec, separators=(",", ":")))

    def accept(self, request_id: str, key: str, coeffs: Sequence[int],
               mu: int, strategy: str, priority: int = 0) -> None:
        """Durably record one admitted request (called *before* it is
        enqueued, so a kill between accept and answer is recoverable)."""
        wrote = self._write({
            "ev": "accept", "schema": SCHEMA, "request_id": request_id,
            "key": key, "coeffs": [str(int(c)) for c in coeffs],
            "bits": int(mu), "strategy": strategy, "priority": int(priority),
            "time_unix": time.time(),
        })
        if wrote:
            self.metrics.counter("journal.accepts").inc()
            self._accepts_this_session += 1
            if (self.kill_after_accepts is not None
                    and self._accepts_this_session
                    >= self.kill_after_accepts):
                # Close (and so fsync) first: the crash being simulated
                # must not also lose the accept it interrupts.
                self._log.close()
                os.kill(os.getpid(), 9)

    def complete(self, request_id: str, key: str, status: str) -> None:
        """Record the single completion an accepted request owes."""
        if self._write({"ev": "complete", "request_id": request_id,
                        "key": key, "status": status}):
            self.metrics.counter("journal.completes").inc()

    # -- lifecycle -------------------------------------------------------
    @property
    def broken(self) -> bool:
        """True once a write error suspended journaling."""
        return self._log.broken

    def close(self) -> None:
        """Flush, fsync, and close (idempotent)."""
        self._log.close()
