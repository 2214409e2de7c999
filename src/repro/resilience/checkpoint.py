"""Streaming JSONL checkpoints for batch root-finding runs.

``repro batch --checkpoint FILE`` streams every completed polynomial's
result to ``FILE`` as it finishes (one fsync'd JSON line per
polynomial), so a batch run killed at any point — OOM, deploy, SIGKILL
— resumes where it stopped: on restart the checkpoint is loaded and
already-solved polynomials are answered from it without re-solving.

File format (``repro.batch-checkpoint/1``)::

    {"schema": "repro.batch-checkpoint/1", "mu_bits": 53, "strategy": "hybrid"}
    {"key": "<sha256>", "index": 0, "scaled": ["-768", "0", "512"]}
    ...

* The header pins the parameters the results depend on; resuming with
  a different ``mu``/``strategy`` raises :class:`CheckpointMismatch`
  (silently mixing precisions would corrupt the batch).
* ``key`` is a content hash of the polynomial *and* the parameters
  (:func:`poly_key`), so entries are valid regardless of input order
  and duplicates in the input re-use one entry.
* ``scaled`` values are decimal strings — exact at any magnitude, safe
  for JSON readers that lack bignums.
* A truncated final line (the process died mid-write) is dropped on
  load and ended before the next append (:mod:`repro.obs.jsonl`).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Iterable, Sequence

from repro.obs.jsonl import JsonlWriter, read_jsonl

__all__ = ["BatchCheckpoint", "CheckpointMismatch", "poly_key"]

SCHEMA = "repro.batch-checkpoint/1"


class CheckpointMismatch(ValueError):
    """The checkpoint file was written with different run parameters."""


def poly_key(coeffs: Iterable[int], mu: int, strategy: str) -> str:
    """Content hash identifying one (polynomial, mu, strategy) job.

    The key is **injective** on distinct jobs: the payload is a
    JSON-canonical array ``[[coeffs as decimal strings], mu, strategy]``
    (compact separators, ``ensure_ascii``), so no ad-hoc delimiter
    exists for an adversarial strategy string to collide with, and the
    list structure keeps coefficient digits from bleeding into ``mu``
    (``([1, 23], mu=4)`` and ``([1, 2], mu=34)`` serialize differently).
    Inputs are normalized first — ``int(c)`` / ``int(mu)`` so numeric
    look-alikes (``True`` vs ``1``) cannot alias distinct keys — which
    leaves the encoding of every existing integer-coefficient
    checkpoint unchanged.  This same key addresses the ``repro serve``
    result cache, where a collision would serve one client another
    polynomial's roots.
    """
    if not isinstance(strategy, str):
        raise TypeError(f"strategy must be str, got {type(strategy).__name__}")
    payload = json.dumps(
        [[str(int(c)) for c in coeffs], int(mu), strategy],
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


class BatchCheckpoint:
    """Append-only JSONL checkpoint for one batch configuration.

    Opening an existing file loads every complete entry and validates
    the header against ``mu_bits``/``strategy``; opening a fresh path
    writes the header.  :meth:`record` appends, flushes, and fsyncs one
    line per result — the durability unit is one polynomial.

    Attributes
    ----------
    hits:
        Results answered from the checkpoint this session (incremented
        by :meth:`get` callers via :meth:`hit`).
    dropped_lines:
        Malformed lines skipped on load (normally 0 or 1 — a line
        truncated by the kill).
    kill_after:
        Fault-injection hook (test-only, mirrors
        :class:`repro.verify.faults.FaultPlan`): after this many
        entries have been recorded *this session*, the process
        SIGKILLs itself — the deterministic rendering of "the batch
        run died mid-flight" that the resume tests replay.
    """

    def __init__(self, path: str, mu_bits: int, strategy: str):
        self.path = path
        self.mu_bits = mu_bits
        self.strategy = strategy
        self.entries: dict[str, list[int]] = {}
        self.hits = 0
        self.kill_after: int | None = None
        self._recorded = 0
        records, self.dropped_lines = read_jsonl(path)
        if records:
            self._load(records)
        self._log = JsonlWriter(path)
        if not records:
            self._log.write(json.dumps({
                "schema": SCHEMA, "mu_bits": mu_bits, "strategy": strategy,
            }))

    # -- lifecycle -------------------------------------------------------
    def _load(self, records: list[Any]) -> None:
        header = records[0]
        if not isinstance(header, dict) or header.get("schema") != SCHEMA:
            raise CheckpointMismatch(
                f"{self.path}: not a {SCHEMA} checkpoint"
            )
        if (header.get("mu_bits") != self.mu_bits
                or header.get("strategy") != self.strategy):
            raise CheckpointMismatch(
                f"{self.path}: checkpoint was written with "
                f"mu_bits={header.get('mu_bits')} "
                f"strategy={header.get('strategy')!r}, this run uses "
                f"mu_bits={self.mu_bits} strategy={self.strategy!r}"
            )
        for rec in records[1:]:
            if not (isinstance(rec, dict) and "key" in rec
                    and isinstance(rec.get("scaled"), list)):
                self.dropped_lines += 1
                continue
            self.entries[rec["key"]] = [int(s) for s in rec["scaled"]]

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        self._log.close()

    def __enter__(self) -> "BatchCheckpoint":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    # -- the batch-loop API ----------------------------------------------
    def key_for(self, coeffs: Iterable[int]) -> str:
        """The :func:`poly_key` under this checkpoint's parameters."""
        return poly_key(coeffs, self.mu_bits, self.strategy)

    def get(self, key: str) -> list[int] | None:
        """The recorded result for ``key``, or ``None`` if not solved."""
        scaled = self.entries.get(key)
        return None if scaled is None else list(scaled)

    def hit(self) -> None:
        """Count one result answered from the checkpoint."""
        self.hits += 1

    def record(self, key: str, index: int, scaled: Sequence[int]) -> None:
        """Durably append one completed result (no-op if already
        recorded — duplicates in the input share an entry)."""
        if key in self.entries:
            return
        self.entries[key] = list(scaled)
        self._log.write(json.dumps({
            "key": key, "index": index, "scaled": [str(s) for s in scaled],
        }))
        self._recorded += 1
        if self.kill_after is not None and self._recorded >= self.kill_after:
            os.kill(os.getpid(), 9)  # SIGKILL: no cleanup, as in a real kill
