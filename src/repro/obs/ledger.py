"""Append-only, schema-versioned cross-run performance ledger.

The bench artifacts (:mod:`repro.obs.perf`) capture *one* run each;
the ledger strings runs together into the repo's performance
trajectory.  Every traced/benched run appends one
:class:`RunRecord` JSONL line carrying the run's identity (command,
name, params), its environment fingerprint, the flat metrics, the
per-phase bit-cost/wall rollup, the interval histograms, the
parallel-utilization rollup, and the executor reliability counters —
everything :mod:`repro.obs.tracediff` needs to attribute a regression
between any two runs, months apart.

Two tiers under one directory (``benchmarks/results/ledger/`` by
default, ``REPRO_LEDGER_DIR`` overrides):

* ``ledger.jsonl`` — the **committed** tier: curated trajectory
  points checked into git (one per PR's smoke bench);
* ``local.jsonl`` — the **local** tier: every run on this machine,
  gitignored, append-only (:mod:`repro.obs.jsonl`).

Query via :meth:`Ledger.query` / :meth:`Ledger.get` or the ``repro
runs`` CLI (``list`` / ``show``); diff two records with ``repro diff``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.obs.jsonl import JsonlWriter, read_jsonl
from repro.obs.perf import BenchArtifact, env_fingerprint

__all__ = [
    "SCHEMA",
    "TIERS",
    "RunRecord",
    "Ledger",
    "ledger_dir",
    "new_run_id",
    "validate_record",
    "record_from_artifact",
]

#: Version tag written into (and required of) every ledger line.
SCHEMA = "repro.run-ledger/1"

#: Tier name -> file name under the ledger directory.
TIERS = {"committed": "ledger.jsonl", "local": "local.jsonl"}


def ledger_dir() -> str:
    """The ledger directory (created if absent).

    ``REPRO_LEDGER_DIR`` overrides; otherwise ``ledger/`` under the
    bench results directory (:func:`repro.bench.report.results_dir`),
    so the committed tier lives next to the ``BENCH_*.json`` artifacts.
    """
    root = os.environ.get("REPRO_LEDGER_DIR")
    if root is None:
        from repro.bench.report import results_dir

        root = os.path.join(results_dir(), "ledger")
    os.makedirs(root, exist_ok=True)
    return root


def new_run_id() -> str:
    """A unique, time-sortable run id: ``<unix-ns hex>-<pid hex>-<rand>``."""
    return (f"{time.time_ns():x}-{os.getpid():x}-"
            f"{os.urandom(2).hex()}")


@dataclass
class RunRecord:
    """One run's ledger entry, in comparable, versioned form.

    ``metrics`` uses the artifact shape (``{"kind", "value"}`` per
    name); ``phases`` maps phase names to ``{"bit_cost", "wall_ns"}``;
    ``parallel`` is a :func:`repro.obs.rollup.parallel_rollup` dict
    (``{}`` for sequential runs); ``reliability`` is the zero-filled
    :func:`repro.obs.metrics.reliability_rollup` counter dict.
    """

    command: str
    name: str = ""
    run_id: str = field(default_factory=new_run_id)
    time_unix: float = field(default_factory=time.time)
    params: dict[str, Any] = field(default_factory=dict)
    env: dict[str, Any] = field(default_factory=env_fingerprint)
    metrics: dict[str, dict[str, Any]] = field(default_factory=dict)
    phases: dict[str, dict[str, Any]] = field(default_factory=dict)
    histograms: dict[str, dict[str, Any]] = field(default_factory=dict)
    parallel: dict[str, Any] = field(default_factory=dict)
    reliability: dict[str, int] = field(default_factory=dict)

    def add_metric(self, name: str, value: float, kind: str = "count") -> None:
        """Record one named scalar (artifact-shaped)."""
        if kind not in ("count", "wall"):
            raise ValueError(f"unknown metric kind {kind!r}")
        self.metrics[name] = {"kind": kind, "value": value}

    def metric(self, name: str) -> float:
        """The recorded value of metric ``name`` (KeyError if absent)."""
        return self.metrics[name]["value"]

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dump (inverse of :meth:`from_dict`)."""
        return {
            "schema": SCHEMA,
            "run_id": self.run_id,
            "command": self.command,
            "name": self.name,
            "time_unix": self.time_unix,
            "params": dict(self.params),
            "env": dict(self.env),
            "metrics": {k: dict(v) for k, v in sorted(self.metrics.items())},
            "phases": dict(self.phases),
            "histograms": dict(self.histograms),
            "parallel": dict(self.parallel),
            "reliability": dict(self.reliability),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "RunRecord":
        """Rebuild a validated record from a parsed JSON object."""
        validate_record(d)
        return cls(
            command=d["command"],
            name=d.get("name", ""),
            run_id=d["run_id"],
            time_unix=d.get("time_unix", 0.0),
            params=dict(d.get("params", {})),
            env=dict(d.get("env", {})),
            metrics={k: dict(v) for k, v in d.get("metrics", {}).items()},
            phases=dict(d.get("phases", {})),
            histograms=dict(d.get("histograms", {})),
            parallel=dict(d.get("parallel", {})),
            reliability=dict(d.get("reliability", {})),
        )


def validate_record(d: Mapping[str, Any]) -> None:
    """Schema check for one parsed ledger line; raises ``ValueError``."""
    if not isinstance(d, Mapping):
        raise ValueError("ledger record must be a JSON object")
    if d.get("schema") != SCHEMA:
        raise ValueError(
            f"unsupported ledger schema {d.get('schema')!r} "
            f"(expected {SCHEMA!r})"
        )
    for key in ("run_id", "command"):
        if not d.get(key) or not isinstance(d[key], str):
            raise ValueError(f"ledger record needs a nonempty string {key!r}")
    metrics = d.get("metrics", {})
    if not isinstance(metrics, Mapping):
        raise ValueError("'metrics' must be an object")
    for mname, m in metrics.items():
        if (not isinstance(m, Mapping) or "value" not in m
                or m.get("kind") not in ("count", "wall")):
            raise ValueError(f"metric {mname!r} must be {{kind, value}}")


def record_from_artifact(
    artifact: BenchArtifact,
    command: str = "bench",
    registry: Any = None,
) -> RunRecord:
    """A ledger record mirroring one bench artifact.

    Copies the artifact's params/env/metrics/phases/histograms and its
    parallel rollup; ``registry`` (the executor's
    :class:`~repro.obs.metrics.MetricsRegistry`, when the run had one)
    fills the reliability counter block.
    """
    from repro.obs.metrics import reliability_rollup

    rec = RunRecord(
        command=command,
        name=artifact.name,
        params=dict(artifact.params),
        env=dict(artifact.env),
        metrics={k: dict(v) for k, v in artifact.metrics.items()},
        phases={k: dict(v) for k, v in artifact.phases.items()},
        histograms=dict(artifact.histograms),
        parallel=dict(artifact.parallel),
    )
    if registry is not None:
        rec.reliability = reliability_rollup(registry)
    else:
        # The reliability vocabulary lives in the artifact metrics too
        # (``executor.*`` counters) when the bench ran a pool stage.
        rec.reliability = {
            k: int(v["value"]) for k, v in artifact.metrics.items()
            if k.startswith("executor.") and v["kind"] == "count"
        }
    return rec


class Ledger:
    """Reader/appender over the two-tier JSONL run ledger.

    ``root`` defaults to :func:`ledger_dir`.  Reads skip torn lines and
    lines that are not ledger records.
    """

    def __init__(self, root: str | None = None):
        self.root = root if root is not None else ledger_dir()
        os.makedirs(self.root, exist_ok=True)

    def path(self, tier: str) -> str:
        """The JSONL file backing ``tier`` (``committed`` / ``local``)."""
        if tier not in TIERS:
            raise ValueError(f"unknown ledger tier {tier!r}; "
                             f"known: {sorted(TIERS)}")
        return os.path.join(self.root, TIERS[tier])

    def append(self, record: RunRecord, tier: str = "local") -> str:
        """Durably append one record to ``tier``; returns the path."""
        path = self.path(tier)
        line = json.dumps(record.to_dict(), separators=(",", ":"),
                          sort_keys=True)
        with JsonlWriter(path) as log:
            log.write(line)
        return path

    def records(self, tier: str = "all") -> list[RunRecord]:
        """All records of ``tier`` (``all`` merges committed + local),
        oldest first; invalid or torn lines are skipped."""
        tiers = sorted(TIERS) if tier == "all" else [tier]
        out: list[RunRecord] = []
        for t in tiers:
            for d in read_jsonl(self.path(t))[0]:
                try:
                    out.append(RunRecord.from_dict(d))
                except ValueError:
                    continue  # a foreign line
        out.sort(key=lambda r: r.time_unix)
        return out

    def query(
        self,
        command: str | None = None,
        name: str | None = None,
        tier: str = "all",
        limit: int | None = None,
    ) -> list[RunRecord]:
        """Filtered records, **newest first** (CLI order).

        ``command`` / ``name`` filter exactly; ``limit`` keeps the most
        recent N after filtering.
        """
        recs = [
            r for r in reversed(self.records(tier))
            if (command is None or r.command == command)
            and (name is None or r.name == name)
        ]
        return recs[:limit] if limit is not None else recs

    def get(self, run_id: str, tier: str = "all") -> RunRecord:
        """The record whose ``run_id`` matches (unique prefixes allowed).

        Raises ``KeyError`` when nothing matches and ``ValueError``
        when a prefix is ambiguous.
        """
        matches = [r for r in self.records(tier)
                   if r.run_id == run_id or r.run_id.startswith(run_id)]
        exact = [r for r in matches if r.run_id == run_id]
        if exact:
            return exact[-1]
        if not matches:
            raise KeyError(f"no ledger record matches {run_id!r}")
        ids = {r.run_id for r in matches}
        if len(ids) > 1:
            raise ValueError(
                f"run id prefix {run_id!r} is ambiguous: {sorted(ids)}"
            )
        return matches[-1]
