"""Declarative service-level objectives over the request-timeline ring.

An :class:`Objective` names one promise the daemon makes — a latency
percentile ceiling (``p99_ms``, ``p50_ms``, any ``pNN_ms``) or an
availability floor (``error_rate``) — and :func:`evaluate_slo` measures
it against the rolling window of recently completed requests that
:class:`repro.serve.reqtrace.RequestTracker` keeps.  The verdict uses the
error-budget framing: each objective reports its observed value, its
threshold, and the **burn** (observed / threshold, so ``1.0`` is the
budget line and ``2.0`` means twice the promised tail); the overall
report is ``ok`` iff every burn is at or under ``1.0``.

Samples are plain dicts (``{"time_unix", "total_ms", "status"}``), so
the evaluator works identically on the live ring, a replayed access
log, and the loadtest driver's latency list.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

__all__ = [
    "Objective",
    "SLOConfig",
    "DEFAULT_SLO",
    "evaluate_slo",
    "timeline_samples",
]

#: Statuses counted against the availability objective (a shed request
#: is a broken promise too; a ``partial`` kept the budget contract).
ERROR_STATUSES = ("error", "overloaded")

_PCTL = re.compile(r"^p(\d{1,2})_ms$")


@dataclass(frozen=True)
class Objective:
    """One promise: a named kind and its threshold.

    ``kind`` is ``error_rate`` (threshold a fraction in ``[0, 1]``) or
    ``pNN_ms`` (threshold a latency ceiling in milliseconds for the
    NN-th percentile, e.g. ``p99_ms``)."""

    name: str
    kind: str
    threshold: float

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ValueError(f"objective {self.name!r}: threshold "
                             "must be >= 0")
        if self.kind != "error_rate" and not _PCTL.match(self.kind):
            raise ValueError(
                f"objective {self.name!r}: unknown kind {self.kind!r} "
                "(want error_rate or pNN_ms)"
            )

    @property
    def quantile(self) -> float | None:
        """The percentile as a fraction (``None`` for error_rate)."""
        m = _PCTL.match(self.kind)
        return int(m.group(1)) / 100.0 if m else None


@dataclass(frozen=True)
class SLOConfig:
    """A set of objectives plus the rolling window they apply to."""

    objectives: tuple[Objective, ...] = field(default_factory=tuple)
    window_seconds: float = 300.0

    def __post_init__(self) -> None:
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be > 0")

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "SLOConfig":
        """Build from the JSON shape ``--slo-config`` files use::

            {"window_seconds": 300,
             "objectives": [{"name": "latency", "kind": "p99_ms",
                             "threshold": 500}]}
        """
        objs = tuple(
            Objective(name=str(o["name"]), kind=str(o["kind"]),
                      threshold=float(o["threshold"]))
            for o in d.get("objectives", [])
        )
        return cls(objectives=objs,
                   window_seconds=float(d.get("window_seconds", 300.0)))

    @classmethod
    def from_file(cls, path: str) -> "SLOConfig":
        """Load a JSON config file (:meth:`from_dict` shape)."""
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


#: Generous lab-daemon defaults: a 5-minute window promising p99 under
#: 5 s and fewer than 5 % errors — loose enough that a healthy CI smoke
#: passes, tight enough that a wedged pool or shedding storm trips it.
DEFAULT_SLO = SLOConfig(objectives=(
    Objective(name="latency_p99", kind="p99_ms", threshold=5000.0),
    Objective(name="availability", kind="error_rate", threshold=0.05),
))


def timeline_samples(timelines: Sequence[Any]) -> list[dict[str, Any]]:
    """Project :class:`~repro.serve.reqtrace.RequestTimeline` objects
    (or compatible dicts) onto the evaluator's sample shape."""
    out = []
    for tl in timelines:
        if isinstance(tl, Mapping):
            out.append({
                "time_unix": float(tl.get("time_unix", 0.0)),
                "total_ms": float(tl.get("total_ns", 0)) / 1e6,
                "status": str(tl.get("status", "?")),
            })
        else:
            out.append({
                "time_unix": tl.time_unix,
                "total_ms": tl.total_ns / 1e6,
                "status": tl.status,
            })
    return out


def _percentile(sorted_ms: Sequence[float], q: float) -> float:
    rank = max(1, math.ceil(len(sorted_ms) * q))
    return sorted_ms[rank - 1]


def evaluate_slo(
    samples: Sequence[Mapping[str, Any]],
    config: SLOConfig = DEFAULT_SLO,
    now: float | None = None,
) -> dict[str, Any]:
    """Measure every objective against the samples inside the window.

    ``samples`` carry ``time_unix`` / ``total_ms`` / ``status``;
    ``now`` anchors the window (defaults to the newest sample, so
    replayed logs evaluate in their own time frame).  Returns::

        {"ok": bool, "window_seconds": ..., "samples": N,
         "objectives": [{"name", "kind", "threshold", "observed",
                         "burn", "ok"}, ...]}

    With zero in-window samples every objective reports ``observed``
    ``None`` and passes — no traffic breaks no promises.
    """
    if now is None:
        now = max((float(s.get("time_unix", 0.0)) for s in samples),
                  default=0.0)
    window = [s for s in samples
              if float(s.get("time_unix", 0.0)) >= now - config.window_seconds]
    lat = sorted(float(s.get("total_ms", 0.0)) for s in window)
    errors = sum(1 for s in window
                 if str(s.get("status")) in ERROR_STATUSES)
    out: dict[str, Any] = {
        "ok": True,
        "window_seconds": config.window_seconds,
        "samples": len(window),
        "objectives": [],
    }
    for obj in config.objectives:
        observed: float | None
        if not window:
            observed = None
        elif obj.kind == "error_rate":
            observed = errors / len(window)
        else:
            q = obj.quantile
            assert q is not None
            observed = _percentile(lat, q)
        if observed is None:
            burn, ok = 0.0, True
        elif obj.threshold == 0:
            burn = math.inf if observed > 0 else 0.0
            ok = observed == 0
        else:
            burn = observed / obj.threshold
            ok = burn <= 1.0
        out["objectives"].append({
            "name": obj.name, "kind": obj.kind,
            "threshold": obj.threshold, "observed": observed,
            "burn": burn, "ok": ok,
        })
        out["ok"] = out["ok"] and ok
    return out
