"""Request-scoped tracing for the daemon: ids, stage timelines, tail
capture.

Every request admitted by :class:`~repro.serve.server.RootServer` gets
a server-assigned ``request_id`` (echoed in the JSONL reply and the
``X-Request-Id`` HTTP header) and a :class:`RequestTimeline` — the
paper's phase-by-phase cost decomposition applied to the unit users
actually experience.  The stages, in request order:

=================  =========================================================
stage              what it measures
=================  =========================================================
``admission``      backpressure check + enqueue bookkeeping
``validate``       :func:`~repro.serve.protocol.parse_request`
``queue_wait``     enqueue → dispatcher pop (the priority-queue delay)
``cache_lookup``   :func:`~repro.resilience.checkpoint.poly_key` + cache get
``budget_setup``   per-request ``mu``/``strategy``/``Budget`` assignment
``solve``          the finder call — wall ns *and* the bit-cost delta
``serialize``      ``json.dumps`` of the response (front-end measured)
``write``          flush to the transport (front-end measured)
=================  =========================================================

Each timeline keeps its stages as the top-level spans of its own
:class:`~repro.obs.trace.Tracer` — the span model ``--trace`` and
``--chrome-trace`` use.  Stages are **sub-intervals** of the request's
admission→write window: their sum reconciles with the end-to-end
latency up to the untimed seams (thread handoff into the solve lane,
event-loop scheduling) — the "serialization slack" the acceptance
tests bound.

Timelines land in three sinks, all owned by :class:`RequestTracker`:

* a bounded in-memory ring (``RequestTracker.ring``, a ``deque``) —
  the window the SLO evaluator reads;
* an optional JSONL access log — a :class:`repro.obs.jsonl.JsonlWriter`
  size-rotated to ``<path>.1``; a failed write or fsync is counted
  (``reqtrace.access_log_errors``) and stops the log, never the
  request; ``repro tail`` ranks its records;
* **tail capture**: a request that is slow beyond the threshold, shed,
  errored, or partial gets its trace written as a Chrome trace (via
  :func:`repro.obs.chrometrace.spans_to_chrome`) under the capture
  directory, under a root ``request`` span.  With a capture directory
  the server has the finder record each solve into the request's
  trace, so the executor's spans sit inside ``solve``.
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.costmodel.counter import PhaseStats
from repro.obs.jsonl import JsonlWriter, read_jsonl
from repro.obs.metrics import MetricsRegistry, labeled
from repro.obs.trace import Span, Tracer

__all__ = [
    "STAGES",
    "SCHEMA",
    "RequestTimeline",
    "read_access_log",
    "RequestTracker",
    "degree_bucket",
    "rank_timelines",
    "format_tail_table",
]

#: Canonical stage order (rendering and reconciliation follow it).
STAGES = ("admission", "validate", "queue_wait", "cache_lookup",
          "budget_setup", "solve", "serialize", "write")

#: Schema tag stamped on every serialized timeline.
SCHEMA = "repro.reqtrace/1"

#: Statuses that are captured by the tail sampler regardless of speed.
FAILURE_STATUSES = ("error", "overloaded", "partial")


def degree_bucket(degree: int) -> str:
    """Power-of-two degree bucket label (``"1-2"``, ``"3-4"``,
    ``"5-8"``, ``"9-16"``, ...) — coarse enough that the label set
    stays bounded, fine enough to separate the paper's cost regimes."""
    if degree <= 2:
        return "1-2"
    upper = 1 << (degree - 1).bit_length()
    return f"{upper // 2 + 1}-{upper}"


@dataclass
class RequestTimeline:
    """One request's trace, from admission to the final write.

    ``trace`` is an ordinary :class:`~repro.obs.trace.Tracer` whose
    top-level spans are the stages, in the order they were recorded.
    Spans recorded while a stage is open — the finder's own spans
    inside ``solve`` when the solve is traced — nest under that stage
    and never count as stages.  ``start_ns`` is
    ``time.perf_counter_ns()``, the clock every span uses;
    ``time_unix`` anchors the timeline in wall-clock time for the SLO
    window.
    """

    request_id: str
    client_id: Any = None
    priority: int = 0
    degree: int = 0
    start_ns: int = 0
    time_unix: float = 0.0
    status: str = "pending"
    code: int = 0
    cached: bool = False
    end_ns: int | None = None
    trace: Tracer = field(default_factory=Tracer)

    def add_stage(self, name: str, start_ns: int, wall_ns: int,
                  bit_cost: int = 0) -> None:
        """Record one closed stage (durations clamped nonnegative); a
        positive ``bit_cost`` becomes the stage span's cost."""
        sp = self.trace.record(name, start_ns, start_ns + max(0, wall_ns),
                               "request")
        if bit_cost > 0:
            sp.cost = {"request": PhaseStats(mul_bit_cost=bit_cost)}

    @property
    def stages(self) -> list[Span]:
        """The stage spans (the trace's top-level spans)."""
        return [sp for sp in self.trace.spans if sp.parent is None]

    @property
    def total_ns(self) -> int:
        """Admission→write wall time; falls back to the stage span when
        the timeline was never closed."""
        if self.end_ns is not None:
            return max(0, self.end_ns - self.start_ns)
        return self.stage_sum_ns

    @property
    def stage_sum_ns(self) -> int:
        """Sum of the measured stage durations — reconciles with
        :attr:`total_ns` up to the untimed seams."""
        return sum(s.wall_ns for s in self.stages)

    @property
    def bit_cost(self) -> int:
        """Total bit-operation cost charged across the stages."""
        return sum(s.bit_cost for s in self.stages)

    def stage_ns(self, name: str) -> int:
        """Total wall ns spent in stage ``name`` (0 when unmeasured)."""
        return sum(s.wall_ns for s in self.stages if s.name == name)

    def dominant_stage(self) -> str:
        """The stage that ate the most wall time (``"-"`` when none
        measured) — the one-word answer to "why was this slow?"."""
        stages = self.stages
        if not stages:
            return "-"
        return max(stages, key=lambda s: s.wall_ns).name

    def close(self, status: str, code: int, *, cached: bool = False,
              end_ns: int | None = None) -> None:
        """Record the outcome and stamp the end of the window."""
        self.status = status
        self.code = code
        self.cached = cached
        if end_ns is not None:
            self.end_ns = end_ns

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form, one access-log line (schema-stamped; a
        stage's bit cost is omitted when zero, to keep lines tight)."""
        stages = []
        for s in self.stages:
            d: dict[str, Any] = {"name": s.name, "start_ns": s.start_ns,
                                 "wall_ns": s.wall_ns}
            if s.bit_cost:
                d["bit_cost"] = s.bit_cost
            stages.append(d)
        return {
            "schema": SCHEMA,
            "request_id": self.request_id,
            "id": self.client_id,
            "priority": self.priority,
            "degree": self.degree,
            "status": self.status,
            "code": self.code,
            "cached": self.cached,
            "time_unix": self.time_unix,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "total_ns": self.total_ns,
            "bit_cost": self.bit_cost,
            "dominant_stage": self.dominant_stage(),
            "stages": stages,
        }


def read_access_log(path: str) -> list[dict[str, Any]]:
    """Every parseable record of an access log, oldest first: the
    rotated generation (``<path>.1``) before the live file, torn and
    blank lines skipped."""
    return [r for p in (path + ".1", path) for r in read_jsonl(p)[0]
            if isinstance(r, dict)]


class RequestTracker:
    """Owns every per-request observability sink for one daemon.

    The server opens a timeline per admitted request and finalizes it
    at the response boundary; front-ends that can measure their own
    serialize/write cost set ``defer_io`` and call
    :meth:`finish_io` afterwards — the tracker holds the timeline in a
    bounded pending map in between (overflow finalizes the oldest
    entry immediately rather than leaking).

    Finalizing a timeline: appends it to :attr:`ring` (a ``deque`` of
    the ``ring_size`` most recent timelines), updates the unlabeled
    ``server.latency_us`` / ``server.queue_wait_us`` /
    ``server.solve_us`` histograms and the per-priority /
    per-degree-bucket ``server.latency_us`` and
    ``server.queue_wait_us`` labeled families (both latency series
    observe the admission→reply window), appends the access-log line,
    and tail-captures a Chrome trace when the request was slow, shed,
    errored, or partial.
    """

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        *,
        ring_size: int = 512,
        access_log: str | None = None,
        access_log_max_bytes: int = 16 << 20,
        fsync_interval: int = 32,
        capture_dir: str | None = None,
        slow_threshold_ns: int = 250_000_000,
        max_pending_io: int = 1024,
    ):
        if ring_size < 1:
            raise ValueError("ring_size must be >= 1")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.ring: deque[RequestTimeline] = deque(maxlen=ring_size)
        self.capture_dir = capture_dir
        self.slow_threshold_ns = slow_threshold_ns
        self.access_log = (JsonlWriter(
            access_log, fsync_interval, access_log_max_bytes,
            errors=self.metrics.counter("reqtrace.access_log_errors"))
            if access_log else None)
        self._pending_io: dict[str, RequestTimeline] = {}
        self._max_pending_io = max_pending_io
        self._seq = 0
        self._prefix = os.urandom(4).hex()

    def new_request_id(self) -> str:
        """A server-unique id: a per-process random prefix plus a
        sequence number — sortable within one daemon's lifetime,
        collision-free across restarts sharing an access log."""
        self._seq += 1
        return f"{self._prefix}-{self._seq:06d}"

    # -- finalization ----------------------------------------------------
    def finalize(self, tl: RequestTimeline,
                 defer_io: bool = False) -> None:
        """Close out one timeline.

        With ``defer_io`` the timeline is parked until the front-end
        reports its serialize/write stages via :meth:`finish_io`; the
        ring and histograms update immediately either way (the solve-
        side truth must not depend on transport cooperation)."""
        self.ring.append(tl)
        self._observe(tl)
        if defer_io:
            if len(self._pending_io) >= self._max_pending_io:
                # Oldest first: complete it without IO stages rather
                # than grow without bound under a misbehaving client.
                oldest = next(iter(self._pending_io))
                self._complete(self._pending_io.pop(oldest))
            self._pending_io[tl.request_id] = tl
            return
        self._complete(tl)

    def finish_io(self, request_id: str, serialize_ns: int = 0,
                  write_ns: int = 0, *,
                  start_ns: int | None = None) -> None:
        """Attach the front-end's serialize/write stages to a deferred
        timeline and complete it (unknown ids are ignored — the
        overflow path may already have completed the request)."""
        tl = self._pending_io.pop(request_id, None)
        if tl is None:
            return
        t0 = start_ns if start_ns is not None else (
            tl.start_ns + tl.stage_sum_ns)
        if serialize_ns > 0:
            tl.add_stage("serialize", t0, serialize_ns)
        if write_ns > 0:
            tl.add_stage("write", t0 + max(0, serialize_ns), write_ns)
        tl.end_ns = t0 + max(0, serialize_ns) + max(0, write_ns)
        self._complete(tl)

    def _observe(self, tl: RequestTimeline) -> None:
        m = self.metrics
        m.counter("reqtrace.requests").inc()
        queue_us = tl.stage_ns("queue_wait") // 1000
        solve_us = tl.stage_ns("solve") // 1000
        m.histogram("server.queue_wait_us").observe(queue_us)
        if tl.stage_ns("solve"):
            m.histogram("server.solve_us").observe(solve_us)
        labels = {"priority": tl.priority,
                  "degree_bucket": degree_bucket(tl.degree)}
        total_us = tl.total_ns // 1000
        m.histogram("server.latency_us").observe(total_us)
        m.histogram(labeled("server.latency_us", **labels)).observe(total_us)
        m.histogram(labeled("server.queue_wait_us", **labels)).observe(
            queue_us)

    def _complete(self, tl: RequestTimeline) -> None:
        if self.access_log is not None:
            self.access_log.write(json.dumps(tl.to_dict(),
                                             separators=(",", ":")))
        if self._should_capture(tl):
            self._capture(tl)

    def _should_capture(self, tl: RequestTimeline) -> bool:
        return (tl.status in FAILURE_STATUSES
                or tl.total_ns > self.slow_threshold_ns)

    def _capture(self, tl: RequestTimeline) -> None:
        if self.capture_dir is None:
            return
        from repro.obs.chrometrace import spans_to_chrome

        root = Span(
            sid=len(tl.trace.spans), name=f"request {tl.request_id}",
            phase="request", depth=0, parent=None, start_ns=tl.start_ns,
            end_ns=tl.start_ns + tl.total_ns,
            attrs={"request_id": tl.request_id, "status": tl.status,
                   "degree": tl.degree, "priority": tl.priority},
            cost={},
        )
        try:
            os.makedirs(self.capture_dir, exist_ok=True)
            trace = spans_to_chrome([root, *tl.trace.spans],
                                    counters=tl.trace.counters,
                                    worker_busy=False)
            path = os.path.join(self.capture_dir,
                                f"req-{tl.request_id}.trace.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(trace, fh)
            self.metrics.counter("reqtrace.tail_captured").inc()
        except OSError:
            self.metrics.counter("reqtrace.capture_errors").inc()

    def close(self) -> None:
        """Finalize every parked timeline and fsync the access log —
        the drain step of a graceful shutdown."""
        while self._pending_io:
            _, tl = self._pending_io.popitem()
            self._complete(tl)
        if self.access_log is not None:
            self.access_log.close()


# -- the failures-first tail table -------------------------------------------

def _stage_ms(rec: Mapping[str, Any], name: str) -> float:
    return sum(s.get("wall_ns", 0) for s in rec.get("stages", ())
               if s.get("name") == name) / 1e6


def rank_timelines(
    records: Iterable[Mapping[str, Any]],
) -> list[Mapping[str, Any]]:
    """Access-log records (:meth:`RequestTimeline.to_dict` shape) in
    triage order: failures first (error/overloaded/partial, slowest
    first within), then everything else slowest first — the order
    ``repro tail`` prints."""
    return sorted(
        records,
        key=lambda r: (0 if r.get("status") in FAILURE_STATUSES else 1,
                       -r.get("total_ns", 0)),
    )


def format_tail_table(records: Sequence[Mapping[str, Any]],
                      limit: int = 20) -> str:
    """Render ranked access-log records as the ``repro tail`` table."""
    ranked = rank_timelines(records)[:limit]
    if not ranked:
        return "no timelines"
    headers = ("request_id", "id", "status", "code", "total_ms",
               "queue_ms", "solve_ms", "dominant", "degree", "prio")
    rows = [headers]
    for r in ranked:
        rows.append((
            str(r.get("request_id", "?")),
            str(r.get("id")),
            str(r.get("status", "?")) + ("*" if r.get("cached") else ""),
            str(r.get("code", 0)),
            f"{r.get('total_ns', 0) / 1e6:.2f}",
            f"{_stage_ms(r, 'queue_wait'):.2f}",
            f"{_stage_ms(r, 'solve'):.2f}",
            str(r.get("dominant_stage", "-")),
            str(r.get("degree", 0)),
            str(r.get("priority", 0)),
        ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths))
                     .rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
