"""``repro serve``: the asyncio root-finding daemon and its clients.

One shared persistent :class:`repro.sched.executor.ParallelRootFinder`
behind two front-ends — newline-delimited JSON on stdin/stdout
(:func:`repro.serve.stdio.serve_stdio`) and a minimal HTTP/1.1 JSON
API (:mod:`repro.serve.http`) — with:

* admission control and per-request fairness through
  :class:`repro.resilience.budget.Budget` (deadline / bit-budget per
  request; an overrun returns the certified partial result, the
  protocol rendering of the CLI's exit-code-3 contract);
* a content-addressed result cache
  (:class:`repro.serve.cache.ResultCache`) keyed by
  :func:`repro.resilience.checkpoint.poly_key` — in-memory LRU bounded
  by byte size with an optional disk tier under ``REPRO_CACHE_DIR``;
* request priorities and backpressure: when queue-depth telemetry
  (admitted requests plus the executor's own backlog) crosses the
  admission threshold, new requests are shed with a structured
  429-style reply instead of growing the queue without bound;
* a load-test driver (:mod:`repro.serve.loadtest`) that replays
  thousands of mixed-degree requests against a live daemon, verifies
  every answer bit-for-bit against the sequential finder, and folds
  p50/p99 latency, throughput, queue-wait/solve decomposition, and an
  SLO verdict into the ``BenchArtifact`` regression gate;
* crash safety (:mod:`repro.serve.journal`): an optional WAL-style
  request journal records every accepted request before it is
  enqueued; a restarted daemon replays the incomplete entries through
  the result cache, so an accepted request survives a SIGKILL with an
  exactly-once, bit-exact result (the ``poly_key`` content address
  dedups).  The disk cache carries per-entry sha256 checksums, and a
  startup fsck quarantines corrupt entries (see docs/CHAOS.md and the
  ``repro chaos`` campaign that gates all of this in CI);
* request-scoped tracing (:mod:`repro.serve.reqtrace`): every request
  gets a server-assigned ``request_id`` and a stage timeline
  (admission → validate → queue_wait → cache_lookup → budget_setup →
  solve → serialize → write, wall-ns and bit-cost per stage) recorded
  into a bounded ring, an optional rotated JSONL access log, and —
  for slow/shed/error/partial requests — tail-captured Chrome traces;
  :mod:`repro.obs.slo` evaluates declarative objectives over the ring
  (``GET /slo``, the ``slo`` stdio op, ``repro tail``).

See docs/SERVING.md for the protocol and operational contract.
"""

from repro.serve.cache import ResultCache
from repro.serve.journal import RequestJournal, incomplete_entries, read_journal
from repro.serve.protocol import (
    ProtocolError,
    Request,
    error_response,
    metrics_response,
    ok_response,
    overloaded_response,
    parse_request,
    partial_response,
    salvage_id,
)
from repro.serve.reqtrace import (
    RequestTimeline,
    RequestTracker,
    read_access_log,
)
from repro.serve.server import RootServer

__all__ = [
    "ResultCache",
    "RequestJournal",
    "read_journal",
    "incomplete_entries",
    "RootServer",
    "Request",
    "ProtocolError",
    "parse_request",
    "salvage_id",
    "ok_response",
    "partial_response",
    "error_response",
    "overloaded_response",
    "metrics_response",
    "RequestTimeline",
    "RequestTracker",
    "read_access_log",
]
