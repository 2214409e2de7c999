"""The daemon's core: one shared finder behind an asyncio admission lane.

Concurrency model
-----------------

Front-ends (stdio / HTTP) call :meth:`RootServer.submit` concurrently;
admitted requests enter a priority queue and a **single** dispatcher
coroutine drains it, running each solve on a one-thread executor.  The
dispatcher is therefore the only code that touches the shared
:class:`~repro.sched.executor.ParallelRootFinder` — per-request
``mu`` / ``strategy`` / :class:`~repro.resilience.budget.Budget`
assignments need no locking, and the finder's worker pool stays warm
across every request.  Parallelism lives *inside* a solve (the pool
workers), not across solves; for the daemon's mixed small-degree
traffic the solve lane is the fairness mechanism — one tenant's
monster polynomial is bounded by its budget, not by starving others
out of pool workers.

Determinism of the cache
------------------------

The cache is consulted by the dispatcher immediately before solving,
so for same-priority traffic a duplicate enqueued behind its first
occurrence always hits — ``cache.hits == total - unique`` regardless
of client timing, which is what lets the load-test gate pin the hit
count as an exactly-gated metric.  Only complete ``ok`` results are
cached; partials and errors are never stored.

Backpressure
------------

:meth:`queue_depth` is admitted-but-unanswered requests plus the
executor's own queued-task backlog: the ``executor.queue_depth`` gauge
that the finder's dispatch loop sets in the registry the server shares
with it.  When it reaches ``max_pending``, new requests are shed at
admission with a structured 429-style reply (``server.rejected``
counts them) instead of growing the queue without bound.

Crash safety
------------

With a :class:`~repro.serve.journal.RequestJournal` attached, every
request that passes admission is durably journaled *before* it is
enqueued, and its completion is journaled when the response is
produced.  :meth:`start` replays the journal's incomplete entries
through the result cache — re-solving each lost polynomial once and
caching it under its :func:`~repro.resilience.checkpoint.poly_key` —
so a SIGKILL'd daemon delivers every accepted request's result to the
client's retry, bit-exactly and exactly once (the content address
dedups).  :meth:`start` also runs :meth:`ResultCache.fsck` over the
disk tier, quarantining corrupt entries; the tallies of both recovery
passes appear in :meth:`health` (``/readyz``).
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Mapping

from repro.costmodel.backend import counter_for
from repro.costmodel.counter import NullCounter
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import DEFAULT_SLO, SLOConfig, evaluate_slo, timeline_samples
from repro.obs.trace import NULL_TRACER
from repro.poly.dense import IntPoly
from repro.resilience import Budget, BudgetExceeded
from repro.resilience.breaker import BREAKER_OPEN
from repro.resilience.checkpoint import poly_key
from repro.sched.executor import ParallelRootFinder
from repro.serve.cache import ResultCache
from repro.serve.journal import RequestJournal
from repro.serve.protocol import (
    ProtocolError,
    Request,
    error_response,
    metrics_response,
    ok_response,
    overloaded_response,
    parse_request,
    partial_response,
)
from repro.serve.reqtrace import RequestTimeline, RequestTracker

__all__ = ["RootServer"]


class RootServer:
    """Admission control + cache + one shared pool, as an asyncio object.

    Parameters
    ----------
    mu:
        Default output precision in bits (requests may override with
        ``"bits"``).
    processes:
        Worker-pool size of the shared finder.
    strategy:
        Default interval-solver strategy.
    max_pending:
        Admission threshold: requests arriving while
        :meth:`queue_depth` is at or above this are shed with an
        ``overloaded`` reply.
    max_deadline_seconds:
        Fairness cap applied to every request's deadline (and assigned
        to requests that brought none) — see
        :func:`repro.serve.protocol.parse_request`.
    cache:
        A :class:`~repro.serve.cache.ResultCache`; built from
        ``cache_bytes`` / ``cache_dir`` when omitted.
    cache_bytes / cache_dir:
        Configuration for the default cache (ignored when ``cache`` is
        passed).  ``cache_dir=None`` honors ``REPRO_CACHE_DIR``.
    metrics:
        Shared registry; the finder's executor telemetry, the cache
        counters, and the ``server.*`` metrics all land here, so one
        ``/metrics`` scrape shows the whole daemon.
    finder:
        Injectable finder (tests); constructed from the parameters
        above when omitted.
    tracker:
        Injectable :class:`~repro.serve.reqtrace.RequestTracker`;
        built from ``access_log`` / ``capture_dir`` /
        ``slow_threshold_ms`` / ``ring_size`` when omitted.
    access_log / capture_dir / slow_threshold_ms / ring_size:
        Request-tracing configuration (see :mod:`repro.serve.reqtrace`):
        the JSONL access-log path, the tail-capture directory for
        Chrome traces of slow/shed/error/partial requests, the slow
        threshold in milliseconds, and the in-memory timeline ring
        size.  With a capture directory the finder records each solve
        into the request's own trace, so a captured Chrome trace shows
        the executor's spans and worker lanes inside ``solve``.
    slo:
        An :class:`~repro.obs.slo.SLOConfig` evaluated over the
        timeline ring by :meth:`slo_report` (``GET /slo``, the ``slo``
        stdio op); defaults to :data:`~repro.obs.slo.DEFAULT_SLO`.
    backend:
        Arithmetic backend the shared finder computes on
        (``"python"``/``"gmpy2"``/``"mpint"``/``"auto"``; see
        docs/BACKENDS.md).  Resolved at construction; reported by
        :meth:`health`.  Ignored when ``finder`` is injected.
    journal / journal_path:
        Durable request journal (see :mod:`repro.serve.journal` and the
        *Crash safety* section above): an injected
        :class:`~repro.serve.journal.RequestJournal`, or a path to
        build one at.  ``None`` for both disables journaling.
    fsync_interval:
        Durability batching shared by the journal and the access log:
        fsync every N written lines, so a SIGKILL loses at most N
        records per file (default 32; ignored for an injected
        ``journal``/``tracker``).
    """

    def __init__(
        self,
        mu: int = 53,
        processes: int = 2,
        strategy: str = "hybrid",
        *,
        max_pending: int = 64,
        max_deadline_seconds: float | None = None,
        cache: ResultCache | None = None,
        cache_bytes: int | None = None,
        cache_dir: str | None = None,
        metrics: MetricsRegistry | None = None,
        finder: ParallelRootFinder | None = None,
        tracker: RequestTracker | None = None,
        access_log: str | None = None,
        capture_dir: str | None = None,
        slow_threshold_ms: float = 250.0,
        ring_size: int = 512,
        slo: SLOConfig | None = None,
        backend: str = "python",
        journal: RequestJournal | None = None,
        journal_path: str | None = None,
        fsync_interval: int = 32,
    ):
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.mu = mu
        self.strategy = strategy
        self.max_pending = max_pending
        self.max_deadline_seconds = max_deadline_seconds
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if cache is None:
            kwargs: dict[str, Any] = {"metrics": self.metrics}
            if cache_bytes is not None:
                kwargs["max_bytes"] = cache_bytes
            cache = ResultCache(disk_dir=cache_dir, **kwargs)
        self.cache = cache
        if finder is None:
            finder = ParallelRootFinder(
                mu=mu, processes=processes, strategy=strategy,
                counter=counter_for(backend), metrics=self.metrics,
                backend=backend,
            )
        self.finder = finder
        self.backend = getattr(finder, "backend", "python")
        self.slo_config = slo if slo is not None else DEFAULT_SLO
        if tracker is None:
            tracker = RequestTracker(
                self.metrics, ring_size=ring_size, access_log=access_log,
                fsync_interval=fsync_interval,
                capture_dir=capture_dir,
                slow_threshold_ns=int(slow_threshold_ms * 1e6),
            )
        self.tracker = tracker
        if journal is None and journal_path:
            journal = RequestJournal(journal_path,
                                     fsync_interval=fsync_interval,
                                     metrics=self.metrics)
        self.journal = journal
        #: last disk-tier fsck tally (populated by :meth:`start`).
        self.fsck_summary: dict[str, int] = {"scanned": 0, "ok": 0,
                                             "quarantined": 0}
        self._queue: asyncio.PriorityQueue | None = None
        self._dispatcher: asyncio.Task | None = None
        self._solve_lane: ThreadPoolExecutor | None = None
        self._outstanding: set[asyncio.Future] = set()
        self._pending = 0
        self._seq = 0
        self._accepting = False
        self._closed = False

    # -- telemetry -------------------------------------------------------
    def queue_depth(self) -> int:
        """Admitted-but-unanswered requests plus the executor backlog —
        the number the admission threshold watches."""
        backlog = self.metrics.gauge("executor.queue_depth")
        return self._pending + int(backlog.value)

    def metrics_snapshot(self, rid: Any = None) -> dict[str, Any]:
        """A :func:`repro.serve.protocol.metrics_response` for ``rid``."""
        return metrics_response(self.metrics, rid)

    def health(self) -> tuple[int, dict[str, Any]]:
        """Readiness: ``(http_code, body)`` — 503 while draining, with
        the executor's circuit breaker open, or with the pool dead.

        The body reports the breaker state, pool liveness, queue
        headroom under the admission threshold, and the journal/cache
        recovery tallies.  Pool liveness distinguishes four states so
        chaos assertions on ``/readyz`` are deterministic:

        * ``unspawned`` — no pool yet (it spawns on first solve);
          ready.
        * ``live`` — at least one worker pid answers ``kill -0``;
          ready.
        * ``dead`` — the pool exists but *no* worker is alive (the
          whole pool was killed and has not respawned); **unready**,
          and ``server.pool_dead`` counts the observation.
        * ``respawning`` — the probe raced a worker respawn (the pid
          list mutated mid-enumeration); still ready —  a transient
          probe race must not flap readiness — counted by
          ``server.probe_races``.
        """
        breaker = getattr(self.finder, "breaker", None)
        breaker_state = getattr(breaker, "state", "absent")
        pids: list[int] = []
        pool_state = "unspawned"
        worker_pids = getattr(self.finder, "worker_pids", None)
        if callable(worker_pids):
            try:
                pids = list(worker_pids())
                if pids:
                    pool_state = "live"
            except Exception:
                # The pool's worker list mutated under the probe (a
                # respawn in progress) — transient, not "pool dead".
                pool_state = "respawning"
                self.metrics.counter("server.probe_races").inc()
        alive = []
        for pid in pids:
            try:
                os.kill(pid, 0)
                alive.append(pid)
            except OSError:
                continue
        if pool_state == "live" and not alive:
            pool_state = "dead"
            self.metrics.counter("server.pool_dead").inc()
        depth = self.queue_depth()
        ready = (self._accepting and breaker_state != BREAKER_OPEN
                 and pool_state != "dead")
        body = {
            "status": "ready" if ready else "unready",
            "accepting": self._accepting,
            "breaker": breaker_state,
            "backend": self.backend,
            "workers": {"pids": pids, "alive": len(alive),
                        "pool": pool_state},
            "queue_depth": depth,
            "limit": self.max_pending,
            "headroom": max(0, self.max_pending - depth),
            "cache": {
                "disk": bool(self.cache.disk_dir),
                "fsck": dict(self.fsck_summary),
                "disk_corrupt":
                    self.metrics.counter("cache.disk_corrupt").value,
            },
            "journal": self._journal_health(),
        }
        return (200 if ready else 503), body

    def _journal_health(self) -> dict[str, Any]:
        if self.journal is None:
            return {"enabled": False}
        return {
            "enabled": True,
            "broken": self.journal.broken,
            "recovered": len(self.journal.recovered),
            "accepts": self.metrics.counter("journal.accepts").value,
            "completes": self.metrics.counter("journal.completes").value,
            "replayed": self.metrics.counter("journal.replayed").value,
            "replay_cached":
                self.metrics.counter("journal.replay_cached").value,
            "write_errors":
                self.metrics.counter("journal.write_errors").value,
        }

    def slo_report(self) -> dict[str, Any]:
        """The configured objectives evaluated over the timeline ring's
        rolling window, anchored at the present (``GET /slo`` and the
        ``slo`` stdio op serve this verbatim)."""
        report = evaluate_slo(
            timeline_samples(self.tracker.ring),
            self.slo_config, now=time.time(),
        )
        report["ring_size"] = len(self.tracker.ring)
        return report

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> "RootServer":
        """Bind to the running loop and start the dispatcher (idempotent)."""
        if self._closed:
            raise RuntimeError("server is closed")
        if self._dispatcher is None:
            self._queue = asyncio.PriorityQueue()
            self._solve_lane = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-solve"
            )
            # Recovery before admission: quarantine disk-tier damage and
            # replay the journal's incomplete accepts, so the first
            # request a restarted daemon admits already sees a clean
            # cache holding every pre-crash result.
            self.fsck_summary = self.cache.fsck()
            await self._replay_journal()
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop()
            )
            self._accepting = True
        return self

    async def _replay_journal(self) -> None:
        """Re-solve (or cache-find) every accepted-but-unanswered
        request recovered from the journal, and journal its completion.

        Replay is idempotent: results land in the content-addressed
        cache under the same :func:`poly_key` the client's retry will
        look up, so replaying twice — or racing the retry — cannot
        produce a second, different answer.  Replays deliberately skip
        the ``server.ok`` / ``server.errors`` counters (they are not
        client traffic), keeping the chaos campaign's accepted-vs-
        answered reconciliation exact."""
        if self.journal is None or not self.journal.recovered:
            return
        loop = asyncio.get_running_loop()
        for entry in self.journal.recovered:
            try:
                req = parse_request(
                    {"coeffs": entry.coeffs, "bits": entry.mu,
                     "strategy": entry.strategy,
                     "priority": entry.priority},
                    default_mu=self.mu, default_strategy=self.strategy,
                    max_deadline_seconds=self.max_deadline_seconds,
                )
            except ProtocolError:
                self.metrics.counter("journal.replay_errors").inc()
                self.journal.complete(entry.request_id, entry.key,
                                      "replay_error")
                continue
            if self.cache.get(entry.key) is not None:
                self.metrics.counter("journal.replay_cached").inc()
                self.journal.complete(entry.request_id, entry.key,
                                      "replayed")
                continue
            try:
                scaled = await loop.run_in_executor(
                    self._solve_lane, self._replay_solve_blocking, req
                )
                # Raises for a root too long to print, like the reply.
                self.cache.put(entry.key, scaled)
            except Exception:
                self.metrics.counter("journal.replay_errors").inc()
                self.journal.complete(entry.request_id, entry.key,
                                      "replay_error")
                continue
            self.metrics.counter("journal.replayed").inc()
            self.journal.complete(entry.request_id, entry.key, "replayed")

    def _replay_solve_blocking(self, req: Request) -> list[int]:
        """A bare re-solve for journal replay: no budget, no timeline,
        no ``server.*`` counters — just the exact scaled roots."""
        finder = self.finder
        finder.mu = req.mu
        finder.strategy = req.strategy
        finder.budget = None
        return [int(s) for s in
                finder.find_roots_scaled(IntPoly(req.coeffs))]

    async def drain(self) -> None:
        """Wait until every admitted request has been answered."""
        while self._outstanding:
            await asyncio.wait(set(self._outstanding))

    async def aclose(self) -> None:
        """Stop accepting, drain in-flight requests, release the pool.

        The shared finder's workers are joined (no orphaned pool
        processes); the server object cannot be restarted afterwards.
        """
        if self._closed:
            return
        self._accepting = False
        await self.drain()
        self._closed = True
        self.tracker.close()
        if self.journal is not None:
            self.journal.close()
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        if self._solve_lane is not None:
            self._solve_lane.shutdown(wait=True)
            self._solve_lane = None
        self.finder.close()

    # -- the request path ------------------------------------------------
    def _finish(self, tl: RequestTimeline, resp: dict[str, Any],
                defer_io: bool) -> dict[str, Any]:
        """Stamp the request id onto the response, close the timeline,
        and hand it to the tracker — the single exit every submit path
        funnels through (so *every* response, error shapes included,
        echoes its ``request_id``)."""
        resp.setdefault("request_id", tl.request_id)
        tl.close(str(resp.get("status", "error")),
                 int(resp.get("code", 200)),
                 cached=bool(resp.get("cached", False)),
                 end_ns=time.perf_counter_ns())
        self.tracker.finalize(tl, defer_io=defer_io)
        return resp

    def reject(self, rid: Any, message: str,
               code: int = 400) -> dict[str, Any]:
        """A structured error for a payload that never became a request
        object (unparseable JSON) — still counted, still given a
        ``request_id`` and a (degenerate) timeline, so broken lines are
        visible in the access log and the SLO window like every other
        failure."""
        t = time.perf_counter_ns()
        tl = RequestTimeline(
            request_id=self.tracker.new_request_id(), client_id=rid,
            start_ns=t, time_unix=time.time(),
        )
        self.metrics.counter("server.requests").inc()
        self.metrics.counter("server.bad_requests").inc()
        return self._finish(tl, error_response(rid, message, code=code),
                            False)

    async def submit(self, obj: Any, *,
                     defer_io: bool = False) -> dict[str, Any]:
        """One request object in, one response object out.

        Never raises for bad input — every failure mode has a response
        shape (see :mod:`repro.serve.protocol`), and every response
        carries the server-assigned ``request_id``.

        ``defer_io``: the calling front-end will measure its own
        serialize/write stages and report them via
        ``self.tracker.finish_io(resp["request_id"], ...)`` — the
        timeline's access-log line and tail capture wait for that (the
        ring and histograms do not).
        """
        t_start = time.perf_counter_ns()
        tl = RequestTimeline(
            request_id=self.tracker.new_request_id(),
            client_id=obj.get("id") if isinstance(obj, Mapping) else None,
            start_ns=t_start, time_unix=time.time(),
        )
        self.metrics.counter("server.requests").inc()
        rid = tl.client_id
        if not self._accepting:
            self.metrics.counter("server.errors").inc()
            return self._finish(
                tl, error_response(rid, "server is draining", code=503),
                defer_io)
        t_val = time.perf_counter_ns()
        try:
            req = parse_request(
                obj, default_mu=self.mu, default_strategy=self.strategy,
                max_deadline_seconds=self.max_deadline_seconds,
            )
        except ProtocolError as e:
            tl.add_stage("validate", t_val,
                         time.perf_counter_ns() - t_val)
            self.metrics.counter("server.bad_requests").inc()
            return self._finish(tl, error_response(rid, str(e)), defer_io)
        tl.add_stage("validate", t_val, time.perf_counter_ns() - t_val)
        tl.priority = req.priority
        tl.degree = len(req.coeffs) - 1
        depth = self.queue_depth()
        if depth >= self.max_pending:
            self.metrics.counter("server.rejected").inc()
            return self._finish(
                tl, overloaded_response(req.id, queue_depth=depth,
                                        limit=self.max_pending),
                defer_io)

        assert self._queue is not None
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        self._outstanding.add(fut)
        self._pending += 1
        self.metrics.gauge("server.pending").set(self._pending)
        self._seq += 1
        # The content address, computed at admission so the WAL records
        # it before the request can be lost (the dispatcher reuses it
        # for the cache).
        key = poly_key(req.coeffs, req.mu, req.strategy)
        if self.journal is not None:
            self.journal.accept(tl.request_id, key, req.coeffs, req.mu,
                                req.strategy, priority=req.priority)
        enq_ns = time.perf_counter_ns()
        # Admission is the submit-entry→enqueue window minus the
        # validate sub-interval already recorded.
        tl.add_stage("admission", t_start,
                     (enq_ns - t_start) - tl.stage_ns("validate"))
        # PriorityQueue pops the smallest tuple: higher priority first,
        # FIFO (by admission sequence) within a priority level.
        self._queue.put_nowait((-req.priority, self._seq, req, key, fut,
                                tl, enq_ns))
        try:
            resp = await fut
        finally:
            self._pending -= 1
            self.metrics.gauge("server.pending").set(self._pending)
            self._outstanding.discard(fut)
        if self.journal is not None:
            self.journal.complete(tl.request_id, key,
                                  str(resp.get("status", "error")))
        return self._finish(tl, resp, defer_io)

    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        while True:
            _, _, req, key, fut, tl, enq_ns = await self._queue.get()
            if fut.done():  # client gone (transport dropped the future)
                continue
            t_pop = time.perf_counter_ns()
            tl.add_stage("queue_wait", enq_ns, t_pop - enq_ns)
            t0 = time.monotonic()
            cached = self.cache.get(key)
            tl.add_stage("cache_lookup", t_pop,
                         time.perf_counter_ns() - t_pop)
            if cached is not None:
                resp = ok_response(req, cached, cached=True,
                                   elapsed_seconds=time.monotonic() - t0)
                self.metrics.counter("server.ok").inc()
            else:
                resp = await loop.run_in_executor(
                    self._solve_lane, self._solve_blocking, req, tl
                )
                if resp["status"] == "ok":
                    self.cache.put(key, [int(s) for s in resp["scaled"]])
            if not fut.done():
                fut.set_result(resp)

    def _solve_blocking(self, req: Request,
                        tl: RequestTimeline) -> dict[str, Any]:
        """Runs on the solve lane: the only code driving the finder."""
        finder = self.finder
        t_setup = time.perf_counter_ns()
        finder.mu = req.mu
        finder.strategy = req.strategy
        budget = None
        if req.deadline_seconds is not None or req.max_bit_ops is not None:
            budget = Budget(deadline_seconds=req.deadline_seconds,
                            max_bit_ops=req.max_bit_ops)
            if (req.max_bit_ops is not None
                    and isinstance(finder.counter, NullCounter)):
                # The bit ceiling reads a real counter (backend-aware).
                finder.counter = counter_for(self.backend)
        finder.budget = budget
        trace = tl.trace
        # The solve span charges the finder's counter; with tail capture
        # on, the finder's own spans nest under it.
        trace.counter = getattr(finder, "counter", None)
        finder_tracer = getattr(finder, "tracer", NULL_TRACER)
        if self.tracker.capture_dir is not None:
            finder.tracer = trace
        tl.add_stage("budget_setup", t_setup,
                     time.perf_counter_ns() - t_setup)
        t0 = time.monotonic()
        # The reply is built inside the guard too: an exception escaping
        # this lane would end the dispatch loop, and with it every
        # later solve.
        with trace.span("solve", phase="request"):
            try:
                try:
                    scaled = finder.find_roots_scaled(IntPoly(req.coeffs))
                except BudgetExceeded as e:
                    resp = partial_response(req, e)
                    outcome = "server.partial"
                else:
                    resp = ok_response(req, scaled, cached=False,
                                       elapsed_seconds=time.monotonic() - t0)
                    outcome = "server.ok"
            except ProtocolError as e:  # a root too long to print
                resp = error_response(req.id, str(e))
                outcome = "server.bad_requests"
            except Exception as e:
                resp = error_response(
                    req.id, f"{type(e).__name__}: {e}", code=500
                )
                outcome = "server.errors"
            finally:
                finder.budget = None
                finder.tracer = finder_tracer
        self.metrics.counter(outcome).inc()
        return resp
