"""RootServer: admission, priorities, cache determinism, budgets, drain.

Most tests inject a fake finder so scheduling behavior is deterministic
and pool-free; one slow test drives the real multiprocessing pool
end-to-end and checks for orphaned workers after ``aclose``.
"""

import asyncio
import json
import threading

import pytest

from repro.costmodel.counter import NULL_COUNTER, CostCounter
from repro.resilience.budget import Budget, BudgetExceeded, PartialResult
from repro.serve.server import RootServer


class FakeFinder:
    """Duck-typed stand-in for ParallelRootFinder.

    Records every solve (coeffs, mu, strategy, budget); an optional
    ``gate`` event blocks solves on the lane thread until released, so
    tests can pin the dispatcher mid-solve and observe queueing.
    """

    def __init__(self, mu=16, strategy="hybrid"):
        self.mu = mu
        self.strategy = strategy
        self.budget = None
        self.counter = NULL_COUNTER
        self.calls = []
        self.closed = False
        self.gate = None
        self.fail = None

    def find_roots_scaled(self, p):
        self.calls.append((tuple(p.coeffs), self.mu, self.strategy,
                           self.budget))
        if self.gate is not None and not self.gate.wait(timeout=30):
            raise RuntimeError("test gate never opened")
        if self.fail is not None:
            raise self.fail
        # Mimic the real finder's dispatch span when the server has
        # equipped us with a tracer.
        tracer = getattr(self, "tracer", None)
        if tracer is not None and getattr(tracer, "enabled", False):
            with tracer.span("executor.dispatch", degree=len(p.coeffs) - 1):
                pass
        return [sum(abs(c) for c in p.coeffs) << 4]

    def close(self, join_timeout=5.0):
        self.closed = True


def run(coro):
    return asyncio.run(coro)


async def make_server(**kw):
    kw.setdefault("finder", FakeFinder())
    kw.setdefault("cache_dir", "")
    server = RootServer(mu=16, **kw)
    await server.start()
    return server


async def wait_for(predicate, timeout=10.0):
    for _ in range(int(timeout / 0.005)):
        if predicate():
            return
        await asyncio.sleep(0.005)
    raise AssertionError("condition never became true")


class TestRequestPath:
    def test_ok_and_cached(self):
        async def go():
            server = await make_server()
            r1 = await server.submit({"id": 1, "coeffs": [-6, 1, 1]})
            r2 = await server.submit({"id": 2, "coeffs": [-6, 1, 1]})
            r3 = await server.submit({"id": 3, "coeffs": [-6, 1, 1],
                                      "bits": 20})
            await server.aclose()
            return server, r1, r2, r3

        server, r1, r2, r3 = run(go())
        assert r1["status"] == "ok" and r1["cached"] is False
        assert r2["status"] == "ok" and r2["cached"] is True
        assert r2["scaled"] == r1["scaled"]
        # Different mu is a different cache key.
        assert r3["cached"] is False
        assert len(server.finder.calls) == 2
        assert server.metrics.counter("cache.hits").value == 1
        assert server.metrics.counter("server.ok").value == 3

    def test_bad_request_never_reaches_finder(self):
        async def go():
            server = await make_server()
            resp = await server.submit({"id": "bad", "coeffs": [0]})
            await server.aclose()
            return server, resp

        server, resp = run(go())
        assert (resp["status"], resp["code"]) == ("error", 400)
        assert resp["id"] == "bad"
        assert server.finder.calls == []
        assert server.metrics.counter("server.bad_requests").value == 1

    def test_solver_exception_is_a_500(self):
        async def go():
            server = await make_server()
            server.finder.fail = ValueError("boom")
            resp = await server.submit({"id": 9, "coeffs": [-2, 0, 1]})
            # Errors are not cached: a retry after the fault clears
            # computes for real.
            server.finder.fail = None
            retry = await server.submit({"id": 10, "coeffs": [-2, 0, 1]})
            await server.aclose()
            return server, resp, retry

        server, resp, retry = run(go())
        assert (resp["status"], resp["code"]) == ("error", 500)
        assert "ValueError: boom" in resp["error"]
        assert retry["status"] == "ok" and retry["cached"] is False
        assert server.metrics.counter("server.errors").value == 1

    def test_concurrent_duplicates_hit_deterministically(self):
        """cache.hits == total - unique for concurrently submitted
        traffic — the property the loadtest gate pins."""
        polys = [[-6, 1, 1], [-2, 0, 1], [-6, 1, 1], [-12, 1, 1],
                 [-2, 0, 1], [-6, 1, 1], [-2, 0, 1], [-12, 1, 1]]

        async def go():
            server = await make_server()
            resps = await asyncio.gather(*(
                server.submit({"id": i, "coeffs": c})
                for i, c in enumerate(polys)))
            await server.aclose()
            return server, resps

        server, resps = run(go())
        unique = len({tuple(c) for c in polys})
        assert all(r["status"] == "ok" for r in resps)
        assert sum(r["cached"] for r in resps) == len(polys) - unique
        assert len(server.finder.calls) == unique
        # Duplicates answer byte-identically.
        by_poly = {}
        for c, r in zip(polys, resps):
            by_poly.setdefault(tuple(c), set()).add(tuple(r["scaled"]))
        assert all(len(v) == 1 for v in by_poly.values())


class TestBudgets:
    def test_per_request_budget_plumbed_and_cleared(self):
        async def go():
            server = await make_server()
            await server.submit({"id": 1, "coeffs": [-2, 0, 1],
                                 "deadline_seconds": 5, "bit_budget": 10**9})
            await server.submit({"id": 2, "coeffs": [-3, 0, 1]})
            await server.aclose()
            return server

        server = run(go())
        b1 = server.finder.calls[0][3]
        assert isinstance(b1, Budget)
        assert b1.deadline_seconds == 5 and b1.max_bit_ops == 10**9
        # A budget-free request runs unbudgeted; nothing leaks across.
        assert server.finder.calls[1][3] is None
        assert server.finder.budget is None
        # The bit ceiling forced a real counter onto the fake finder.
        assert isinstance(server.finder.counter, CostCounter)

    def test_max_deadline_assigned_to_every_request(self):
        async def go():
            server = await make_server(max_deadline_seconds=2.0)
            await server.submit({"id": 1, "coeffs": [-2, 0, 1]})
            await server.aclose()
            return server

        server = run(go())
        assert server.finder.calls[0][3].deadline_seconds == 2.0

    def test_budget_trip_is_a_partial_and_not_cached(self):
        partial = PartialResult(mu=16, scaled=[3], degree=2,
                                phase="solve", reason="deadline",
                                elapsed_seconds=0.0, bit_cost=7)

        async def go():
            server = await make_server()
            server.finder.fail = BudgetExceeded("deadline", partial)
            resp = await server.submit({"id": 1, "coeffs": [-2, 0, 1],
                                        "deadline_seconds": 0})
            server.finder.fail = None
            retry = await server.submit({"id": 2, "coeffs": [-2, 0, 1]})
            await server.aclose()
            return server, resp, retry

        server, resp, retry = run(go())
        assert (resp["status"], resp["code"]) == ("partial", 206)
        assert resp["exit_code"] == 3
        assert resp["reason"] == "deadline" and resp["phase"] == "solve"
        assert resp["scaled"] == ["3"]
        # Partials are a property of one request's budget, never cached.
        assert retry["status"] == "ok" and retry["cached"] is False
        assert server.metrics.counter("server.partial").value == 1

    def test_mu_and_strategy_plumbed(self):
        async def go():
            server = await make_server()
            await server.submit({"id": 1, "coeffs": [-2, 0, 1],
                                 "bits": 24, "strategy": "newton"})
            await server.aclose()
            return server

        server = run(go())
        assert server.finder.calls[0][1:3] == (24, "newton")


class TestAdmission:
    def test_backpressure_sheds_with_429(self):
        async def go():
            server = await make_server(max_pending=2)
            server.finder.gate = threading.Event()
            t1 = asyncio.ensure_future(
                server.submit({"id": 1, "coeffs": [-2, 0, 1]}))
            await wait_for(lambda: len(server.finder.calls) == 1)
            t2 = asyncio.ensure_future(
                server.submit({"id": 2, "coeffs": [-3, 0, 1]}))
            await wait_for(lambda: server.queue_depth() >= 2)
            shed = await server.submit({"id": 3, "coeffs": [-5, 0, 1]})
            server.finder.gate.set()
            r1, r2 = await asyncio.gather(t1, t2)
            await server.aclose()
            return server, shed, r1, r2

        server, shed, r1, r2 = run(go())
        assert (shed["status"], shed["code"]) == ("overloaded", 429)
        assert shed["limit"] == 2 and shed["queue_depth"] >= 2
        assert shed["retry_after_seconds"] > 0
        # The admitted requests still completed.
        assert r1["status"] == "ok" and r2["status"] == "ok"
        assert server.metrics.counter("server.rejected").value == 1
        assert server.finder.calls[-1][0] != (-5, 0, 1)

    def test_priority_orders_the_queue(self):
        async def go():
            server = await make_server(max_pending=100)
            server.finder.gate = threading.Event()
            ta = asyncio.ensure_future(
                server.submit({"id": "a", "coeffs": [-2, 0, 1]}))
            await wait_for(lambda: len(server.finder.calls) == 1)
            # Queued while the lane is pinned: low before high.
            tb = asyncio.ensure_future(
                server.submit({"id": "b", "coeffs": [-3, 0, 1],
                               "priority": 0}))
            tc = asyncio.ensure_future(
                server.submit({"id": "c", "coeffs": [-5, 0, 1],
                               "priority": 10}))
            td = asyncio.ensure_future(
                server.submit({"id": "d", "coeffs": [-7, 0, 1],
                               "priority": 10}))
            await asyncio.sleep(0)      # both put_nowait before release
            server.finder.gate.set()
            await asyncio.gather(ta, tb, tc, td)
            await server.aclose()
            return server

        server = run(go())
        order = [c[0] for c in server.finder.calls]
        # High priority jumps the line; FIFO within a priority level.
        assert order == [(-2, 0, 1), (-5, 0, 1), (-7, 0, 1), (-3, 0, 1)]

    def test_executor_backlog_feeds_queue_depth(self):
        async def go():
            server = await make_server()
            gauge = server.metrics.gauge("executor.queue_depth")
            gauge.set(7)
            depth = server.queue_depth()
            gauge.set(0)
            await server.aclose()
            return depth, server.queue_depth()

        busy, idle = run(go())
        assert busy == 7 and idle == 0
        assert isinstance(busy, int)


class TestLifecycle:
    def test_draining_rejects_with_503(self):
        async def go():
            server = await make_server()
            await server.aclose()
            resp = await server.submit({"id": 1, "coeffs": [-2, 0, 1]})
            await server.aclose()       # idempotent
            return server, resp

        server, resp = run(go())
        assert (resp["status"], resp["code"]) == ("error", 503)
        assert "draining" in resp["error"]
        assert server.finder.closed is True

    def test_closed_server_cannot_restart(self):
        async def go():
            server = await make_server()
            await server.aclose()
            with pytest.raises(RuntimeError, match="closed"):
                await server.start()

        run(go())

    def test_aclose_waits_for_inflight(self):
        async def go():
            server = await make_server()
            server.finder.gate = threading.Event()
            t = asyncio.ensure_future(
                server.submit({"id": 1, "coeffs": [-2, 0, 1]}))
            await wait_for(lambda: len(server.finder.calls) == 1)
            closer = asyncio.ensure_future(server.aclose())
            await asyncio.sleep(0.02)
            assert not t.done()         # close is draining, not dropping
            server.finder.gate.set()
            await closer
            return await t

        resp = run(go())
        assert resp["status"] == "ok"

    def test_aclose_survives_a_failing_close_time_fsync(self, tmp_path,
                                                       monkeypatch):
        # A full disk at shutdown is counted per log; the journal and
        # the pool are still closed.
        def enospc(fd):
            raise OSError(28, "No space left on device")

        async def go():
            server = await make_server(
                access_log=str(tmp_path / "access.jsonl"),
                journal_path=str(tmp_path / "journal.jsonl"))
            await server.submit({"id": 1, "coeffs": [-2, 0, 1]})
            monkeypatch.setattr("repro.obs.jsonl.os.fsync", enospc)
            await server.aclose()
            return server

        server = run(go())
        assert server.finder.closed is True
        assert server.metrics.counter(
            "reqtrace.access_log_errors").value == 1
        assert server.metrics.counter("journal.write_errors").value == 1
        assert server.journal.broken


class TestRequestTracing:
    def test_every_response_carries_a_request_id(self):
        async def go():
            server = await make_server()
            ok = await server.submit({"id": 1, "coeffs": [-6, 1, 1]})
            bad = await server.submit({"id": 2, "coeffs": [0]})
            await server.aclose()
            drained = await server.submit({"id": 3, "coeffs": [-2, 0, 1]})
            return ok, bad, drained

        ok, bad, drained = run(go())
        rids = [r["request_id"] for r in (ok, bad, drained)]
        assert all(isinstance(r, str) and r for r in rids)
        assert len(set(rids)) == 3

    def test_timeline_stages_reconcile_with_total(self):
        """Stage sums stay within the end-to-end window — the untimed
        seams (thread handoff, loop scheduling) only *lose* time."""
        async def go():
            server = await make_server()
            resp = await server.submit({"id": 1, "coeffs": [-6, 1, 1]})
            await server.aclose()
            return server, resp

        server, resp = run(go())
        (tl,) = list(server.tracker.ring)
        assert tl.request_id == resp["request_id"]
        assert tl.status == "ok" and tl.code == 200
        names = [s.name for s in tl.stages]
        assert names == ["validate", "admission", "queue_wait",
                         "cache_lookup", "budget_setup", "solve"]
        assert 0 < tl.stage_sum_ns <= tl.total_ns
        assert tl.degree == 2

    def test_cached_request_skips_solve_stage(self):
        async def go():
            server = await make_server()
            await server.submit({"id": 1, "coeffs": [-6, 1, 1]})
            await server.submit({"id": 2, "coeffs": [-6, 1, 1]})
            await server.aclose()
            return server

        server = run(go())
        tl = list(server.tracker.ring)[-1]
        assert tl.cached is True
        assert tl.stage_ns("solve") == 0
        assert tl.stage_ns("cache_lookup") > 0

    def test_cached_root_beyond_float_range_is_answered(self):
        # Journal replay caches answers without building a reply, so
        # the cache can hold a root whose float view overflows; a hit
        # on it must be answered and must not end the dispatch loop.
        from repro.resilience.checkpoint import poly_key
        from repro.serve.protocol import parse_request

        coeffs = [-(10**400), 1]
        req = parse_request({"coeffs": coeffs}, default_mu=16,
                            default_strategy="hybrid")

        async def go():
            server = await make_server()
            server.cache.put(poly_key(req.coeffs, req.mu, req.strategy),
                             [10**400 << 16])
            hit = await asyncio.wait_for(
                server.submit({"id": "big", "coeffs": coeffs}), 30)
            nxt = await asyncio.wait_for(
                server.submit({"id": "next", "coeffs": [-6, 1, 1]}), 30)
            await server.aclose()
            return hit, nxt

        hit, nxt = run(go())
        assert (hit["code"], hit["cached"]) == (200, True)
        assert hit["scaled"] == [str(10**400 << 16)]
        assert hit["floats"] == [None]
        json.dumps(hit, allow_nan=False)      # strict JSON
        assert nxt["status"] == "ok"

    def test_labeled_latency_histograms_populated(self):
        async def go():
            server = await make_server()
            await server.submit({"id": 1, "coeffs": [-6, 1, 1],
                                 "priority": 2})
            await server.aclose()
            return server

        server = run(go())
        name = ('server.latency_us'
                '{degree_bucket="1-2",priority="2"}')
        assert server.metrics.histogram(name).count == 1
        assert server.metrics.histogram("server.queue_wait_us").count == 1

    def test_one_latency_series_admission_to_reply(self):
        """The unlabeled ``server.latency_us`` is the labeled family's
        sum: both observe every request's admission→reply window, queue
        wait and rejected requests included."""
        async def go():
            server = await make_server()
            reqs = [{"id": i, "coeffs": [-(i + 2), 0, 1], "priority": i % 2}
                    for i in range(8)]
            reqs += [reqs[0], {"id": "bad", "coeffs": [0]}]
            await asyncio.gather(*(server.submit(r) for r in reqs))
            await server.aclose()
            return server.metrics

        m = run(go())
        plain = m.histogram("server.latency_us")
        family = [m.histogram(n) for n in m.names()
                  if n.startswith("server.latency_us{")]
        assert len(family) == 2           # one per priority
        assert plain.count == sum(h.count for h in family) == 10
        assert plain.total == sum(h.total for h in family)

    def test_reject_records_a_timeline(self):
        async def go():
            server = await make_server()
            resp = server.reject("cli-7", "not valid JSON: boom")
            await server.aclose()
            return server, resp

        server, resp = run(go())
        assert (resp["status"], resp["code"]) == ("error", 400)
        assert resp["id"] == "cli-7" and resp["request_id"]
        (tl,) = list(server.tracker.ring)
        assert tl.client_id == "cli-7" and tl.status == "error"
        assert server.metrics.counter("server.bad_requests").value == 1

    def test_trace_solves_attaches_executor_spans(self, tmp_path):
        async def go():
            server = await make_server(
                capture_dir=str(tmp_path / "caps"),
                slow_threshold_ms=0.0)     # everything is "slow"
            await server.submit({"id": 1, "coeffs": [-6, 1, 1]})
            await server.aclose()
            return server

        server = run(go())
        (tl,) = list(server.tracker.ring)
        # The injected FakeFinder has no tracer of its own; the server
        # hands it the request's trace, so its dispatch span nests
        # under that request's solve stage.
        solve = next(s for s in tl.stages if s.name == "solve")
        disp = next(s for s in tl.trace.spans
                    if s.name == "executor.dispatch")
        assert disp.parent == solve.sid
        assert "executor.dispatch" not in [s.name for s in tl.stages]
        # The finder's own tracer is back once the solve is over.
        assert not server.finder.tracer.enabled
        import os
        assert os.listdir(tmp_path / "caps")


class TestHealthAndSlo:
    def test_ready_when_accepting(self):
        async def go():
            server = await make_server()
            code, body = server.health()
            await server.aclose()
            return code, body

        code, body = run(go())
        assert code == 200 and body["status"] == "ready"
        assert body["accepting"] is True
        assert body["headroom"] == body["limit"] - body["queue_depth"]

    def test_unready_after_close(self):
        async def go():
            server = await make_server()
            await server.aclose()
            return server.health()

        code, body = run(go())
        assert code == 503 and body["status"] == "unready"
        assert body["accepting"] is False

    def test_unready_when_breaker_open(self):
        class Breaker:
            state = "open"

        async def go():
            server = await make_server()
            server.finder.breaker = Breaker()
            result = server.health()
            await server.aclose()
            return result

        code, body = run(go())
        assert code == 503 and body["breaker"] == "open"

    def test_worker_liveness_reported(self):
        import os as _os

        async def go():
            server = await make_server()
            # One live pid (ours) and one that cannot exist.
            server.finder.worker_pids = lambda: [_os.getpid(), 2**22 + 17]
            result = server.health()
            await server.aclose()
            return result

        code, body = run(go())
        assert code == 200
        assert body["workers"]["pids"][0] == _os.getpid()
        assert body["workers"]["alive"] == 1

    def test_slo_report_over_live_traffic(self):
        async def go():
            server = await make_server()
            for i in range(4):
                await server.submit({"id": i, "coeffs": [-6 - i, 1, 1]})
            report = server.slo_report()
            await server.aclose()
            return report

        report = run(go())
        assert report["ok"] is True and report["samples"] == 4
        assert report["ring_size"] == 4
        names = {o["name"] for o in report["objectives"]}
        assert names == {"latency_p99", "availability"}


@pytest.mark.slow
class TestRealPool:
    def test_end_to_end_with_real_finder(self):
        """Concurrent clients against the real pool: exact answers,
        deterministic cache hits, a budget partial, and a worker-clean
        shutdown."""
        from repro.core.rootfinder import RealRootFinder
        from repro.poly.dense import IntPoly

        polys = [[-6, 1, 1], [-2, 0, 1], [6, -5, 1],
                 [-6, 1, 1], [-2, 0, 1], [-6, 1, 1]]
        expected = {
            tuple(c): [str(s) for s in RealRootFinder(mu_bits=16)
                       .find_roots(IntPoly(c)).scaled]
            for c in map(tuple, polys)
        }

        async def go():
            server = RootServer(mu=16, processes=2, cache_dir="")
            await server.start()
            resps = await asyncio.gather(*(
                server.submit({"id": i, "coeffs": c})
                for i, c in enumerate(polys)))
            # Fair budgets: a zero-deadline request trips immediately
            # (the Budget zero-deadline fix) without poisoning others.
            part = await server.submit({"id": "z", "coeffs": [-10, 0, 1],
                                        "deadline_seconds": 0})
            after = await server.submit({"id": "w", "coeffs": [-6, 1, 1]})
            pids = server.finder.worker_pids()
            await server.aclose()
            return server, resps, part, after, pids

        server, resps, part, after, pids = run(go())
        assert all(r["status"] == "ok" for r in resps)
        for c, r in zip(polys, resps):
            assert r["scaled"] == expected[tuple(c)], c
        unique = len({tuple(c) for c in polys})
        assert sum(r["cached"] for r in resps) == len(polys) - unique
        # +1: the post-partial "after" request below also hit.
        assert server.metrics.counter("cache.hits").value == \
            len(polys) - unique + 1
        assert part["status"] == "partial" and part["exit_code"] == 3
        assert after["status"] == "ok" and after["cached"] is True
        # The pool was alive during the run and fully joined after.
        assert pids
        assert server.finder.worker_pids() == []
