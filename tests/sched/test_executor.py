"""Tests for the real multiprocessing executor."""

import os
import signal
import time

import pytest

from repro.core.rootfinder import RealRootFinder
from repro.costmodel.counter import CostCounter
from repro.obs.trace import Tracer
from repro.poly.dense import IntPoly
from repro.poly.roots_bounds import cauchy_root_bound_bits, root_bound_bits
from repro.sched.executor import (
    ParallelRootFinder,
    gap_worker,
    intern_coeffs,
    sign_worker,
)


class TestWorker:
    """The pool task bodies, run in-process (as the parent runs a task
    whose pool attempts are exhausted)."""

    @staticmethod
    def _gap_args(trace):
        p = IntPoly.from_roots([-5, 3])
        mu, r = 8, 4
        sent = 1 << (r + mu)
        ref = intern_coeffs(p.coeffs)
        ys = [-sent, 3 << mu]
        signs = [sign_worker(((1, 2), t, y, ref, mu, r, "hybrid", False,
                              False, "python"))[3]
                 for t, y in enumerate(ys)]
        return ((1, 2), 0, ys[0], ys[1], signs[0], signs[1],
                p.sign_at_neg_inf(), ref, mu, r, "hybrid", trace, False,
                "python")

    def test_worker_solves_one_gap(self):
        kind, label, gap, val, spans = gap_worker(self._gap_args(False))
        assert (kind, label, gap) == ("gap", (1, 2), 0)
        assert val == (-5) << 8
        assert spans is None

    def test_worker_captures_spans_when_asked(self):
        *_, val, spans = gap_worker(self._gap_args(True))
        assert val == (-5) << 8
        assert spans and spans[0]["name"] == "gap"
        assert spans[0]["end_ns"] is not None
        # The worker's cost counter charged the solve to real phases.
        assert any(d["cost"] for d in spans)


class TestRootBoundUnification:
    """The executor must pose the same interval problems as the
    sequential path (regression for the cauchy-vs-combined bound
    divergence): the shared pipeline computes the root bound for
    both engines."""

    def test_executor_uses_shared_bound_helper(self):
        import repro.core.rootfinder as rf
        import repro.sched.executor as ex

        assert rf.root_bound_bits is root_bound_bits
        assert (ParallelRootFinder._solve_square_free
                is RealRootFinder._solve_square_free)
        assert not hasattr(ex, "cauchy_root_bound_bits")

    @pytest.mark.slow
    def test_bit_identical_where_bounds_differ(self):
        # Coefficients large relative to the roots: Fujiwara beats
        # Cauchy, so the old executor would have used wider sentinels.
        p = IntPoly.from_roots([2, 3, 4, 5, 6, 7])
        assert cauchy_root_bound_bits(p) != root_bound_bits(p)
        mu = 16
        ref = RealRootFinder(mu_bits=mu).find_roots(p)
        par = ParallelRootFinder(mu=mu, processes=2)
        assert par.find_roots_scaled(p) == ref.scaled


@pytest.mark.slow
class TestParallelFinder:
    def test_matches_sequential(self):
        p = IntPoly.from_roots([-12, -3, 0, 4, 9, 17])
        mu = 16
        ref = RealRootFinder(mu_bits=mu).find_roots(p)
        par = ParallelRootFinder(mu=mu, processes=2)
        assert par.find_roots_scaled(p) == ref.scaled

    def test_linear_shortcut(self):
        par = ParallelRootFinder(mu=8, processes=2)
        assert par.find_roots_scaled(IntPoly((-10, 4))) == [int(2.5 * 256)]

    def test_unknown_strategy_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            ParallelRootFinder(mu=8, strategy="bogus")

    def test_traced_run_adopts_worker_spans(self):
        p = IntPoly.from_roots([-7, -1, 2, 8])
        mu = 12
        tracer = Tracer(counter=CostCounter())
        with ParallelRootFinder(mu=mu, processes=2, tracer=tracer) as par:
            ref = RealRootFinder(mu_bits=mu).find_roots(p)
            assert par.find_roots_scaled(p) == ref.scaled
        gap_spans = [s for s in tracer.spans if s.name == "gap"]
        assert gap_spans, "worker spans were not adopted"
        assert all(s.track > 0 for s in gap_spans)
        # PREINTERVAL sign tasks are traced too (the shared-sign stage).
        assert [s for s in tracer.spans if s.name == "sign"]
        assert all(s.end_ns is not None for s in tracer.spans)
        # Worker-side costs made it back through the pool.
        assert any(s.bit_cost > 0 for s in gap_spans)

    def test_adopted_task_slices_keep_their_times(self):
        # One worker runs its tasks one after another, and every task
        # ran while the parent's dispatch span was open.
        tracer = Tracer(counter=CostCounter())
        with ParallelRootFinder(mu=64, processes=1, tracer=tracer) as par:
            par.find_roots_scaled(IntPoly.from_roots([1, 5, 9, 14, 20]))
        (disp,) = [s for s in tracer.spans if s.name == "executor.dispatch"]
        tasks = sorted((s for s in tracer.spans
                        if s.name in ("sign", "gap") and s.parent == disp.sid),
                       key=lambda s: s.start_ns)
        assert len(tasks) > 1
        assert len({s.track for s in tasks}) == 1
        for s in tasks:
            assert disp.start_ns <= s.start_ns <= s.end_ns <= disp.end_ns
        for prev, nxt in zip(tasks, tasks[1:]):
            assert prev.end_ns <= nxt.start_ns, "worker slices overlap"

    def test_pool_lifecycle_spans(self):
        tracer = Tracer(counter=CostCounter())
        with ParallelRootFinder(mu=10, processes=2, tracer=tracer) as par:
            par.find_roots_scaled(IntPoly.from_roots([-4, 1, 5]))
            par.find_roots_scaled(IntPoly.from_roots([-8, 3]))
        names = [s.name for s in tracer.spans]
        assert names.count("pool.spawn") == 1, "one pool for both calls"
        assert names.count("pool.close") == 1
        assert names.count("executor.dispatch") == 2

    def test_telemetry_metrics_populated(self):
        p = IntPoly.from_roots([-9, -2, 1, 6])
        tracer = Tracer(counter=CostCounter())
        with ParallelRootFinder(mu=12, processes=2, tracer=tracer) as par:
            par.find_roots_scaled(p)
            reg = par.metrics
        names = reg.names()
        assert "executor.queue_depth" in names
        assert "executor.in_flight" in names
        samples = reg.histogram("executor.queue_depth.samples")
        assert samples.count > 0
        # the dispatch loop drains completely, so both gauges end at 0
        assert reg.gauge("executor.queue_depth").value == 0
        assert reg.gauge("executor.in_flight").value == 0
        # in-flight never exceeds the pool size by construction
        assert samples.max is not None
        # traced runs also stream the samples as counter events
        sampled = {name for _t, name, _v in tracer.counters}
        assert {"executor.queue_depth", "executor.in_flight"} <= sampled

    def test_fallback_registers_in_metrics(self):
        # A structural failure: the pool is terminated under a live
        # finder, so dispatch raises.  The same plan is then solved
        # in-process — exact, counted once, and with the remainder
        # sequence and tree charged once, not recomputed.
        p = IntPoly.from_roots([-5, 2, 7])
        ref_counter = CostCounter()
        ref = RealRootFinder(mu_bits=10, counter=ref_counter).find_roots(p)
        with ParallelRootFinder(mu=10, processes=2) as finder:
            finder.find_roots_scaled(p)  # spawns the pool
            finder._pool.terminate()
            finder.counter = CostCounter()
            assert finder.find_roots_scaled(p) == ref.scaled
            assert finder.fallback_count == 1
            assert finder.metrics.counter("executor.fallbacks").value == 1
            assert finder.counter.snapshot() == ref_counter.snapshot()
            # The broken pool was discarded: the next call respawns.
            assert finder.find_roots_scaled(p) == ref.scaled
            assert finder.fallback_count == 1
            assert len(finder.worker_pids()) == 2

    def test_dead_worker_is_replaced(self):
        p = IntPoly.from_roots([-6, -1, 3, 8])
        ref = RealRootFinder(mu_bits=12).find_roots(p)
        # task_timeout bounds the post-kill call: if the victim died
        # holding the inqueue read-lock (a ~50/50 race — an idle worker
        # blocks in recv *inside* the lock), the respawned worker can
        # never read tasks; every attempt then times out, the breaker
        # trips, and the tasks complete in-parent (per-node degradation)
        # while the wedged pool is discarded for the next call.
        with ParallelRootFinder(mu=12, processes=2,
                                task_timeout=3.0) as par:
            assert par.find_roots_scaled(p) == ref.scaled
            victim = par.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            # The pool's maintenance thread replaces the dead worker.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                pids = par.worker_pids()
                if len(pids) == 2 and victim not in pids:
                    break
                time.sleep(0.05)
            assert victim not in par.worker_pids()
            # The exact answer comes back either way: pipelined on the
            # respawned pool, or in-parent if the lock was orphaned —
            # the whole-polynomial fallback is never needed.
            assert par.find_roots_scaled(p) == ref.scaled
            assert par.fallback_count == 0


class TestProfiledRun:
    def test_profiled_parallel_run_collects_stacks(self):
        p = IntPoly.from_roots([-7, -1, 2, 8])
        mu = 12
        tracer = Tracer(counter=CostCounter())
        with ParallelRootFinder(mu=mu, processes=2, tracer=tracer,
                                profile=True) as par:
            ref = RealRootFinder(mu_bits=mu).find_roots(p)
            assert par.find_roots_scaled(p) == ref.scaled
            folded = par.profile_collapsed()
        # the dispatcher's anchor sample alone guarantees stacks even
        # on a machine too fast to catch a worker mid-task
        assert folded
        assert all(isinstance(s, str) and isinstance(n, int) and n >= 1
                   for s, n in folded.items())
        # profile payloads never leak into the adopted span list
        assert all(hasattr(s, "sid") for s in tracer.spans)

    def test_profile_off_by_default_costs_nothing(self):
        with ParallelRootFinder(mu=10, processes=2) as par:
            par.find_roots_scaled(IntPoly.from_roots([-4, 1, 5]))
            assert par.profile_collapsed() == {}
            assert par.profile_samples == []
