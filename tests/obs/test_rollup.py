"""Tests for the worker-utilization / parallel-efficiency rollup."""

import pytest

from repro.costmodel.counter import NULL_COUNTER, CostCounter
from repro.obs.rollup import (
    parallel_rollup,
    phase_rollup,
    worker_busy_intervals,
)
from repro.obs.trace import Span


def _span(sid, parent, start, end, track, name="t"):
    return Span(sid=sid, name=name, phase="", depth=0, parent=parent,
                start_ns=start, end_ns=end, track=track)


class TestWorkerBusyIntervals:
    def test_main_lane_ignored(self):
        assert worker_busy_intervals([_span(1, None, 0, 100, 0)]) == {}

    def test_task_roots_only(self):
        spans = [
            _span(1, None, 0, 1000, 0),
            _span(2, 1, 100, 400, 1),
            _span(3, 2, 150, 300, 1),  # nested on same track: not a root
        ]
        assert worker_busy_intervals(spans) == {1: [(100, 400)]}

    def test_overlapping_tasks_coalesce(self):
        spans = [
            _span(1, None, 0, 1000, 0),
            _span(2, 1, 100, 400, 1),
            _span(3, 1, 350, 600, 1),
            _span(4, 1, 700, 800, 1),
        ]
        assert worker_busy_intervals(spans) == {
            1: [(100, 600), (700, 800)]
        }

    def test_open_spans_dropped(self):
        spans = [_span(1, None, 0, 1000, 0),
                 Span(sid=2, name="t", phase="", depth=0, parent=1,
                      start_ns=100, end_ns=None, track=1)]
        assert worker_busy_intervals(spans) == {}


class TestParallelRollup:
    def test_empty_without_worker_lanes(self):
        assert parallel_rollup([_span(1, None, 0, 100, 0)]) == {}

    def test_two_worker_arithmetic(self):
        spans = [
            _span(1, None, 0, 1200, 0),
            _span(2, 1, 0, 600, 1),     # worker 1 busy 600
            _span(3, 1, 0, 1000, 2),    # worker 2 busy 1000
        ]
        r = parallel_rollup(spans)
        assert r["workers"] == 2
        assert r["makespan_ns"] == 1000
        assert r["work_ns"] == 1600
        assert r["speedup"] == pytest.approx(1.6)
        assert r["efficiency"] == pytest.approx(0.8)
        # worker 1 idles for the last 400 ns, worker 2 not at all
        assert r["per_worker"][1]["idle_tail_ns"] == 400
        assert r["per_worker"][2]["idle_tail_ns"] == 0
        assert r["idle_tail_fraction"] == pytest.approx(400 / 2000)
        assert r["per_worker"][1]["utilization"] == pytest.approx(0.6)

    def test_perfect_pipelining_is_efficiency_one(self):
        spans = [
            _span(1, None, 0, 500, 0),
            _span(2, 1, 0, 500, 1),
            _span(3, 1, 0, 500, 2),
        ]
        r = parallel_rollup(spans)
        assert r["efficiency"] == pytest.approx(1.0)
        assert r["idle_tail_fraction"] == pytest.approx(0.0)

    def test_real_executor_spans_roll_up(self):
        """End-to-end: adopt worker spans from a real traced pool run."""
        from repro.costmodel.counter import CostCounter
        from repro.obs.trace import Tracer
        from repro.poly.dense import IntPoly
        from repro.sched.executor import ParallelRootFinder

        tracer = Tracer(counter=CostCounter())
        finder = ParallelRootFinder(mu=20, processes=2, tracer=tracer)
        try:
            roots = finder.find_roots_scaled(IntPoly.from_roots([-5, -1, 2, 7]))
        finally:
            finder.close()
        assert len(roots) == 4
        r = parallel_rollup(tracer.spans)
        if finder.metrics.counter("executor.fallbacks").value:
            pytest.skip("pool degraded to sequential on this host")
        assert 1 <= r["workers"] <= 2
        assert 0 < r["efficiency"] <= 1.0
        assert 0 <= r["idle_tail_fraction"] < 1.0
        assert r["work_ns"] <= r["workers"] * r["makespan_ns"]


class TestRollupEdgeCases:
    def test_empty_span_list(self):
        assert worker_busy_intervals([]) == {}
        assert parallel_rollup([]) == {}

    def test_single_worker_single_task(self):
        spans = [_span(1, None, 0, 100, 0), _span(2, 1, 0, 100, 1)]
        r = parallel_rollup(spans)
        assert r["workers"] == 1
        assert r["makespan_ns"] == 100
        assert r["speedup"] == pytest.approx(1.0)
        assert r["efficiency"] == pytest.approx(1.0)
        assert r["per_worker"][1]["tasks"] == 1
        assert r["idle_tail_fraction"] == pytest.approx(0.0)

    def test_zero_length_task_span(self):
        spans = [_span(1, None, 0, 100, 0), _span(2, 1, 50, 50, 1)]
        r = parallel_rollup(spans)
        assert r["workers"] == 1
        assert r["work_ns"] == 0
        assert r["efficiency"] == pytest.approx(0.0)

    def test_histogram_percentile_extremes_single_sample(self):
        from repro.obs.metrics import Histogram

        h = Histogram("x")
        assert h.percentile(0.5) is None  # empty histogram
        h.observe(5)
        assert h.percentile(0.0) == 5
        assert h.percentile(1.0) == 5
        with pytest.raises(ValueError):
            h.percentile(1.5)
        with pytest.raises(ValueError):
            h.percentile(-0.1)


class TestPhaseRollup:
    def test_rows_sum_cost_and_wall_over_counters(self):
        a, b = CostCounter(), CostCounter()
        for c in (a, b):
            with c.phase("tree"):
                c.mul(1000, 1000)
        a.wall_ns["tree"] = 7
        b.wall_ns["tree"] = 5
        b.wall_ns["tree.sort"] = 3  # timed, nothing charged
        assert phase_rollup([a, b]) == {
            "tree": {"bit_cost": 200, "wall_ns": 12},
            "tree.sort": {"bit_cost": 0, "wall_ns": 3},
        }

    def test_untimed_root_and_null_counter_give_no_rows(self):
        c = CostCounter()
        with c.phase("remainder"):
            c.add(1, 1)
        rows = phase_rollup([c, NULL_COUNTER])
        assert set(rows) == {"remainder"}
        assert rows["remainder"]["bit_cost"] == 1
        assert isinstance(rows["remainder"]["wall_ns"], int)
        assert phase_rollup([NULL_COUNTER]) == {}
