"""Request-scoped tracing: timelines, the ring, the access log, the
tracker's deferred-IO contract, and the tail table.  The access log's
file contract (rotation, fsync batching, torn lines) is tested with its
writer in tests/obs/test_jsonl.py."""

import json
import os
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve.reqtrace import (
    FAILURE_STATUSES,
    SCHEMA,
    STAGES,
    RequestTimeline,
    RequestTracker,
    degree_bucket,
    format_tail_table,
    rank_timelines,
    read_access_log,
)


def make_timeline(rid="aa-000001", status="ok", code=200, total_ms=10.0,
                  queue_ms=2.0, solve_ms=5.0, degree=4, priority=0,
                  cached=False, time_unix=100.0):
    tl = RequestTimeline(request_id=rid, client_id=rid, priority=priority,
                        degree=degree, start_ns=1_000,
                        time_unix=time_unix)
    t = tl.start_ns
    tl.add_stage("queue_wait", t, int(queue_ms * 1e6))
    t += int(queue_ms * 1e6)
    tl.add_stage("solve", t, int(solve_ms * 1e6), bit_cost=42)
    tl.close(status, code, cached=cached,
             end_ns=tl.start_ns + int(total_ms * 1e6))
    return tl


class TestDegreeBucket:
    @pytest.mark.parametrize("degree,label", [
        (0, "1-2"), (1, "1-2"), (2, "1-2"),
        (3, "3-4"), (4, "3-4"),
        (5, "5-8"), (8, "5-8"),
        (9, "9-16"), (16, "9-16"), (17, "17-32"),
        (100, "65-128"),
    ])
    def test_buckets(self, degree, label):
        assert degree_bucket(degree) == label


class TestRequestTimeline:
    def test_stage_accounting(self):
        tl = make_timeline()
        assert tl.stage_ns("queue_wait") == 2_000_000
        assert tl.stage_ns("solve") == 5_000_000
        assert tl.stage_ns("write") == 0
        assert tl.stage_sum_ns == 7_000_000
        assert tl.total_ns == 10_000_000
        assert tl.bit_cost == 42
        assert tl.dominant_stage() == "solve"

    def test_total_falls_back_to_stage_sum(self):
        tl = RequestTimeline(request_id="x", start_ns=50)
        tl.add_stage("validate", 50, 300)
        assert tl.end_ns is None and tl.total_ns == 300

    def test_durations_clamped_nonnegative(self):
        tl = RequestTimeline(request_id="x")
        tl.add_stage("solve", 0, -5, bit_cost=-3)
        assert tl.stage_ns("solve") == 0 and tl.bit_cost == 0

    def test_dict_roundtrip(self):
        tl = make_timeline(status="partial", code=206, cached=True)
        d = tl.to_dict()
        assert d["schema"] == SCHEMA
        assert d["dominant_stage"] == "solve"
        # Zero bit-cost stages omit the key; the solve stage keeps it.
        by_name = {s["name"]: s for s in d["stages"]}
        assert "bit_cost" not in by_name["queue_wait"]
        assert by_name["solve"]["bit_cost"] == 42

    def test_nested_spans_reach_capture_not_stages(self, tmp_path):
        t0 = time.perf_counter_ns()
        tl = RequestTimeline(request_id="n-1", start_ns=t0)
        tl.add_stage("queue_wait", t0, 1_000)
        with tl.trace.span("solve", phase="request") as solve:
            with tl.trace.span("executor.dispatch",
                               phase="interval") as disp:
                pass
            sign = tl.trace.record("sign", disp.start_ns, disp.end_ns,
                                   "interval")
        tl.close("error", 500, end_ns=time.perf_counter_ns())
        assert disp.parent == solve.sid and sign.parent == solve.sid
        # Nested spans never count as stages.
        assert [s.name for s in tl.stages] == ["queue_wait", "solve"]
        assert tl.stage_sum_ns == 1_000 + solve.wall_ns
        assert tl.dominant_stage() in ("queue_wait", "solve")
        assert [s["name"] for s in tl.to_dict()["stages"]] == [
            "queue_wait", "solve"]
        tracker = RequestTracker(MetricsRegistry(),
                                 capture_dir=str(tmp_path))
        tracker.finalize(tl)
        trace = json.loads((tmp_path / "req-n-1.trace.json").read_text())
        slices = {ev["name"]: ev for ev in trace["traceEvents"]
                  if ev.get("ph") == "X"}
        # The root request span, one slice per stage, the nested spans.
        assert set(slices) == {"request n-1", "queue_wait", "solve",
                               "executor.dispatch", "sign"}
        assert slices["request n-1"]["args"]["request_id"] == "n-1"
        assert slices["request n-1"]["dur"] * 1000 == pytest.approx(
            tl.total_ns)

    def test_stage_names_are_canonical(self):
        """The module's STAGES tuple lists every stage the server and
        front-ends record, in request order."""
        assert STAGES == ("admission", "validate", "queue_wait",
                          "cache_lookup", "budget_setup", "solve",
                          "serialize", "write")


class TestTimelineRing:
    """The tracker's ring: a deque of the ``ring_size`` most recent
    timelines."""

    def test_bounded_eviction_oldest_first(self):
        tracker = RequestTracker(MetricsRegistry(), ring_size=3)
        for i in range(5):
            tracker.finalize(make_timeline(rid=f"r-{i}"))
        assert len(tracker.ring) == 3
        assert [tl.request_id for tl in tracker.ring] == \
            ["r-2", "r-3", "r-4"]

    def test_rejects_silly_maxlen(self):
        with pytest.raises(ValueError):
            RequestTracker(MetricsRegistry(), ring_size=0)


class TestRequestTracker:
    def test_request_ids_unique_and_ordered(self):
        tracker = RequestTracker(MetricsRegistry())
        ids = [tracker.new_request_id() for _ in range(100)]
        assert len(set(ids)) == 100
        assert ids == sorted(ids)
        prefix = ids[0].split("-")[0]
        assert all(i.startswith(prefix + "-") for i in ids)

    def test_finalize_updates_ring_and_metrics(self):
        m = MetricsRegistry()
        tracker = RequestTracker(m)
        tracker.finalize(make_timeline(queue_ms=2.0, solve_ms=5.0,
                                       degree=4, priority=1))
        assert len(tracker.ring) == 1
        assert m.counter("reqtrace.requests").value == 1
        assert m.histogram("server.queue_wait_us").count == 1
        assert m.histogram("server.solve_us").count == 1
        lbl = 'server.latency_us{degree_bucket="3-4",priority="1"}'
        assert m.histogram(lbl).count == 1

    def test_deferred_io_waits_for_finish(self, tmp_path):
        path = str(tmp_path / "access.jsonl")
        tracker = RequestTracker(MetricsRegistry(), access_log=path)
        tl = make_timeline(rid="defer-1")
        tracker.finalize(tl, defer_io=True)
        # Ring and histograms update immediately; the log line waits.
        assert len(tracker.ring) == 1
        assert read_access_log(path) == []
        tracker.finish_io("defer-1", serialize_ns=1_000_000,
                          write_ns=2_000_000, start_ns=tl.start_ns + 7_000_000)
        recs = read_access_log(path)
        assert len(recs) == 1
        by_name = {s["name"]: s for s in recs[0]["stages"]}
        assert by_name["serialize"]["wall_ns"] == 1_000_000
        assert by_name["write"]["wall_ns"] == 2_000_000
        # end_ns advanced to cover the IO stages.
        assert recs[0]["end_ns"] == tl.start_ns + 10_000_000
        tracker.close()

    def test_finish_io_unknown_id_is_ignored(self):
        tracker = RequestTracker(MetricsRegistry())
        tracker.finish_io("never-seen", 10, 10)      # must not raise

    def test_pending_overflow_completes_oldest(self, tmp_path):
        path = str(tmp_path / "access.jsonl")
        tracker = RequestTracker(MetricsRegistry(), access_log=path,
                                 max_pending_io=2)
        for i in range(3):
            tracker.finalize(make_timeline(rid=f"p-{i}"), defer_io=True)
        # p-0 was force-completed (without IO stages) to bound memory.
        assert [r["request_id"] for r in read_access_log(path)] == ["p-0"]
        assert len(tracker._pending_io) == 2
        tracker.close()
        assert len(read_access_log(path)) == 3

    def test_access_log_appends_after_a_torn_tail(self, tmp_path):
        # A kill cut the last line; the next request's line must land
        # on a line of its own, not glued to the cut bytes.
        path = str(tmp_path / "access.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps(make_timeline(rid="t-0").to_dict()) + "\n")
            fh.write('{"schema": "repro.reqtrace/1", "request_id": "cu')
        tracker = RequestTracker(MetricsRegistry(), access_log=path)
        tracker.finalize(make_timeline(rid="t-1"))
        tracker.close()
        assert [r["request_id"] for r in read_access_log(path)] == [
            "t-0", "t-1"]

    def test_close_drains_pending(self, tmp_path):
        path = str(tmp_path / "access.jsonl")
        tracker = RequestTracker(MetricsRegistry(), access_log=path)
        tracker.finalize(make_timeline(rid="d-1"), defer_io=True)
        tracker.close()
        assert [r["request_id"] for r in read_access_log(path)] == ["d-1"]

    @pytest.mark.parametrize("status", FAILURE_STATUSES)
    def test_failures_are_tail_captured(self, tmp_path, status):
        m = MetricsRegistry()
        tracker = RequestTracker(m, capture_dir=str(tmp_path / "caps"))
        tracker.finalize(make_timeline(rid="f-1", status=status,
                                       total_ms=1.0))
        files = os.listdir(tmp_path / "caps")
        assert files == ["req-f-1.trace.json"]
        assert m.counter("reqtrace.tail_captured").value == 1
        trace = json.loads((tmp_path / "caps" / files[0]).read_text())
        names = [ev["name"] for ev in trace["traceEvents"]
                 if ev.get("ph") == "X"]
        assert "request f-1" in names and "solve" in names

    def test_slow_requests_are_tail_captured(self, tmp_path):
        tracker = RequestTracker(MetricsRegistry(),
                                 capture_dir=str(tmp_path / "caps"),
                                 slow_threshold_ns=int(5e6))
        tracker.finalize(make_timeline(rid="fast", total_ms=1.0))
        tracker.finalize(make_timeline(rid="slow", total_ms=50.0))
        assert os.listdir(tmp_path / "caps") == ["req-slow.trace.json"]

    def test_no_capture_dir_means_no_files(self, tmp_path):
        tracker = RequestTracker(MetricsRegistry())
        tracker.finalize(make_timeline(status="error", code=500))
        assert list(tmp_path.iterdir()) == []


def make_record(**kw):
    return make_timeline(**kw).to_dict()


class TestTailTable:
    def test_rank_failures_first_then_slowest(self):
        recs = [
            make_record(rid="ok-slow", total_ms=90.0),
            make_record(rid="err", status="error", code=500,
                        total_ms=5.0),
            make_record(rid="ok-fast", total_ms=1.0),
            make_record(rid="shed", status="overloaded", code=429,
                        total_ms=30.0),
        ]
        order = [r["request_id"] for r in rank_timelines(recs)]
        assert order == ["shed", "err", "ok-slow", "ok-fast"]

    def test_format_table(self):
        out = format_tail_table([
            make_record(rid="r-1", cached=True),
            make_record(rid="r-2", status="error", code=500),
        ], limit=10)
        lines = out.splitlines()
        assert lines[0].split()[:3] == ["request_id", "id", "status"]
        assert set(lines[1]) <= {"-", " "}
        # Failures first; cached requests flagged with a star.
        assert lines[2].startswith("r-2") and "error" in lines[2]
        assert "ok*" in lines[3]

    def test_format_empty(self):
        assert format_tail_table([]) == "no timelines"

    def test_limit_truncates(self):
        recs = [make_record(rid=f"r-{i}") for i in range(10)]
        out = format_tail_table(recs, limit=3)
        assert len(out.splitlines()) == 2 + 3
