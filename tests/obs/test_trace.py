"""Tests for the span tracer."""

import pickle

import pytest

from repro.costmodel.counter import CostCounter, PhaseStats
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer


class TestSpans:
    def test_nesting_and_depth(self):
        tr = Tracer()
        with tr.span("outer") as outer:
            with tr.span("inner", phase="tree") as inner:
                pass
        assert outer.depth == 0 and outer.parent is None
        assert inner.depth == 1 and inner.parent == outer.sid
        assert inner.phase == "tree"
        assert outer.end_ns is not None and outer.wall_ns >= inner.wall_ns

    def test_attrs_recorded(self):
        tr = Tracer()
        with tr.span("node", i=1, j=4, level=2) as sp:
            pass
        assert sp.attrs == {"i": 1, "j": 4, "level": 2}

    def test_span_closes_on_exception(self):
        tr = Tracer()
        with pytest.raises(RuntimeError):
            with tr.span("boom"):
                raise RuntimeError("x")
        assert tr.spans[0].end_ns is not None

    def test_current(self):
        tr = Tracer()
        assert tr.current is None
        with tr.span("a") as a:
            assert tr.current is a
        assert tr.current is None

    def test_record_closed_span_nests_under_open_span(self):
        seen = []

        class Sink:
            def span_open(self, sp):
                seen.append(("open", sp.name))

            def span_close(self, sp):
                seen.append(("close", sp.name))

        tr = Tracer(counter=CostCounter(), sink=Sink())
        top = tr.record("stage", 100, 250, "request", k=1)
        with tr.span("outer") as outer:
            inner = tr.record("late", 5, 9, "p")
        assert (top.parent, top.depth, top.wall_ns) == (None, 0, 150)
        assert top.attrs == {"k": 1} and top.cost == {}
        assert (inner.parent, inner.depth) == (outer.sid, 1)
        assert [sp.sid for sp in tr.spans] == [0, 1, 2]
        assert seen == [("open", "stage"), ("close", "stage"),
                        ("open", "outer"), ("open", "late"),
                        ("close", "late"), ("close", "outer")]


class TestCostAttribution:
    def test_span_costs_are_deltas(self):
        counter = CostCounter()
        tr = Tracer(counter=counter)
        counter.mul(3, 5)  # before any span: not attributed
        with tr.span("outer") as outer:
            with counter.phase("alpha"):
                counter.mul(1 << 10, 1 << 10)
            with tr.span("inner") as inner:
                with counter.phase("beta"):
                    counter.mul(1 << 4, 1 << 4)
        assert set(outer.cost) == {"alpha", "beta"}
        assert outer.cost["alpha"].mul_count == 1
        assert outer.cost["alpha"].mul_bit_cost == 11 * 11
        assert set(inner.cost) == {"beta"}
        assert inner.cost["beta"].mul_bit_cost == 5 * 5

    def test_counter_snapshot_diff_roundtrip(self):
        counter = CostCounter()
        snap = counter.snapshot()
        with counter.phase("p"):
            counter.add(7, 9)
            counter.divmod(100, 7)
        delta = counter.diff(snap)
        assert delta["p"].add_count == 1
        assert delta["p"].div_count == 1
        assert counter.diff(counter.snapshot()) == {}

    def test_bit_cost_and_mul_count_properties(self):
        counter = CostCounter()
        tr = Tracer(counter=counter)
        with tr.span("s") as sp:
            counter.mul(1 << 7, 1 << 7)
        assert sp.mul_count == 1
        assert sp.bit_cost == 8 * 8


class TestExportAdopt:
    def _worker_spans(self):
        counter = CostCounter()
        tr = Tracer(counter=counter)
        with tr.span("gap", phase="interval", gap=2, pid=1234):
            with counter.phase("interval"):
                counter.mul(1 << 3, 1 << 3)
            with tr.span("sub"):
                pass
        return tr.export()

    def test_roundtrip_dict(self):
        exported = self._worker_spans()
        sp = Span.from_dict(exported[0])
        assert sp.name == "gap" and sp.attrs["gap"] == 2
        assert sp.cost["interval"].mul_count == 1

    def test_export_pickles(self):
        exported = self._worker_spans()
        assert pickle.loads(pickle.dumps(exported)) == exported

    def test_adopt_reparents_and_tracks(self):
        tr = Tracer()
        with tr.span("parent") as parent:
            tr.adopt(self._worker_spans())
        gap = next(s for s in tr.spans if s.name == "gap")
        sub = next(s for s in tr.spans if s.name == "sub")
        assert gap.parent == parent.sid
        assert gap.depth == parent.depth + 1
        assert sub.parent == gap.sid and sub.depth == gap.depth + 1
        assert gap.track > 0 and sub.track == gap.track
        assert gap.start_ns >= parent.start_ns

    def test_adopt_key_reuses_track(self):
        tr = Tracer()
        tr.adopt(self._worker_spans(), key="w1")
        tr.adopt(self._worker_spans(), key="w2")
        tr.adopt(self._worker_spans(), key="w1")
        tracks = [s.track for s in tr.spans if s.name == "gap"]
        assert tracks[0] == tracks[2] != tracks[1]

    def test_adopt_empty_is_noop(self):
        tr = Tracer()
        tr.adopt([])
        assert tr.spans == []


class TestNullTracer:
    def test_is_disabled_and_records_nothing(self):
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("x", phase="p", attr=1) as sp:
            assert sp is None
        NULL_TRACER.event("e", field=1)
        NULL_TRACER.adopt([{"sid": 0}])
        assert NULL_TRACER.spans == []

    def test_fresh_null_tracer(self):
        assert isinstance(NullTracer(), Tracer)
        assert not NullTracer().enabled

    def test_record_keeps_no_state(self):
        assert NULL_TRACER.record("stage", 0, 10, "request", k=1) is None
        assert NULL_TRACER.spans == []


class TestPhaseStatsMerge:
    def test_merged_is_fieldwise_sum(self):
        a = PhaseStats(1, 10, 2, 20, 3, 30)
        b = PhaseStats(4, 40, 5, 50, 6, 60)
        m = a.merged(b)
        assert (m.mul_count, m.div_count, m.add_count) == (5, 7, 9)
        assert m.total_bit_cost == 210
