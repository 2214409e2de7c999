"""Hierarchical tracing spans tied to the paper's bit-cost currency.

A :class:`Tracer` records a tree of :class:`Span` objects.  Each span
carries wall-clock nanoseconds *and* — when the tracer is built with a
:class:`repro.costmodel.counter.CostCounter` — the per-phase
multiplication/division/addition counts and quadratic bit costs
accumulated while the span was open (via the counter's
``snapshot``/``diff`` API).  That makes a traced run the bridge between
the two time axes of the paper: real seconds on this host and the
simulated bit-operation clock of Section 4.

The default :data:`NULL_TRACER` mirrors
:data:`repro.costmodel.counter.NULL_COUNTER`: algorithm code is written
once against the tracer interface, and an untraced run pays only a
no-op context-manager entry per span site.

Spans serialize to plain dicts (:meth:`Tracer.export`) so worker
processes can capture spans and ship them back through a
``multiprocessing`` pool; the parent re-parents them with
:meth:`Tracer.adopt`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.costmodel.counter import CostCounter, PhaseStats

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]


@dataclass
class Span:
    """One traced region: a name, a phase path, a time slice, a cost.

    ``cost`` maps cost-counter phase names to the :class:`PhaseStats`
    deltas charged while the span was open (``None`` until the span
    closes, ``{}`` when the tracer has no counter).
    """

    sid: int
    name: str
    phase: str
    depth: int
    parent: int | None
    start_ns: int
    end_ns: int | None = None
    #: display lane: 0 for the main process, workers get their own.
    track: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)
    cost: dict[str, PhaseStats] | None = None

    @property
    def wall_ns(self) -> int:
        """Span duration in nanoseconds (0 while still open)."""
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    @property
    def bit_cost(self) -> int:
        """Total quadratic bit cost charged while the span was open."""
        if not self.cost:
            return 0
        return sum(st.total_bit_cost for st in self.cost.values())

    @property
    def mul_count(self) -> int:
        """Multiplications charged while the span was open."""
        if not self.cost:
            return 0
        return sum(st.mul_count for st in self.cost.values())

    def to_dict(self) -> dict[str, Any]:
        """JSON-/pickle-safe representation (inverse of :meth:`from_dict`)."""
        return {
            "sid": self.sid,
            "name": self.name,
            "phase": self.phase,
            "depth": self.depth,
            "parent": self.parent,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "track": self.track,
            "attrs": dict(self.attrs),
            "cost": {
                ph: [st.mul_count, st.mul_bit_cost, st.div_count,
                     st.div_bit_cost, st.add_count, st.add_bit_cost]
                for ph, st in (self.cost or {}).items()
            },
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Span":
        """Rebuild a span exported by :meth:`to_dict`."""
        return cls(
            sid=d["sid"],
            name=d["name"],
            phase=d["phase"],
            depth=d["depth"],
            parent=d["parent"],
            start_ns=d["start_ns"],
            end_ns=d["end_ns"],
            track=d.get("track", 0),
            attrs=dict(d.get("attrs", {})),
            cost={ph: PhaseStats(*vals) for ph, vals in d.get("cost", {}).items()},
        )


class Tracer:
    """Collects hierarchical spans; optionally streams them to a sink.

    Parameters
    ----------
    counter:
        When given, every span's per-phase cost delta is computed from
        the counter's ``snapshot``/``diff`` around the span body.
    sink:
        Optional event sink (duck-typed; see
        :class:`repro.obs.events.EventLog`) receiving ``span_open`` /
        ``span_close`` / ``event`` callbacks as they happen.
    """

    def __init__(
        self, counter: CostCounter | None = None, sink: Any | None = None
    ):
        self.counter = counter
        self.sink = sink
        self.spans: list[Span] = []
        #: timestamped counter samples ``(t_ns, name, value)`` — the
        #: live-telemetry series (executor queue depth, in-flight
        #: tasks) that become Chrome-trace ``"ph": "C"`` lanes.
        self.counters: list[tuple[int, str, float]] = []
        self._stack: list[int] = []
        self._next_track = 1  # 0 is the main process
        self._track_by_key: dict[Any, int] = {}

    @property
    def enabled(self) -> bool:
        """True for a real tracer, False for :class:`NullTracer`."""
        return True

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self.spans[self._stack[-1]] if self._stack else None

    @contextmanager
    def span(self, name: str, phase: str = "", **attrs: Any) -> Iterator[Span]:
        """Open a span for the duration of the ``with`` block.

        ``phase`` is the dotted cost-phase path the region belongs to
        (the same vocabulary as :class:`CostCounter`); ``attrs`` are
        free-form JSON-safe annotations (node labels, degrees, ...).
        """
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        sp = Span(
            sid=sid,
            name=name,
            phase=phase,
            depth=len(self._stack),
            parent=parent,
            start_ns=time.perf_counter_ns(),
            attrs=attrs,
        )
        self.spans.append(sp)
        self._stack.append(sid)
        snap = self.counter.snapshot() if self.counter is not None else None
        if self.sink is not None:
            self.sink.span_open(sp)
        try:
            yield sp
        finally:
            sp.end_ns = time.perf_counter_ns()
            sp.cost = self.counter.diff(snap) if snap is not None else {}
            self._stack.pop()
            if self.sink is not None:
                self.sink.span_close(sp)

    def record(self, name: str, start_ns: int, end_ns: int, phase: str = "",
               **attrs: Any) -> Span:
        """Record an already-closed span, timed by the caller.

        For regions a ``with`` block cannot bracket — ones that start
        and end on different threads or across an ``await``.  The span
        nests under the currently open span like :meth:`span` does; it
        charges no cost (``cost`` is ``{}``).
        """
        parent = self._stack[-1] if self._stack else None
        sp = Span(sid=len(self.spans), name=name, phase=phase,
                  depth=len(self._stack), parent=parent, start_ns=start_ns,
                  end_ns=end_ns, attrs=attrs, cost={})
        self.spans.append(sp)
        if self.sink is not None:
            self.sink.span_open(sp)
            self.sink.span_close(sp)
        return sp

    def event(self, name: str, **fields: Any) -> None:
        """Emit an instantaneous structured event (no span is recorded)."""
        if self.sink is not None:
            self.sink.event(name, fields)

    def sample(self, name: str, value: float, t_ns: int | None = None) -> None:
        """Record one sample of a named counter time series.

        Samples are event-driven (the caller samples at state changes,
        not on a timer), cost one list append, and are exported as
        Chrome-trace counter lanes by
        :func:`repro.obs.chrometrace.spans_to_chrome`.
        """
        self.counters.append(
            (t_ns if t_ns is not None else time.perf_counter_ns(), name, value)
        )

    # -- worker-span merging ------------------------------------------------
    def export(self) -> list[dict[str, Any]]:
        """All spans as plain dicts — what a pool worker returns."""
        return [sp.to_dict() for sp in self.spans]

    def adopt(
        self,
        exported: list[dict[str, Any]],
        label: str = "",
        key: Any | None = None,
    ) -> None:
        """Merge spans exported by another tracer (a pool worker).

        Adopted spans are re-numbered, re-parented under the currently
        open span, and assigned a display track so per-worker lanes
        survive into the Chrome trace: batches sharing ``key`` (e.g.
        the worker's OS pid) share a track; with no key every batch
        gets a fresh one.  They keep the times they were recorded at:
        a worker on the same host reads the same monotonic
        ``perf_counter_ns`` clock as the parent.
        """
        if not exported:
            return
        base_sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        if key is not None and key in self._track_by_key:
            track = self._track_by_key[key]
        else:
            track = self._next_track
            self._next_track += 1
            if key is not None:
                self._track_by_key[key] = track
        base_depth = (self.spans[parent].depth + 1) if parent is not None else 0
        for d in exported:
            sp = Span.from_dict(d)
            sp.sid = base_sid + sp.sid
            sp.parent = base_sid + sp.parent if sp.parent is not None else parent
            sp.depth += base_depth
            sp.track = track
            if label:
                sp.attrs.setdefault("worker", label)
            self.spans.append(sp)


class _NullSpanContext:
    """Reusable do-nothing context manager yielding ``None``."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpanContext()


class NullTracer(Tracer):
    """Zero-overhead tracer: every span site costs one no-op ``with``.

    Mirrors :class:`repro.costmodel.counter.NullCounter` so the
    algorithm code carries a single instrumentation path.
    """

    def __init__(self) -> None:
        super().__init__()

    @property
    def enabled(self) -> bool:
        return False

    def span(self, name: str, phase: str = "", **attrs: Any) -> _NullSpanContext:  # type: ignore[override]
        return _NULL_SPAN

    def record(self, name: str, start_ns: int, end_ns: int,  # type: ignore[override]
               phase: str = "", **attrs: Any) -> None:
        return None

    def event(self, name: str, **fields: Any) -> None:
        pass

    def sample(self, name: str, value: float, t_ns: int | None = None) -> None:
        pass

    def adopt(
        self,
        exported: list[dict[str, Any]],
        label: str = "",
        key: Any | None = None,
    ) -> None:
        pass


#: Shared module-level null tracer; safe because it keeps no state.
NULL_TRACER = NullTracer()
