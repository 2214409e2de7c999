"""Rollups: per-phase cost and wall time, per tree level, per worker.

:func:`phase_rollup` reads the per-phase rows of bench artifacts and
ledger records from cost counters alone.  The span helpers compute a
span's *exclusive* (self) time — its duration minus its children's —
per tree level, and the pool's utilization from adopted worker spans.
"""

from __future__ import annotations

from typing import Iterable

from repro.costmodel.counter import CostCounter
from repro.obs.trace import Span

__all__ = [
    "phase_rollup",
    "self_wall_ns",
    "level_wall_ns",
    "worker_busy_intervals",
    "parallel_rollup",
]


def phase_rollup(counters: Iterable[CostCounter]) -> dict[str, dict[str, int]]:
    """``{phase: {"bit_cost", "wall_ns"}}`` summed over ``counters``.

    A phase that was timed but charged nothing (``tree.sort``) still
    gets a row; time outside every phase is in none.
    """
    out: dict[str, dict[str, int]] = {}
    for counter in counters:
        for ph, st in counter.stats.items():
            if st.op_count or st.total_bit_cost:
                row = out.setdefault(ph, {"bit_cost": 0, "wall_ns": 0})
                row["bit_cost"] += st.total_bit_cost
        for ph, ns in counter.wall_ns.items():
            row = out.setdefault(ph, {"bit_cost": 0, "wall_ns": 0})
            row["wall_ns"] += ns
    return dict(sorted(out.items()))


def self_wall_ns(spans: Iterable[Span]) -> dict[int, int]:
    """Exclusive nanoseconds per span id (duration minus children).

    Adopted worker spans subtract from their re-parented ancestor like
    any other child, which attributes pool wait time to the worker
    lanes rather than the parent.
    """
    spans = list(spans)
    out = {sp.sid: sp.wall_ns for sp in spans if sp.end_ns is not None}
    for sp in spans:
        if sp.parent is not None and sp.parent in out and sp.end_ns is not None:
            out[sp.parent] -= sp.wall_ns
    return out


def level_wall_ns(spans: Iterable[Span]) -> dict[int, int]:
    """Exclusive wall nanoseconds per interleaving-tree level.

    Uses the ``level`` attr the root finder stamps on per-node spans;
    spans without it are ignored.  This is the wall-time analogue of
    the Section 4.2 per-level work decomposition.
    """
    spans = list(spans)
    self_ns = self_wall_ns(spans)
    out: dict[int, int] = {}
    for sp in spans:
        lvl = sp.attrs.get("level")
        if lvl is None or sp.sid not in self_ns:
            continue
        out[lvl] = out.get(lvl, 0) + self_ns[sp.sid]
    return out


def worker_busy_intervals(
    spans: Iterable[Span],
) -> dict[int, list[tuple[int, int]]]:
    """Merged busy ``(start_ns, end_ns)`` intervals per worker track.

    A worker's busy time is the union of its per-task *root* spans —
    adopted spans whose parent sits on a different track (the parent is
    the main lane's dispatch span); inner solver spans are already
    covered by their task root.  Overlapping or adjacent task spans are
    coalesced so the interval list is disjoint and sorted.
    """
    spans = [sp for sp in spans if sp.end_ns is not None]
    track_of = {sp.sid: sp.track for sp in spans}
    raw: dict[int, list[tuple[int, int]]] = {}
    for sp in spans:
        if sp.track == 0:
            continue
        if sp.parent is not None and track_of.get(sp.parent) == sp.track:
            continue
        raw.setdefault(sp.track, []).append((sp.start_ns, sp.end_ns))
    out: dict[int, list[tuple[int, int]]] = {}
    for tr, ivals in raw.items():
        ivals.sort()
        merged: list[list[int]] = []
        for start, end in ivals:
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        out[tr] = [(s, e) for s, e in merged]
    return out


def parallel_rollup(spans: Iterable[Span]) -> dict:
    """Post-run utilization / parallel-efficiency summary of a traced
    :class:`~repro.sched.executor.ParallelRootFinder` run.

    The real-run counterpart of the simulator's makespan statistics:

    * ``makespan_ns`` — the busy window across all worker lanes
      (first task start to last task end);
    * ``work_ns`` — total busy nanoseconds, the measured ``T1`` proxy;
    * ``speedup`` / ``efficiency`` — ``work / makespan`` and that
      divided by the worker count (perfect pipelining gives
      efficiency 1.0);
    * ``idle_tail_fraction`` — mean over workers of the trailing idle
      stretch (after the worker's last task, before the makespan ends)
      as a fraction of the makespan: the p=16-style droop of the
      paper's Figures 9-13, measured on real processes;
    * ``per_worker`` — ``{track: {busy_ns, tasks, utilization,
      idle_tail_ns}}``.

    Returns ``{}`` when the spans contain no worker lanes (sequential
    or untraced run).
    """
    spans = list(spans)
    busy = worker_busy_intervals(spans)
    if not busy:
        return {}
    t_start = min(iv[0][0] for iv in busy.values())
    t_end = max(iv[-1][1] for iv in busy.values())
    makespan = max(t_end - t_start, 1)
    per_worker: dict[int, dict] = {}
    work = 0
    idle_tail_total = 0
    for tr, ivals in sorted(busy.items()):
        busy_ns = sum(e - s for s, e in ivals)
        idle_tail = t_end - ivals[-1][1]
        work += busy_ns
        idle_tail_total += idle_tail
        per_worker[tr] = {
            "busy_ns": busy_ns,
            "tasks": len(ivals),
            "utilization": busy_ns / makespan,
            "idle_tail_ns": idle_tail,
        }
    n = len(per_worker)
    return {
        "workers": n,
        "makespan_ns": makespan,
        "work_ns": work,
        "speedup": work / makespan,
        "efficiency": work / (n * makespan),
        "idle_tail_fraction": idle_tail_total / (n * makespan),
        "per_worker": per_worker,
    }
