"""Layer probes for the traced pass.

Everything here wraps the program from the outside: public entry points
are replaced by timing wrappers for the duration of one pass and then
restored, and the pool's task submissions go through a thin proxy that
counts tasks, computes their pickled size and times each task inside
the worker.  Nothing under ``src/`` is modified.

Wall time is attributed to the engine that made the call (``seq`` for
``RealRootFinder``, ``pool`` for ``ParallelRootFinder``), so the pool's
serial parent-side phases (remainder sequence and tree) are measured
apart from its dispatch.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import defaultdict


def timed_task(job: tuple) -> tuple:
    """Worker side: run one pool task and report its busy time.

    Module-level so it pickles by reference; spawned workers import
    this module through the parent's ``sys.path``.
    """
    fn, payload = job
    t0 = time.perf_counter_ns()
    out = fn(payload)
    return out, time.perf_counter_ns() - t0


class PoolProbe:
    """Counts the tasks one finder's pool runs, per solve.

    ``solve`` is set by the caller before each pool solve; tasks and
    their bytes are booked to it, so the totals of solves that raised
    (whose dispatch order depends on timing) can be left out of the
    exact counts.  Submission-side fields are written by the dispatch
    thread and result-side fields by the pool's result thread; the
    lock covers the result side, which the reader shares.
    """

    def __init__(self) -> None:
        self.solve = 0
        self.tasks: dict[int, int] = defaultdict(int)
        self.bytes_out: dict[int, int] = defaultdict(int)
        self.bytes_in: dict[int, int] = defaultdict(int)
        self.busy_ns = 0
        self.results = 0
        self.lock = threading.Lock()

    def wrap(self, pool):
        return _ProbedPool(pool, self)

    def drain(self, timeout: float = 60.0) -> None:
        """Wait until every submitted task has reported back."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self.lock:
                if self.results >= sum(self.tasks.values()):
                    return
            time.sleep(0.01)


class _ProbedPool:
    """Delegates to a real ``multiprocessing`` pool; only
    ``apply_async`` is intercepted."""

    def __init__(self, pool, probe: PoolProbe):
        self._real = pool
        self._probe = probe

    def __getattr__(self, name):
        return getattr(self._real, name)

    def apply_async(self, fn, args=(), kwds=None, callback=None,
                    error_callback=None):
        probe = self._probe
        solve = probe.solve
        job = (fn, args[0])
        probe.tasks[solve] += 1
        probe.bytes_out[solve] += len(
            pickle.dumps(job, pickle.HIGHEST_PROTOCOL))

        def done(res):
            out, busy = res
            size = len(pickle.dumps(out, pickle.HIGHEST_PROTOCOL))
            with probe.lock:
                probe.busy_ns += busy
                probe.bytes_in[solve] += size
                probe.results += 1
            if callback is not None:
                callback(out)

        def failed(exc):
            with probe.lock:
                probe.results += 1
            if error_callback is not None:
                error_callback(exc)

        return self._real.apply_async(timed_task, (job,), callback=done,
                                      error_callback=failed)


class LayerProbes:
    """Installs the wall-time wrappers for one traced pass.

    Use as a context manager; ``engine`` names the engine whose calls
    are running (``"seq"`` or ``"pool"``).  ``ms[(engine, layer)]``
    accumulates milliseconds per layer.
    """

    def __init__(self, finder) -> None:
        self.finder = finder
        self.engine = "seq"
        self.ms: dict[tuple[str, str], float] = defaultdict(float)
        self.pool = PoolProbe()
        self._undo: list[tuple[object, str, object]] = []

    def _patch(self, owner, name: str, layer: str) -> None:
        orig = getattr(owner, name)
        ms = self.ms

        def timed(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                return orig(*args, **kwargs)
            finally:
                ms[(self.engine, layer)] += (time.perf_counter_ns() - t0) / 1e6

        setattr(owner, name, timed)
        self._undo.append((owner, name, orig))

    def __enter__(self) -> "LayerProbes":
        from repro.core import rootfinder
        from repro.core.interval import IntervalProblemSolver
        from repro.core.tree import InterleavingTree
        from repro.sched import executor
        from repro.sched.executor import ParallelRootFinder

        # Both engines call the remainder sequence through their own
        # module's imported name.
        self._patch(rootfinder, "compute_remainder_sequence", "remainder")
        self._patch(executor, "compute_remainder_sequence", "remainder")
        self._patch(InterleavingTree, "compute_polynomials", "tree")
        self._patch(IntervalProblemSolver, "preinterval_signs",
                    "interval.preinterval")
        self._patch(IntervalProblemSolver, "solve_gap", "interval.gap")
        self._patch(ParallelRootFinder, "find_roots_scaled", "pool.solve")
        # The pool is live after set-up's warm-up solve; a pool the
        # finder respawns mid-pass is wrapped too.
        ensure = ParallelRootFinder._ensure_pool
        probe = self.pool

        def ensure_probed(finder):
            pool = ensure(finder)
            if not isinstance(pool, _ProbedPool):
                pool = finder._pool = probe.wrap(pool)
            return pool

        ParallelRootFinder._ensure_pool = ensure_probed
        self._undo.append((ParallelRootFinder, "_ensure_pool", ensure))
        return self

    def __exit__(self, *exc) -> None:
        self.pool.drain()
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()
        pool = getattr(self.finder, "_pool", None)
        if isinstance(pool, _ProbedPool):
            self.finder._pool = pool._real
