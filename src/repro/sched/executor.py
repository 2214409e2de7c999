"""The pool plan runner: real process-based parallel execution of the
interval problems.

The discrete-event simulator (:mod:`repro.sched.simulator`) is the
faithful instrument for the paper's speedup study (see DESIGN.md: the
GIL rules out threaded bigint parallelism).  :class:`ParallelRootFinder`
runs the same Section-3 task structure on real OS processes: it shares
:class:`repro.core.rootfinder.RealRootFinder`'s pipeline up to the
interval plan and swaps only the plan runner, which hands the plan to
one **persistent** worker pool (spawned lazily, reused across calls,
explicit ``close()`` / context-manager lifecycle) with
dependency-driven ``apply_async`` dispatch:

* **Pipelined dispatch** — PREINTERVAL (endpoint-sign) and INTERVAL
  (gap-solve) tasks are submitted the moment their inputs exist.  Gaps
  from independent subtrees run concurrently; there is no barrier at
  tree-node boundaries.
* **Shared endpoint signs** — each interleaving point's sign is
  evaluated once by a PREINTERVAL task and reused by both adjacent
  gaps, half the endpoint evaluations of solving every gap on its own
  (Sagraloff's point that evaluation counts dominate applies squarely
  here).
* **Resilience** (:mod:`repro.resilience`) — every submission is a
  *logical task* that survives its attempts: a timed-out, poisoned, or
  killed attempt is retried on a fresh worker with exponential backoff
  (:class:`~repro.resilience.retry.RetryPolicy`), a task that exhausts
  its retries runs **in the parent process** (per-node sequential
  degradation — completed sign/gap results are kept, nothing is
  recomputed), and a :class:`~repro.resilience.breaker.CircuitBreaker`
  trips after consecutive pool failures to route whole stretches of
  work in-parent for a cool-down before probing the pool again.  A
  structural failure (dispatch error, stalled scheduler) solves the
  same plan with the in-process runner; the remainder sequence and
  tree are not recomputed.  A
  :class:`~repro.resilience.budget.Budget` bounds a call by wall clock
  and parent-side bit cost, raising
  :class:`~repro.resilience.budget.BudgetExceeded` with the certified
  roots completed so far.

Sharing the pipeline means both engines pose *identical* interval
problems (same sentinels, same gap endpoints) and agree bit for bit.

Observability: pass a :class:`repro.obs.trace.Tracer` and every worker
captures its own spans (with per-task bit costs from a worker-local
:class:`~repro.costmodel.counter.CostCounter`), ships them back through
the pool, and the parent merges them onto per-worker lanes
(``Tracer.adopt(spans, key=pid)``).  Pool lifecycle shows up as
``pool.spawn`` / ``pool.close`` spans; reliability transitions as
``executor_retry`` / ``executor_node_fallback`` / ``breaker_*`` /
``executor_fallback`` events.

Opt-in sampling profiling (``profile=True``) rides the same transport:
each pool task lazily starts a worker-global
:class:`repro.obs.profile.SamplingProfiler` from its task wrapper,
drains the sampled stacks at task end, and ships them back *collapsed*
(``{"stack;stack;leaf": count}``) alongside the trace spans; the parent
merges every worker's fold plus its own dispatch-thread samples into
:meth:`ParallelRootFinder.profile_collapsed` — ready for
``flamegraph.pl`` or :func:`repro.obs.profile.write_collapsed`.

Live telemetry rides along: every submit/complete transition samples
queue depth and in-flight task count into the finder's
:class:`~repro.obs.metrics.MetricsRegistry` and (when traced) into
``Tracer.counters``, which export as Chrome-trace ``"ph": "C"``
counter lanes next to the span lanes.  Reliability drift is counted in
the same registry (see :data:`repro.obs.metrics.EXECUTOR_COUNTERS` and
the glossary in docs/RESILIENCE.md) so the bench regression gate can
watch it.  Post-run, :func:`repro.obs.rollup.parallel_rollup` turns the
adopted worker spans into a utilization / idle-tail /
parallel-efficiency summary.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import multiprocessing as mp
import os
import pickle
import queue
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial as _partial
from typing import TYPE_CHECKING, Any, Sequence

from repro.core.interval import IntervalProblemSolver, solve_linear_scaled
# Unused here (the shared pipeline calls it), but perfbench/probes.py
# patches this module's name as well as repro.core.rootfinder's.
from repro.core.remainder import compute_remainder_sequence  # noqa: F401
from repro.core.rootfinder import NodePlan, _RootPipeline, merge_sorted
from repro.costmodel.backend import (
    counter_for,
    null_counter_for,
    resolve_backend,
)
from repro.costmodel.counter import NULL_COUNTER, CostCounter, NullCounter
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.poly.dense import IntPoly
from repro.resilience.breaker import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
)
from repro.resilience.budget import Budget
from repro.resilience.retry import RetryPolicy

if TYPE_CHECKING:
    from repro.core.sieve import IntervalStats
    from repro.core.tree import InterleavingTree
    from repro.resilience.checkpoint import BatchCheckpoint

__all__ = [
    "ParallelRootFinder",
    "sign_worker",
    "gap_worker",
    "intern_coeffs",
]


class _Degraded(Exception):
    """Internal: the pooled run cannot complete; solve it in-process."""


# -- worker side -----------------------------------------------------------

#: Worker-local solver cache: repeated tasks against the same node
#: polynomial (same call, or the same input across batched calls) skip
#: re-deriving the derivative and evaluators.  Bounded so long-lived
#: service pools do not accumulate stale polynomials.  The parent
#: process shares this cache for in-parent (degraded) task execution.
_SOLVER_CACHE: dict[tuple, IntervalProblemSolver] = {}
_SOLVER_CACHE_MAX = 8

#: Worker-local interned coefficient tuples, keyed by the sha256 digest
#: of their pickle (see :func:`intern_coeffs`).  A node polynomial's
#: coefficients are unpickled at most once per worker no matter how many
#: of its 2*degree+1 tasks land here.  Bounded like the solver cache so
#: long-lived service pools do not accumulate inputs.
_COEFFS_CACHE: dict[bytes, tuple[int, ...]] = {}
_COEFFS_CACHE_MAX = 32


def intern_coeffs(coeffs: tuple[int, ...]) -> tuple[bytes, bytes]:
    """Parent-side: pre-pickle a node's coefficient tuple once.

    Returns a ``(key, blob)`` reference that every task payload for the
    node carries instead of the raw tuple.  Pickling the payload then
    copies ``blob`` (a flat bytes memcpy) rather than re-walking a tuple
    of big integers per task — for a degree-``d`` node that cuts the
    coefficient serialization from ``2d+1`` traversals to one.

    ``key`` is the sha256 digest of ``blob``, so it is linear-time and
    has no coefficient-size limit; decimal keys would hit Python's
    ``str(int)`` digit limit on the paper's degree-70 tree polynomials.
    """
    blob = pickle.dumps(tuple(coeffs), pickle.HIGHEST_PROTOCOL)
    return hashlib.sha256(blob).digest(), blob


def _resolve_coeffs(ref: tuple[bytes, bytes]) -> tuple[int, ...]:
    """Worker-side: turn an interned ``(key, blob)`` reference from
    :func:`intern_coeffs` into the coefficient tuple, unpickling once
    per worker per key via ``_COEFFS_CACHE``."""
    key, blob = ref
    cs = _COEFFS_CACHE.get(key)
    if cs is None:
        if len(_COEFFS_CACHE) >= _COEFFS_CACHE_MAX:
            _COEFFS_CACHE.clear()
        cs = pickle.loads(blob)
        _COEFFS_CACHE[key] = cs
    return cs


def _cached_solver(
    coeffs: tuple[int, ...], mu: int, r_bits: int, strategy: str,
    backend: str,
) -> IntervalProblemSolver:
    key = (coeffs, mu, r_bits, strategy, backend)
    solver = _SOLVER_CACHE.get(key)
    if solver is None:
        if len(_SOLVER_CACHE) >= _SOLVER_CACHE_MAX:
            _SOLVER_CACHE.clear()
        solver = IntervalProblemSolver(
            IntPoly(coeffs), mu, r_bits, strategy=strategy,
            counter=null_counter_for(backend),
        )
        _SOLVER_CACHE[key] = solver
    return solver


def _traced_solver(
    coeffs: tuple[int, ...], mu: int, r_bits: int, strategy: str,
    backend: str,
) -> tuple[IntervalProblemSolver, Tracer, int]:
    pid = os.getpid()
    counter = counter_for(backend)
    tracer = Tracer(counter=counter)
    solver = IntervalProblemSolver(
        IntPoly(coeffs), mu, r_bits, counter=counter,
        strategy=strategy, tracer=tracer, label=f"pid{pid}",
    )
    return solver, tracer, pid


#: Worker-global sampling profiler, lazily started by the first
#: profiled task this worker runs and reused (the timer thread keeps
#: running between tasks; each task drops the idle-time samples).
_WORKER_PROFILER: Any = None


def _worker_profile_begin() -> Any:
    """Start (or reuse) this process's sampling profiler for one task.

    Samples accumulated since the previous task — pool-idle stacks —
    are discarded so each task ships only its own stacks; ``start()``
    also records an anchor sample, so even a task shorter than one
    sampling interval produces a non-empty profile.
    """
    global _WORKER_PROFILER
    from repro.obs.profile import SamplingProfiler

    if _WORKER_PROFILER is None:
        _WORKER_PROFILER = SamplingProfiler()
    _WORKER_PROFILER.drain()
    if _WORKER_PROFILER.running:
        _WORKER_PROFILER.sample_once()  # per-task anchor on reuse
    else:
        _WORKER_PROFILER.start()  # takes its own anchor sample
    return _WORKER_PROFILER


def _with_profile(spans: list[dict] | None, prof: Any) -> list[dict] | None:
    """Append this task's collapsed profile to the span export.

    The profile rides in the same ``spans`` list the tracer ships back
    through the pool, as a dict *without* a ``"sid"`` key — the
    parent's ``deliver`` splits it off before adopting the spans.
    """
    if prof is None:
        return spans
    from repro.obs.profile import collapse

    entry = {"profile": collapse(prof.drain()), "pid": os.getpid()}
    return (list(spans) if spans else []) + [entry]


def sign_worker(args: tuple) -> tuple:
    """Pool worker: one PREINTERVAL task — the sign of a node polynomial
    just right of one interleaving point.

    ``args = (label, t, y, coeffs_ref, mu, r_bits, strategy, trace,
    profile, backend)``; ``coeffs_ref`` is an interned ``(key, blob)``
    reference from :func:`intern_coeffs`.  Returns ``("sign", label, t,
    sign, spans)`` where ``spans`` is the worker tracer's export when
    ``trace`` is truthy (else ``None``), with the task's collapsed stack
    profile appended when ``profile`` is truthy.  Module-level so it
    pickles.
    """
    label, t, y, ref, mu, r_bits, strategy, trace, profile, backend = args
    prof = _worker_profile_begin() if profile else None
    coeffs = _resolve_coeffs(ref)
    if not trace:
        solver = _cached_solver(coeffs, mu, r_bits, strategy, backend)
        s = solver.preinterval_sign(y)
        return ("sign", label, t, s, _with_profile(None, prof))
    solver, tracer, pid = _traced_solver(coeffs, mu, r_bits, strategy,
                                         backend)
    with tracer.span("sign", phase="interval.preinterval",
                     node=list(label), t=t, pid=pid):
        s = solver.preinterval_sign(y)
    return ("sign", label, t, s, _with_profile(tracer.export(), prof))


def gap_worker(args: tuple) -> tuple:
    """Pool worker: one INTERVAL task — solve gap ``i`` of a node given
    both endpoint signs (shared with the adjacent gaps' tasks).

    ``args = (label, gap, left, right, s_left, s_right, sign_at_neg_inf,
    coeffs_ref, mu, r_bits, strategy, trace, profile, backend)``, with
    ``coeffs_ref`` as in :func:`sign_worker`.  Returns ``("gap", label,
    gap, scaled_root, spans)`` (trace and profile handling as in
    :func:`sign_worker`).  Module-level so it pickles.
    """
    (label, gap, left, right, s_left, s_right, s_inf,
     ref, mu, r_bits, strategy, trace, profile, backend) = args
    prof = _worker_profile_begin() if profile else None
    coeffs = _resolve_coeffs(ref)
    if not trace:
        solver = _cached_solver(coeffs, mu, r_bits, strategy, backend)
        val = solver.solve_gap(gap, left, right, s_left, s_right, s_inf)
        return ("gap", label, gap, val, _with_profile(None, prof))
    solver, tracer, pid = _traced_solver(coeffs, mu, r_bits, strategy,
                                         backend)
    with tracer.span("gap", phase="interval",
                     node=list(label), gap=gap, pid=pid):
        val = solver.solve_gap(gap, left, right, s_left, s_right, s_inf)
    return ("gap", label, gap, val, _with_profile(tracer.export(), prof))


# -- parent side -----------------------------------------------------------


@dataclass
class ParallelRootFinder(_RootPipeline):
    """Multiprocessing variant of :class:`repro.core.rootfinder.RealRootFinder`
    built around one persistent worker pool.

    The pool is spawned lazily on the first call and reused by every
    subsequent :meth:`find_roots_scaled` / :meth:`find_roots_many`
    until :meth:`close` (also a context manager).  Dispatch is
    dependency-driven: per-node PREINTERVAL sign tasks start as soon as
    the node's children have delivered their roots, and each gap's
    INTERVAL task starts as soon as its two endpoint signs exist —
    independent subtrees overlap freely.

    Everything before the interval plan is the sequential finder's own
    pipeline, so inputs behave exactly alike: ``ValueError`` on the zero
    polynomial, ``[]`` for constants, linear inputs solved in-parent,
    and repeated roots split into Yun factors whose plans each run on
    the pool.  A failed or timed-out task is retried on a fresh worker
    (``retry``), then — if retries are exhausted or the circuit breaker
    is open — executed in the parent process, keeping every result
    already computed; only a structural failure (dispatch error,
    stalled scheduler) solves the whole plan in-process (counted in
    :attr:`fallback_count`, logged via the tracer).  A call always
    returns the exact answer.

    Parameters
    ----------
    mu:
        Output precision in bits (scaled grid is ``2**-mu``).
    processes:
        Pool size.  Dead workers are respawned by the pool itself; a
        broken pool is replaced on the next call.
    check_tree:
        Assert Theorem 1's conclusions at every tree node — same
        default as the sequential finder.
    strategy:
        Interval-solver strategy (``hybrid`` / ``bisection`` /
        ``newton``), applied inside every worker.  May be changed
        between calls; the pool is strategy-agnostic.
    task_timeout:
        Per-task deadline in seconds, measured from each submission
        (``None`` = wait forever).  An attempt that misses its deadline
        is abandoned (a late result is discarded as stale) and the
        logical task is retried or run in-parent.
    retry:
        :class:`~repro.resilience.retry.RetryPolicy` for failed/timed-
        out tasks (default: 2 retries, exponential backoff).  Pass
        ``RetryPolicy(max_retries=0)`` to degrade straight to in-parent
        execution.
    breaker:
        :class:`~repro.resilience.breaker.CircuitBreaker` guarding the
        pool, shared across every call this finder serves.  After
        ``failure_threshold`` consecutive task failures it opens and
        task bodies run in-parent until the cool-down elapses and a
        probe task succeeds.  State transitions increment the
        ``executor.breaker_*`` counters and emit ``breaker_*`` tracer
        events.
    budget:
        Optional :class:`~repro.resilience.budget.Budget`.  Checked
        cooperatively at phase boundaries and once per dispatch-loop
        event; an overrun raises
        :class:`~repro.resilience.budget.BudgetExceeded` carrying the
        top-level roots already completed.  The bit-cost axis sees the
        parent-side counter only (worker costs stay worker-local).
    counter:
        Parent-side cost counter for the remainder/tree phases (worker
        costs stay worker-local and return only through trace spans).
    tracer:
        Observability hook; see the module docstring.
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` accumulating live
        executor telemetry across every call this finder serves: the
        ``executor.queue_depth`` / ``executor.in_flight`` gauges and
        the ``executor.queue_depth.samples`` histogram (sampled at
        every submit/complete event), plus the reliability counters
        (``executor.fallbacks``, ``executor.retries``,
        ``executor.task_timeouts``, ``executor.worker_failures``,
        ``executor.inline_tasks``, ``executor.stale_results``,
        ``executor.breaker_*``, ...) the regression gate watches.  A
        fresh registry is created per finder unless one is passed in.
    faults:
        Optional deterministic fault-injection plan (an object with an
        ``intercept(dispatch_index, fn, payload, finder)`` method — see
        :class:`repro.verify.faults.FaultPlan`).  Consulted once per
        pool submission (retries consume fresh indices), and may
        replace the task body; ``None`` (the default) is zero-overhead.
        In-parent execution always runs the *original* task body.
        Test-only: the production dispatch path never sets it.
    profile:
        Enable sampling profiling: each pool task runs under its
        worker's :class:`~repro.obs.profile.SamplingProfiler` and ships
        its collapsed stacks back with the result, and the parent
        samples its own dispatch thread.  Read the merged result via
        :meth:`profile_collapsed` / :attr:`profile_samples`.  Off by
        default — the profiler costs a few percent of wall time.
    backend:
        Arithmetic backend name (``"python"``/``"gmpy2"``/``"mpint"``/
        ``"auto"``; see docs/BACKENDS.md).  Threaded into every worker
        task payload so the pool's arithmetic runs on it, and into the
        parent-side remainder/tree phases.  Resolved and validated at
        construction; results are bit-identical across backends.
    """

    mu: int
    processes: int = 2
    check_tree: bool = True
    strategy: str = "hybrid"
    task_timeout: float | None = None
    retry: RetryPolicy | None = None
    breaker: CircuitBreaker | None = None
    budget: Budget | None = None
    counter: CostCounter = NULL_COUNTER
    tracer: Tracer = NULL_TRACER
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    faults: Any = None
    profile: bool = False
    #: Arithmetic backend for worker and parent-side arithmetic
    #: (resolved/validated in ``__post_init__``; see docs/BACKENDS.md).
    backend: str = "python"
    #: parent-side timestamped profiler samples (``(t_ns, stack)``,
    #: same clock as tracer spans) — feed to ``spans_to_chrome``'s
    #: ``profile`` argument for a profiler lane in the Chrome trace.
    profile_samples: list = field(default_factory=list, init=False,
                                  repr=False)
    _profile_folded: dict = field(default_factory=dict, init=False,
                                  repr=False)
    #: structural failures so far, each answered by solving the plan
    #: in-process; parity tests assert it stays 0 on the happy path
    #: *and* under single-task faults (those are absorbed by retries).
    fallback_count: int = field(default=0, init=False)
    _pool: Any = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.mu < 1:
            raise ValueError("mu must be >= 1")
        if self.processes < 1:
            raise ValueError("processes must be >= 1")
        from repro.core.sieve import STRATEGIES

        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; "
                f"known: {list(STRATEGIES)}"
            )
        if self.retry is None:
            self.retry = RetryPolicy()
        if self.breaker is None:
            self.breaker = CircuitBreaker()
        self.breaker.on_transition = self._on_breaker_transition
        # Resolve the backend eagerly so a bad name/missing package fails
        # at construction, not inside a worker.
        self.backend = resolve_backend(self.backend).name
        if self.counter is NULL_COUNTER:
            self.counter = null_counter_for(self.backend)
        if (self.budget is not None and self.budget.max_bit_ops is not None
                and isinstance(self.counter, NullCounter)):
            # The bit ceiling needs a real counter to read.
            self.counter = counter_for(self.backend)

    def _on_breaker_transition(self, old: str, new: str) -> None:
        name = {
            BREAKER_OPEN: "executor.breaker_open",
            BREAKER_HALF_OPEN: "executor.breaker_half_open",
            BREAKER_CLOSED: "executor.breaker_close",
        }[new]
        self.metrics.counter(name).inc()
        self.tracer.event(
            f"breaker_{new}", previous=old,
            consecutive_failures=self.breaker.consecutive_failures,
        )

    # -- pool lifecycle --------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            with self.tracer.span("pool.spawn", phase="pool",
                                  processes=self.processes):
                self._pool = mp.get_context("spawn").Pool(self.processes)
        return self._pool

    def worker_pids(self) -> list[int]:
        """Sorted OS pids of the live pool's workers (``[]`` if none)."""
        if self._pool is None:
            return []
        return sorted(w.pid for w in self._pool._pool)

    def close(self, join_timeout: float = 5.0) -> None:
        """Shut the pool down cleanly (idempotent).

        The join is bounded: a worker still chewing on an abandoned
        (timed-out) task must not wedge the caller, so after
        ``join_timeout`` seconds the pool is torn down hard instead
        (``executor_close_timeout`` event).  The finder stays usable:
        the next call simply spawns a fresh pool.
        """
        if self._pool is None:
            return
        pool, self._pool = self._pool, None
        with self.tracer.span("pool.close", phase="pool"):
            pool.close()
            t = threading.Thread(target=pool.join, daemon=True)
            t.start()
            t.join(timeout=join_timeout)
            if t.is_alive():
                self.tracer.event("executor_close_timeout",
                                  timeout=join_timeout)
                self._hard_teardown(pool)

    def _discard_pool(self) -> None:
        """Hard-kill a wedged pool; the next call respawns."""
        if self._pool is None:
            return
        pool, self._pool = self._pool, None
        self._hard_teardown(pool)

    def _hard_teardown(self, pool: Any) -> None:
        # terminate() can itself block forever: a worker SIGKILLed while
        # blocked in the inqueue's recv dies holding the queue read-lock
        # (a POSIX semaphore — no owner, never released), and
        # Pool._terminate drains the inqueue under that same lock.  Run
        # the teardown in a daemon thread with a bounded join; if it
        # wedges, SIGKILL the workers directly and abandon the pool
        # (its daemonic processes are reaped at interpreter exit, and
        # the daemon teardown thread cannot keep the interpreter alive).
        pids = [w.pid for w in pool._pool if w.pid]

        def _teardown() -> None:
            try:
                pool.terminate()
                pool.join()
            except Exception:
                pass

        t = threading.Thread(target=_teardown, daemon=True)
        t.start()
        t.join(timeout=5.0)
        if t.is_alive():
            self.metrics.counter("executor.teardown_timeouts").inc()
            self.tracer.event("executor_teardown_timeout",
                              pids=pids, timeout=5.0)
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass

    def __enter__(self) -> "ParallelRootFinder":
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.close()
        return False

    def __del__(self) -> None:
        try:
            self._discard_pool()
        except Exception:
            pass

    # -- public API ------------------------------------------------------
    def find_roots_scaled(self, p: IntPoly) -> list[int]:
        """Scaled mu-approximations of all distinct real roots, ascending
        (exact; bit-identical to the sequential finder)."""
        return self._find_roots(p).scaled

    def find_roots_many(
        self,
        polys: Sequence[IntPoly],
        checkpoint: "BatchCheckpoint | None" = None,
    ) -> list[list[int]]:
        """Batched throughput API: solve many polynomials on one warm pool.

        The pool is spawned once (if not already live) and stays warm
        across the whole batch — the service-style shape where per-call
        pool startup would otherwise dominate.  Results are in input
        order, each exactly what :meth:`find_roots_scaled` returns.

        ``checkpoint`` (a :class:`~repro.resilience.checkpoint.
        BatchCheckpoint`) makes the batch resumable: every completed
        polynomial is durably appended as it finishes, and polynomials
        already present are answered from the checkpoint without
        re-solving (counted in ``executor.checkpoint_hits``).  If the
        run dies — including via a
        :class:`~repro.resilience.budget.BudgetExceeded` bubbling up —
        a rerun with the same checkpoint continues where it stopped.
        """
        out: list[list[int]] = []
        with self.tracer.span("executor.batch", phase="interval",
                              count=len(polys)):
            for p in polys:
                key = None
                if checkpoint is not None:
                    key = checkpoint.key_for(p.coeffs)
                    cached = checkpoint.get(key)
                    if cached is not None:
                        checkpoint.hit()
                        self.metrics.counter("executor.checkpoint_hits").inc()
                        self.tracer.event("checkpoint_hit", index=len(out),
                                          degree=p.degree)
                        out.append(cached)
                        continue
                scaled = self.find_roots_scaled(p)
                if checkpoint is not None and key is not None:
                    checkpoint.record(key, len(out), scaled)
                out.append(scaled)
        return out

    # -- internals -------------------------------------------------------
    @contextlib.contextmanager
    def _parent_profiler(self):
        """Sample the parent dispatch thread while profiling is on."""
        if not self.profile:
            yield
            return
        from repro.obs.profile import SamplingProfiler

        prof = SamplingProfiler().start()
        try:
            yield
        finally:
            prof.stop()
            self.profile_samples.extend(prof.drain())

    def _merge_profile(self, folded: Any) -> None:
        for stack, n in (folded or {}).items():
            self._profile_folded[stack] = (
                self._profile_folded.get(stack, 0) + n
            )

    def profile_collapsed(self) -> dict[str, int]:
        """Merged collapsed-stack profile of every profiled call so far.

        Worker-side task folds plus the parent dispatch thread's
        samples, in flamegraph.pl's collapsed format
        (``{"root;child;leaf": count}``).  Empty unless the finder was
        constructed with ``profile=True`` and has run.
        """
        from repro.obs.profile import collapse, merge_collapsed

        return merge_collapsed(self._profile_folded,
                               collapse(self.profile_samples))

    def _run_plan(
        self,
        plan: list[NodePlan],
        tree: InterleavingTree,
        r_bits: int,
        stats: IntervalStats,
        base: list[int],
    ) -> list[int]:
        """Pool plan runner: dispatch the plan over the shared pool.

        A structural failure (dispatch error, stalled scheduler)
        discards the pool — the next call spawns a fresh one — and
        solves the same plan with the in-process runner, counted in
        :attr:`fallback_count` and ``executor.fallbacks``.
        """
        tracer = self.tracer
        try:
            with self._parent_profiler(), \
                    tracer.span("executor.dispatch", phase="interval",
                                degree=tree.n, nodes=len(plan)):
                return self._dispatch_plan(plan, r_bits, base)
        except _Degraded as exc:
            tracer.event("executor_fallback", reason=str(exc),
                         degree=tree.n)
            self._discard_pool()
            self.fallback_count += 1
            self.metrics.counter("executor.fallbacks").inc()
            return super()._run_plan(plan, tree, r_bits, stats, base)

    def _dispatch_plan(self, plan: list[NodePlan], r_bits: int,
                       base: list[int]) -> list[int]:
        """Dependency-driven dispatch of one plan over the shared pool.

        Every PREINTERVAL/INTERVAL submission is a *logical task* keyed
        by ``NodePlan.sign_task`` / ``NodePlan.gap_task``.  Attempts
        against the pool may time out or fail; the logical task then
        retries with backoff, and finally runs in-parent.  Late results
        from abandoned attempts are discarded as stale, so each logical
        task completes exactly once.  A budget overrun reports the root
        node's completed gaps merged with ``base``.
        """
        pool = self._ensure_pool()
        tracer = self.tracer
        capture = tracer.enabled
        profiled = self.profile
        mu = self.mu
        strategy = self.strategy
        backend = self.backend
        retry = self.retry
        breaker = self.breaker
        budget = self.budget
        clock = time.monotonic
        sentinel = 1 << (r_bits + mu)

        by_label = {node.label: node for node in plan}
        parent_of: dict[tuple[int, int], tuple[int, int]] = {}
        waiting: dict[tuple[int, int], int] = {}
        for node in plan:
            waiting[node.label] = len(node.children)
            for child in node.children:
                parent_of[child] = node.label
        root_label = plan[-1].label  # postorder: the root closes the plan
        root_degree = by_label[root_label].degree

        roots: dict[tuple[int, int], list] = {}
        coeffs_ref: dict[tuple[int, int], tuple[bytes, bytes]] = {}
        ys: dict[tuple[int, int], list[int]] = {}
        signs: dict[tuple[int, int], list] = {}
        gap_started: dict[tuple[int, int], list[bool]] = {}
        gaps_left: dict[tuple[int, int], int] = {}

        results_q: queue.Queue = queue.Queue()
        completed: list[tuple[int, int]] = []
        done = False

        # Logical-task bookkeeping (see docstring).
        body: dict[tuple, tuple[Any, tuple]] = {}      # original task bodies
        attempts: dict[tuple, int] = {}                # pool attempts made
        live: dict[int, tuple[tuple, float | None]] = {}  # tid -> (key, deadline)
        done_keys: set[tuple] = set()
        retry_due: list[tuple[float, int, tuple]] = []  # heap of resubmissions
        inline_q: deque = deque()
        retry_seq = 0
        pool_successes = 0
        timeouts_this_call = 0

        # Live telemetry: sampled at every submit/complete event (no
        # timer thread — the dispatch loop *is* the state machine, so
        # its transitions are exactly the moments the series changes).
        procs = self.processes
        depth_gauge = self.metrics.gauge("executor.queue_depth")
        inflight_gauge = self.metrics.gauge("executor.in_flight")
        depth_hist = self.metrics.histogram("executor.queue_depth.samples")

        def sample() -> None:
            pending = len(live)
            inflight = pending if pending < procs else procs
            depth = pending - inflight
            depth_gauge.set(depth)
            inflight_gauge.set(inflight)
            depth_hist.observe(depth)
            if capture:
                tracer.sample("executor.queue_depth", depth)
                tracer.sample("executor.in_flight", inflight)

        dispatch_index = 0
        task_seq = 0
        start_pids = set(self.worker_pids())

        def enqueue(tid: int, item: Any) -> None:
            # Runs on the pool's result-handler thread; Queue is safe.
            results_q.put((tid, item))

        def dispatch(key: tuple) -> None:
            """One attempt at a logical task: pool if the breaker
            admits it, in-parent otherwise."""
            nonlocal dispatch_index, task_seq
            if key in done_keys:
                return
            if not breaker.allow():
                inline_q.append(key)
                return
            fn, payload = body[key]
            if self.faults is not None:
                fn, payload = self.faults.intercept(
                    dispatch_index, fn, payload, self
                )
            dispatch_index += 1
            attempts[key] += 1
            tid = task_seq
            task_seq += 1
            deadline = (clock() + self.task_timeout
                        if self.task_timeout is not None else None)
            live[tid] = (key, deadline)
            try:
                pool.apply_async(
                    fn, (payload,),
                    callback=_partial(enqueue, tid),
                    error_callback=_partial(enqueue, tid),
                )
            except Exception as exc:  # pool broken/closed underneath us
                raise _Degraded(f"dispatch failed: {exc!r}") from exc
            sample()

        def submit(fn, payload, key: tuple) -> None:
            body[key] = (fn, payload)
            attempts[key] = 0
            dispatch(key)

        def task_failed(key: tuple, reason: str) -> None:
            nonlocal retry_seq
            breaker.record_failure()
            if key in done_keys:
                return
            n = attempts[key]
            if n <= retry.max_retries:
                self.metrics.counter("executor.retries").inc()
                tracer.event("executor_retry", task=key[0],
                             node=list(key[1]), index=key[2],
                             attempt=n, reason=reason)
                retry_seq += 1
                heapq.heappush(
                    retry_due, (clock() + retry.delay(n), retry_seq, key)
                )
            else:
                tracer.event("executor_node_fallback", task=key[0],
                             node=list(key[1]), index=key[2],
                             attempts=n, reason=reason)
                inline_q.append(key)

        def complete(label: tuple[int, int]) -> None:
            nonlocal done
            completed.append(label)
            if label == root_label:
                done = True

        def start_node(node: NodePlan) -> None:
            if node.degree == 1:
                # Leaves are linear — solved in the parent, as in the
                # sequential path (paper: "easy to estimate").
                roots[node.label] = [solve_linear_scaled(IntPoly(node.coeffs),
                                                         mu)]
                complete(node.label)
                return
            inter: list[int] = []
            for child in node.children:
                inter = merge_sorted(inter, roots[child])
            ys_node = [-sentinel] + inter + [sentinel]
            L = node.degree
            ys[node.label] = ys_node
            signs[node.label] = [None] * (L + 1)
            gap_started[node.label] = [False] * L
            gaps_left[node.label] = L
            roots[node.label] = [None] * L
            # Intern the coefficient tuple once per node: all 2L+1 task
            # payloads share one pre-pickled (key, blob) reference.
            coeffs_ref[node.label] = intern_coeffs(node.coeffs)
            for t, y in enumerate(ys_node):
                submit(sign_worker, (node.label, t, y,
                                     coeffs_ref[node.label], mu,
                                     r_bits, strategy, capture, profiled,
                                     backend),
                       node.sign_task(t))

        def on_sign(label: tuple[int, int], t: int, s: int) -> None:
            node = by_label[label]
            sg = signs[label]
            sg[t] = s
            ys_node = ys[label]
            started = gap_started[label]
            for gap in (t - 1, t):
                if (0 <= gap < node.degree and not started[gap]
                        and sg[gap] is not None and sg[gap + 1] is not None):
                    started[gap] = True
                    submit(gap_worker, (label, gap, ys_node[gap],
                                        ys_node[gap + 1], sg[gap], sg[gap + 1],
                                        node.sign_at_neg_inf,
                                        coeffs_ref[label],
                                        mu, r_bits, strategy, capture,
                                        profiled, backend),
                           node.gap_task(gap))

        def on_gap(label: tuple[int, int], gap: int, val: int) -> None:
            roots[label][gap] = val
            gaps_left[label] -= 1
            if gaps_left[label] == 0:
                complete(label)

        def deliver(item: tuple) -> None:
            kind, label, idx, val, spans = item
            done_keys.add((kind, label, idx))
            if spans:
                # Profile entries ride the span list but are not spans
                # (no "sid"): split them off before adopting.
                for entry in spans:
                    if "sid" not in entry:
                        self._merge_profile(entry.get("profile"))
                spans = [sp for sp in spans if "sid" in sp]
            if spans:
                # Lane per OS process: spans carry the producing pid
                # (in-parent execution lands on the parent's own lane).
                pid = spans[0].get("attrs", {}).get("pid")
                tracer.adopt(spans, key=pid)
            if kind == "sign":
                on_sign(label, idx, val)
            else:
                on_gap(label, idx, val)

        def run_inline(key: tuple) -> None:
            """Per-node sequential degradation: execute the original
            task body in the parent process.  Exact by construction —
            the body is the same code the worker would have run."""
            if key in done_keys:
                return
            self.metrics.counter("executor.inline_tasks").inc()
            fn, payload = body[key]
            deliver(fn(payload))

        def expire(now: float) -> None:
            nonlocal timeouts_this_call, start_pids
            expired = [tid for tid, (_k, dl) in live.items()
                       if dl is not None and dl <= now]
            for tid in expired:
                key, _dl = live.pop(tid)
                self.metrics.counter("executor.task_timeouts").inc()
                timeouts_this_call += 1
                # A timeout with a changed worker-pid set means a worker
                # died holding this task: the pool respawned the process
                # but the in-flight attempt's result is gone for good.
                pids = set(self.worker_pids())
                if pids != start_pids:
                    self.metrics.counter("executor.worker_failures").inc()
                    start_pids = pids
                tracer.event("executor_task_timeout", task=key[0],
                             node=list(key[1]), index=key[2],
                             timeout=self.task_timeout)
                sample()
                task_failed(key, "timeout")

        for node in plan:  # seed: nodes with no root-producing children
            if waiting[node.label] == 0:
                start_node(node)

        while True:
            while completed:
                label = completed.pop()
                parent = parent_of.get(label)
                if parent is not None:
                    waiting[parent] -= 1
                    if waiting[parent] == 0:
                        start_node(by_label[parent])
            if done:
                break
            if budget is not None:
                partial_roots = [v for v in roots.get(root_label, ())
                                 if v is not None]
                budget.check(scaled=merge_sorted(base, partial_roots),
                             phase="executor.interval", mu=mu,
                             degree=root_degree)
            if inline_q:
                run_inline(inline_q.popleft())
                continue
            now = clock()
            expire(now)
            while retry_due and retry_due[0][0] <= now:
                _due, _seq, key = heapq.heappop(retry_due)
                dispatch(key)
            if inline_q or completed:
                continue
            if not live and not retry_due:
                raise _Degraded("scheduler stalled with no pending tasks")
            wake: list[float] = [dl for (_k, dl) in live.values()
                                 if dl is not None]
            if retry_due:
                wake.append(retry_due[0][0])
            wait = max(0.0, min(wake) - now) if wake else None
            try:
                tid, item = results_q.get(timeout=wait)
            except queue.Empty:
                continue  # deadlines/retries are re-examined at the top
            rec = live.pop(tid, None)
            sample()
            if rec is None:
                # Result of an abandoned (timed-out) attempt arriving
                # late: the logical task already moved on.  Discard.
                self.metrics.counter("executor.stale_results").inc()
                continue
            key, _dl = rec
            if isinstance(item, BaseException):
                self.metrics.counter("executor.worker_failures").inc()
                tracer.event("executor_task_error", task=key[0],
                             node=list(key[1]), index=key[2],
                             error=repr(item))
                task_failed(key, "error")
                continue
            pool_successes += 1
            breaker.record_success()
            if key in done_keys:
                self.metrics.counter("executor.stale_results").inc()
                continue
            deliver(item)

        if timeouts_this_call and pool_successes == 0:
            # Every pool interaction this call ended in a timeout: the
            # pool is likely wedged (e.g. a worker died holding the
            # shared queue lock).  Discard it so the next call starts
            # from a fresh pool instead of timing out again.
            tracer.event("executor_pool_suspect",
                         timeouts=timeouts_this_call)
            self._discard_pool()

        return roots[root_label]
