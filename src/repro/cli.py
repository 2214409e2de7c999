"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``roots`` — approximate all real roots of a polynomial given by its
  coefficients (low to high) or by ``--roots`` for a quick demo.
  ``--deadline-seconds`` / ``--bit-budget`` bound the run; on overrun
  the roots completed so far are reported (exit code 3, certifiable
  with ``--certify``) instead of nothing.
* ``eigvals`` — exact eigenvalues of a random symmetric 0-1 matrix (the
  paper's workload) or of a matrix read from a file.
* ``speedup`` — record the task DAG for one input and print the
  simulated speedup curve (paper Tables 3-7 style).
* ``report`` — per-phase cost report for one run (paper Section 5.1
  style tracing).
* ``batch`` — many polynomials through one persistent worker pool
  (:class:`repro.sched.executor.ParallelRootFinder.find_roots_many`),
  the service-style throughput path.  ``--checkpoint FILE`` streams
  completed results to a JSONL checkpoint as they finish; a rerun with
  the same file resumes the batch without re-solving
  (docs/RESILIENCE.md).
* ``fuzz`` — seeded differential fuzzing: adversarial inputs through
  every engine pair, bit-exact agreement asserted and every claim
  closed by the exact Sturm certificate (:mod:`repro.verify`).
* ``serve`` — the long-running multi-tenant daemon: one shared
  persistent worker pool behind a stdin-JSONL or HTTP JSON front-end,
  with a content-addressed result cache, per-request budgets, request
  priorities, and backpressure (:mod:`repro.serve`, docs/SERVING.md).
* ``loadtest`` — replay thousands of seeded mixed-degree requests
  against a live daemon, verify every answer bit-for-bit, and write a
  gateable ``BENCH_<name>.json`` with latency percentiles and
  throughput (:mod:`repro.serve.loadtest`).
* ``runs`` — list/show records of the append-only cross-run
  performance ledger (:mod:`repro.obs.ledger`); ``bench`` appends a
  record per run by default, ``roots``/``batch`` with ``--ledger``.
* ``diff`` — phase/histogram/worker-lane diff of two runs, each named
  by a ledger run-id prefix or a ``BENCH_*.json`` artifact path
  (:mod:`repro.obs.tracediff`).

``roots``, ``eigvals``, and ``speedup`` accept ``--trace out.jsonl``
(structured JSONL event log, see :mod:`repro.obs.events`) and
``--chrome-trace out.json`` (Chrome trace-event timeline, loadable in
Perfetto; real spans for ``roots``/``eigvals``, simulated
per-processor lanes for ``speedup``).  ``roots``/``bench``/``batch``
also accept ``--profile out.folded`` — an opt-in sampling profile in
collapsed-stack form (:mod:`repro.obs.profile`).  See
docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Sequence

from repro.core.rootfinder import RealRootFinder
from repro.core.scaling import digits_to_bits, scaled_to_json_float
from repro.costmodel.backend import (
    BACKEND_NAMES,
    BackendUnavailable,
    available_backends,
    counter_for,
    get_backend,
    resolve_backend,
)
from repro.costmodel.counter import CostCounter
from repro.poly.dense import IntPoly

__all__ = ["main", "build_parser"]


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise SystemExit(
            f"could not parse {what}: expected comma-separated integers, "
            f"got {text!r}"
        ) from None


def _poly_from_args(args: argparse.Namespace) -> IntPoly:
    if args.roots is not None:
        return IntPoly.from_roots(_parse_int_list(args.roots, "--roots"))
    if args.coeffs is not None:
        p = IntPoly(_parse_int_list(args.coeffs, "--coeffs"))
        if p.degree < 1:
            raise SystemExit("--coeffs must describe a nonconstant polynomial")
        return p
    raise SystemExit("provide --coeffs c0,c1,... or --roots r1,r2,...")


def _mu_bits(args: argparse.Namespace) -> int:
    if args.bits is not None:
        return args.bits
    return digits_to_bits(args.digits)


def _add_poly_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--coeffs", help="coefficients, low to high, comma-separated")
    sp.add_argument("--roots", help="integer roots to build a demo polynomial")
    sp.add_argument("--digits", type=int, default=15,
                    help="output precision in decimal digits (default 15)")
    sp.add_argument("--bits", type=int, default=None,
                    help="output precision in bits (overrides --digits)")


def _add_backend_arg(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--backend", choices=BACKEND_NAMES, default=None,
                    help="arithmetic backend (default: $REPRO_BACKEND or "
                         "python; 'auto' picks gmpy2 when installed — "
                         "see docs/BACKENDS.md)")


def _backend_from_args(args: argparse.Namespace):
    """The resolved :class:`ArithmeticBackend` for ``--backend`` /
    ``REPRO_BACKEND``, as a friendly exit on bad or unavailable names."""
    try:
        return resolve_backend(getattr(args, "backend", None))
    except BackendUnavailable as e:
        raise SystemExit(str(e)) from e


def _add_trace_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--trace", metavar="PATH",
                    help="write a structured JSONL event log of the run")
    sp.add_argument("--chrome-trace", metavar="PATH",
                    help="write a Chrome trace-event JSON (open in Perfetto)")


def _add_profile_arg(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--profile", metavar="PATH",
                    help="sample the run and write a collapsed-stack "
                         "profile (flamegraph.pl / speedscope input)")


def _write_profile(path: str, folded: dict) -> None:
    """Write one collapsed-stack profile, reporting on stderr."""
    from repro.obs.profile import write_collapsed

    try:
        write_collapsed(path, folded)
    except OSError as e:
        raise SystemExit(f"cannot write --profile file: {e}") from e
    print(f"profile: wrote {path} ({len(folded)} stacks, "
          f"{sum(folded.values())} samples)", file=sys.stderr)


def _ledger_append(record, tier: str = "local") -> None:
    """Append one run record to the ledger, reporting on stderr.

    Ledger trouble (read-only results dir, ...) must not fail the run
    that produced the answer, so failures are warnings.
    """
    from repro.obs.ledger import Ledger

    try:
        path = Ledger().append(record, tier=tier)
    except OSError as e:
        print(f"warning: could not append to run ledger: {e}",
              file=sys.stderr)
        return
    print(f"ledger: appended run {record.run_id} to {path}",
          file=sys.stderr)


def _run_record(command: str, params: dict, name: str = "",
                counter: CostCounter | None = None, tracer=None,
                registry=None):
    """A :class:`repro.obs.ledger.RunRecord` for a non-bench command.

    Folds whatever observability the run had: per-phase bit costs and
    walls from ``counter``, the parallel rollup from ``tracer``'s
    spans, reliability counters from ``registry``.
    """
    from repro.obs.ledger import RunRecord
    from repro.obs.rollup import parallel_rollup, phase_rollup

    rec = RunRecord(command=command, name=name, params=params)
    if counter is not None:
        rec.add_metric("bit_cost", counter.total_bit_cost)
        rec.add_metric("mul_count", counter.mul_count)
        rec.phases = phase_rollup([counter])
    if tracer is not None:
        rec.parallel = parallel_rollup(tracer.spans) or {}
    if registry is not None:
        from repro.obs.metrics import reliability_rollup

        rec.reliability = reliability_rollup(registry)
    return rec


class _TraceSession:
    """Owns the optional ``--trace`` / ``--chrome-trace`` outputs of a
    command: builds the counter+tracer when either flag is set, writes
    the files on :meth:`finish`."""

    def __init__(self, args: argparse.Namespace, command: str, **header):
        from repro.obs.events import EventLog
        from repro.obs.trace import Tracer

        self.trace_path = getattr(args, "trace", None)
        self.chrome_path = getattr(args, "chrome_trace", None)
        self.counter: CostCounter | None = None
        self.tracer = None
        self.log = None
        if self.trace_path or self.chrome_path:
            self.counter = counter_for(_backend_from_args(args))
            if self.trace_path:
                try:
                    self.log = EventLog(self.trace_path)
                except OSError as e:
                    raise SystemExit(
                        f"cannot write --trace file: {e}") from e
                self.log.run_header(command, **header)
            self.tracer = Tracer(counter=self.counter, sink=self.log)

    def finish(self, stats=None) -> None:
        """Write the run footer and the Chrome trace, close files."""
        if self.log is not None:
            self.log.run_end(counter=self.counter, stats=stats)
            self.log.close()
        if self.chrome_path and self.tracer is not None:
            from repro.obs.chrometrace import spans_to_chrome, write_chrome_trace

            try:
                write_chrome_trace(
                    self.chrome_path,
                    spans_to_chrome(
                        self.tracer.spans, counters=self.tracer.counters
                    ),
                )
            except OSError as e:
                raise SystemExit(
                    f"cannot write --chrome-trace file: {e}") from e


def _budget_from_args(args: argparse.Namespace):
    """A :class:`repro.resilience.budget.Budget` from the ``--deadline-
    seconds`` / ``--bit-budget`` flags, or ``None`` when neither is set."""
    deadline = getattr(args, "deadline_seconds", None)
    bit_budget = getattr(args, "bit_budget", None)
    if deadline is None and bit_budget is None:
        return None
    from repro.resilience import Budget

    try:
        return Budget(deadline_seconds=deadline, max_bit_ops=bit_budget)
    except ValueError as e:
        raise SystemExit(str(e)) from e


def _sweep_backend_names(spec: str, main: str) -> list[str]:
    """Resolve the ``repro bench --sweep-backends`` spec to backend names.

    ``auto`` is every available backend except the main one and the slow
    ``mpint`` validation tier; ``all`` keeps mpint; ``none`` disables the
    sweep; anything else is a comma-separated explicit list.
    """
    if spec == "none":
        return []
    if spec in ("auto", "all"):
        names = [b for b in available_backends() if b != main]
        if spec == "auto":
            names = [b for b in names if b != "mpint"]
        return names
    names = [x.strip() for x in spec.split(",") if x.strip()]
    for n in names:
        try:
            get_backend(n)
        except BackendUnavailable as e:
            raise SystemExit(f"--sweep-backends: {e}") from e
    return [n for n in names if n != main]


def cmd_roots(args: argparse.Namespace) -> int:
    from repro.resilience import BudgetExceeded

    p = _poly_from_args(args)
    mu = _mu_bits(args)
    backend = _backend_from_args(args)
    session = _TraceSession(args, "roots", degree=p.degree, mu_bits=mu,
                            strategy=args.strategy)
    counter = session.counter
    if args.ledger and counter is None:
        counter = counter_for(backend)  # the ledger entry needs real costs
    profiler = None
    if args.profile:
        from repro.obs.profile import SamplingProfiler

        profiler = SamplingProfiler().start()
    finder = RealRootFinder(mu_bits=mu, strategy=args.strategy,
                            counter=counter, tracer=session.tracer,
                            budget=_budget_from_args(args),
                            backend=backend)
    try:
        result = finder.find_roots(p)
    except BudgetExceeded as e:
        if profiler is not None:
            from repro.obs.profile import collapse

            profiler.stop()
            _write_profile(args.profile, collapse(profiler.drain()))
        session.finish()
        part = e.partial
        if args.json:
            print(json.dumps({
                "mu_bits": mu,
                "partial": True,
                "reason": e.reason,
                "phase": part.phase,
                "elapsed_seconds": part.elapsed_seconds,
                "bit_cost": part.bit_cost,
                "scaled": [str(s) for s in part.scaled],
                "floats": [scaled_to_json_float(s, part.mu)
                           for s in part.scaled],
            }))
        else:
            print(f"budget exceeded ({e.reason}) in phase {part.phase!r}: "
                  f"{len(part)} certified roots completed")
            for f in part.as_floats():
                print(f"  {f:+.{min(17, max(6, mu // 4))}f}")
        if args.certify and part.scaled:
            from repro.core.certify import certify_roots

            certify_roots(p, part.scaled, None, mu, partial=True)
            print("partial result certified exact.", file=sys.stderr)
        return 3
    if profiler is not None:
        from repro.obs.profile import collapse

        profiler.stop()
        _write_profile(args.profile, collapse(profiler.drain()))
    session.finish(stats=result.stats)
    if args.ledger:
        rec = _run_record(
            "roots", {"degree": p.degree, "mu_bits": mu,
                      "strategy": args.strategy, "backend": backend.name},
            counter=counter, tracer=session.tracer,
        )
        rec.add_metric("wall_seconds", result.elapsed_seconds, kind="wall")
        rec.add_metric("n_roots", len(result))
        _ledger_append(rec)
    if args.json:
        print(json.dumps({
            "mu_bits": mu,
            "scaled": [str(s) for s in result.scaled],
            "floats": [scaled_to_json_float(s, mu) for s in result.scaled],
            "multiplicities": result.multiplicities,
        }))
    else:
        print(f"{len(result)} distinct real roots (precision 2^-{mu}):")
        for f, m in zip(result.as_floats(), result.multiplicities):
            suffix = f"   (multiplicity {m})" if m > 1 else ""
            print(f"  {f:+.{min(17, max(6, mu // 4))}f}{suffix}")
    if args.certify:
        from repro.core.certify import certify_roots

        certify_roots(p, result.scaled, result.multiplicities, mu)
        print("certified exact.", file=sys.stderr)
    return 0


def cmd_eigvals(args: argparse.Namespace) -> int:
    from repro.charpoly.berkowitz import berkowitz_charpoly
    from repro.charpoly.generator import random_symmetric_01_matrix

    if args.matrix is not None:
        with open(args.matrix) as fh:
            mat = json.load(fh)
    else:
        mat = random_symmetric_01_matrix(args.n, args.seed)
    p = berkowitz_charpoly(mat)
    mu = _mu_bits(args)
    session = _TraceSession(args, "eigvals", degree=p.degree, mu_bits=mu)
    result = RealRootFinder(
        mu_bits=mu, counter=session.counter, tracer=session.tracer
    ).find_roots(p)
    session.finish(stats=result.stats)
    print(f"characteristic polynomial degree {p.degree}, "
          f"coefficients up to {p.max_coefficient_bits()} bits")
    for f, m in zip(result.as_floats(), result.multiplicities):
        suffix = f"   (multiplicity {m})" if m > 1 else ""
        print(f"  {f:+.15f}{suffix}")
    return 0


def cmd_speedup(args: argparse.Namespace) -> int:
    from repro.core.tasks import build_task_graph
    from repro.sched.simulator import simulate, speedup_curve

    p = _poly_from_args(args)
    mu = _mu_bits(args)
    counter = CostCounter()
    tg = build_task_graph(
        p, mu, counter, sequential_remainder=args.sequential_remainder
    )
    tg.graph.run_recorded(counter)
    procs = _parse_int_list(args.processors, "--processors")
    if any(p < 1 for p in procs):
        raise SystemExit("--processors must be positive integers")
    curve = speedup_curve(tg.graph, procs, queue_overhead=args.queue_overhead)
    stats = tg.graph.stats()
    print(f"{stats.n_tasks} tasks, T1/Tinf = "
          f"{stats.total_work / max(stats.critical_path, 1):.1f}")
    t1 = curve[1].makespan
    for pcount in sorted(curve):
        r = curve[pcount]
        print(f"  p={pcount:<3d} makespan={r.makespan:<14d} "
              f"speedup={t1 / r.makespan:6.2f}  util={r.utilization:5.1%}")

    if args.trace:
        from repro.obs.events import EventLog

        try:
            log_cm = EventLog(args.trace)
        except OSError as e:
            raise SystemExit(f"cannot write --trace file: {e}") from e
        with log_cm as log:
            log.run_header("speedup", degree=p.degree, mu_bits=mu,
                           n_tasks=stats.n_tasks,
                           total_work=stats.total_work,
                           critical_path=stats.critical_path,
                           queue_overhead=args.queue_overhead)
            for pcount in sorted(curve):
                r = curve[pcount]
                log.write({"ev": "schedule", "processors": pcount,
                           "makespan": r.makespan,
                           "speedup": t1 / r.makespan,
                           "utilization": r.utilization,
                           "busy": r.busy})
            log.write({"ev": "run_end"})
    if args.chrome_trace:
        from repro.obs.chrometrace import schedules_to_chrome, write_chrome_trace

        traced = {
            pcount: simulate(tg.graph, pcount,
                             queue_overhead=args.queue_overhead,
                             keep_trace=True)
            for pcount in sorted(curve)
        }
        try:
            write_chrome_trace(
                args.chrome_trace, schedules_to_chrome(traced, tg.graph.tasks)
            )
        except OSError as e:
            raise SystemExit(f"cannot write --chrome-trace file: {e}") from e
    return 0


def _print_parallel_rollup(rollup: dict) -> None:
    """Render a :func:`repro.obs.rollup.parallel_rollup` summary."""
    if not rollup:
        print("\nno worker spans captured (run degraded to sequential?)")
        return
    print(
        f"\nexecutor: {rollup['workers']} workers, makespan "
        f"{rollup['makespan_ns'] / 1e6:.2f}ms, work "
        f"{rollup['work_ns'] / 1e6:.2f}ms, speedup "
        f"{rollup['speedup']:.2f}, efficiency {rollup['efficiency']:.1%}, "
        f"idle tail {rollup['idle_tail_fraction']:.1%}"
    )
    for tr, w in sorted(rollup["per_worker"].items()):
        print(
            f"  worker-{tr}: {w['tasks']} tasks, busy "
            f"{w['busy_ns'] / 1e6:.2f}ms ({w['utilization']:5.1%}), "
            f"idle tail {w['idle_tail_ns'] / 1e6:.2f}ms"
        )


def cmd_report(args: argparse.Namespace) -> int:
    p = _poly_from_args(args)
    mu = _mu_bits(args)
    counter = CostCounter()
    if args.parallel:
        from repro.obs.metrics import reliability_rollup
        from repro.obs.rollup import parallel_rollup
        from repro.obs.trace import Tracer
        from repro.sched.executor import ParallelRootFinder

        tracer = Tracer(counter=counter)
        t0 = time.perf_counter()
        with ParallelRootFinder(mu=mu, processes=args.parallel,
                                counter=counter, tracer=tracer) as finder:
            scaled = finder.find_roots_scaled(p)
            elapsed = time.perf_counter() - t0
            fallbacks = finder.fallback_count
            reliability = reliability_rollup(finder.metrics)
        print(f"{len(scaled)} roots, wall {elapsed:.3f}s "
              f"(parent-side costs only; {fallbacks} fallbacks)")
        print(counter.report())
        _print_parallel_rollup(parallel_rollup(tracer.spans))
        fired = {k: v for k, v in reliability.items() if v}
        print("\nreliability: clean run (all executor counters zero)"
              if not fired else
              "\nreliability: " + ", ".join(
                  f"{k.removeprefix('executor.')}={v}"
                  for k, v in sorted(fired.items())))
        return 0
    result = RealRootFinder(mu_bits=mu, counter=counter).find_roots(p)
    print(f"{len(result)} roots, wall {result.elapsed_seconds:.3f}s")
    print(counter.report())
    st = result.stats
    print(
        f"\ninterval solver: {st.solves} solves, cases "
        f"1/2a/2b/2c = {st.case1}/{st.case2a}/{st.case2b}/{st.case2c}, "
        f"sieve/bisect/newton evals = "
        f"{st.sieve_evals}/{st.bisection_evals}/{st.newton_evals}"
    )
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.artifact import (
        add_parallel_rollup,
        add_sequential_metrics,
        artifact_path,
        bench_artifact,
    )
    from repro.bench.runner import run_sequential
    from repro.bench.workloads import square_free_characteristic_input
    from repro.obs.perf import (
        compare_artifacts,
        read_artifact,
        render_gate_report,
        write_artifact,
    )
    from repro.obs.rollup import parallel_rollup
    from repro.obs.trace import Tracer
    from repro.sched.executor import ParallelRootFinder

    degrees = _parse_int_list(args.degrees, "--degrees")
    if any(n < 2 for n in degrees):
        raise SystemExit("--degrees must be >= 2")
    backend = _backend_from_args(args)
    params = {"degrees": degrees, "mu_digits": args.digits,
              "seed": args.seed, "processes": args.processes,
              "backend": backend.name}
    session = _TraceSession(args, "bench", **params)
    artifact = bench_artifact(args.name, params)

    seq_profiler = None
    if args.profile and args.processes == 0:
        # No parallel stage to profile: sample the sequential loop.
        from repro.obs.profile import SamplingProfiler

        seq_profiler = SamplingProfiler().start()
    records = []
    for n in degrees:
        inp = square_free_characteristic_input(n, args.seed)
        rec = run_sequential(inp, args.digits, backend=backend.name)
        records.append(rec)
        print(f"  n={n:<3d} mu={args.digits}d: {rec.n_roots} roots, "
              f"bit cost {rec.total_bit_cost}, wall {rec.wall_seconds:.3f}s")
    add_sequential_metrics(artifact, records)
    if seq_profiler is not None:
        from repro.obs.profile import collapse

        seq_profiler.stop()
        _write_profile(args.profile, collapse(seq_profiler.drain()))

    # Backend sweep: the same pinned grid on every sweep backend.  The
    # charged counts and the roots must agree bit for bit with the main
    # backend — an exact gate, failed sweeps exit 1 — while the walls
    # land in the artifact as informational speedup evidence.
    main_wall = sum(r.wall_seconds for r in records)
    artifact.add_metric(f"backend.{backend.name}.bit_cost",
                        sum(r.total_bit_cost for r in records))
    artifact.add_metric(f"backend.{backend.name}.mul_count",
                        sum(r.total_mul_count for r in records))
    artifact.add_metric(f"backend.{backend.name}.wall_seconds", main_wall,
                        kind="wall")
    sweep = _sweep_backend_names(args.sweep_backends, backend.name)
    if not sweep and args.sweep_backends == "auto":
        print("backend sweep: no other fast backend available "
              "(install gmpy2, or pass --sweep-backends mpint)",
              file=sys.stderr)
    for alt in sweep:
        t0 = time.perf_counter()
        alt_records = [
            run_sequential(square_free_characteristic_input(n, args.seed),
                           args.digits, backend=alt)
            for n in degrees
        ]
        alt_wall = time.perf_counter() - t0
        for base, cand in zip(records, alt_records):
            if (cand.result.scaled != base.result.scaled
                    or cand.result.multiplicities
                    != base.result.multiplicities
                    or cand.total_bit_cost != base.total_bit_cost
                    or cand.total_mul_count != base.total_mul_count):
                print(f"backend sweep FAILED: backend {alt!r} disagrees "
                      f"with {backend.name!r} at n={base.degree}: "
                      f"bit cost {cand.total_bit_cost} vs "
                      f"{base.total_bit_cost}, mul count "
                      f"{cand.total_mul_count} vs {base.total_mul_count}",
                      file=sys.stderr)
                return 1
        artifact.add_metric(f"backend.{alt}.bit_cost",
                            sum(r.total_bit_cost for r in alt_records))
        artifact.add_metric(f"backend.{alt}.mul_count",
                            sum(r.total_mul_count for r in alt_records))
        artifact.add_metric(f"backend.{alt}.wall_seconds", alt_wall,
                            kind="wall")
        speedup = main_wall / alt_wall if alt_wall > 0 else 0.0
        artifact.add_metric(f"backend.{alt}.speedup", speedup, kind="wall")
        print(f"  backend {alt}: bit-exact vs {backend.name}, "
              f"wall {alt_wall:.3f}s (speedup {speedup:.2f}x)")

    registry = None
    if args.processes > 0:
        # Parallel telemetry stage: the largest pinned input through the
        # real executor, always traced so the utilization rollup and
        # the queue-depth/worker-busy counter lanes exist.
        counter = (session.counter if session.counter is not None
                   else counter_for(backend))
        tracer = session.tracer if session.tracer is not None else Tracer(
            counter=counter)
        inp = square_free_characteristic_input(max(degrees), args.seed)
        t0 = time.perf_counter()
        with ParallelRootFinder(mu=digits_to_bits(args.digits),
                                processes=args.processes, counter=counter,
                                tracer=tracer,
                                backend=backend.name) as finder:
            finder.find_roots_scaled(inp.poly)
            parallel_wall = time.perf_counter() - t0
            reg = registry = finder.metrics
            from repro.obs.metrics import reliability_rollup

            # The whole reliability vocabulary, zero-filled: the gate
            # compares the shared names against the baseline and reports
            # newly-added ones informationally.
            for name, value in reliability_rollup(reg).items():
                artifact.add_metric(name, value)
            artifact.histograms["executor.queue_depth.samples"] = (
                reg.histogram("executor.queue_depth.samples").as_dict()
            )
        artifact.add_metric("parallel.wall_seconds", parallel_wall,
                            kind="wall")
        rollup = parallel_rollup(tracer.spans)
        add_parallel_rollup(artifact, rollup)
        _print_parallel_rollup(rollup)

        if args.profile:
            # Profiled re-run of the same pinned stage on a fresh pool:
            # the wall delta against the unprofiled run above is the
            # profiler's measured overhead (informational, not gated).
            prof_counter = counter_for(backend)
            prof_tracer = Tracer(counter=prof_counter)
            t0 = time.perf_counter()
            with ParallelRootFinder(mu=digits_to_bits(args.digits),
                                    processes=args.processes,
                                    counter=prof_counter,
                                    tracer=prof_tracer,
                                    profile=True,
                                    backend=backend.name) as pfinder:
                pfinder.find_roots_scaled(inp.poly)
                profiled_wall = time.perf_counter() - t0
                folded = pfinder.profile_collapsed()
            overhead = ((profiled_wall - parallel_wall) / parallel_wall
                        if parallel_wall > 0 else 0.0)
            artifact.add_metric("profile.overhead_fraction", overhead,
                                kind="wall")
            print(f"profile: overhead {overhead:+.1%} "
                  f"({parallel_wall:.3f}s -> {profiled_wall:.3f}s)")
            _write_profile(args.profile, folded)

    out = args.out if args.out else artifact_path(args.name)
    try:
        write_artifact(out, artifact)
    except OSError as e:
        raise SystemExit(f"cannot write artifact: {e}") from e
    session.finish()
    print(f"\nwrote {out} ({len(artifact.metrics)} metrics, "
          f"{len(artifact.histograms)} histograms)")

    if args.ledger:
        from repro.obs.ledger import record_from_artifact

        _ledger_append(
            record_from_artifact(artifact, command="bench",
                                 registry=registry),
            tier=args.ledger_tier,
        )

    if args.check:
        try:
            baseline = read_artifact(args.check)
        except (OSError, ValueError, KeyError) as e:
            raise SystemExit(f"cannot read baseline {args.check}: {e}") from e
        diffs = compare_artifacts(baseline, artifact)
        print(f"\nregression gate vs {args.check}:")
        print(render_gate_report(baseline, artifact, diffs))
        if any(d.failed for d in diffs):
            return 1
    return 0


def _batch_polys(args: argparse.Namespace) -> list[IntPoly]:
    """Collect the batch inputs from ``--file`` / ``--coeff-sets`` /
    ``--roots-sets`` (any combination, in that order)."""
    polys: list[IntPoly] = []
    if args.file:
        try:
            fh = open(args.file)
        except OSError as e:
            raise SystemExit(f"cannot read --file: {e}") from e
        with fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError as e:
                    raise SystemExit(
                        f"{args.file}:{lineno}: not valid JSON: {e}"
                    ) from e
                coeffs = data.get("coeffs") if isinstance(data, dict) else data
                if not isinstance(coeffs, list):
                    raise SystemExit(
                        f"{args.file}:{lineno}: expected a coefficient array "
                        'or {"coeffs": [...]}'
                    )
                polys.append(IntPoly(int(c) for c in coeffs))
    if args.coeff_sets:
        for part in args.coeff_sets.split(";"):
            polys.append(IntPoly(_parse_int_list(part, "--coeff-sets")))
    if args.roots_sets:
        for part in args.roots_sets.split(";"):
            polys.append(
                IntPoly.from_roots(_parse_int_list(part, "--roots-sets"))
            )
    if not polys:
        raise SystemExit(
            "provide --file polys.jsonl, --coeff-sets, or --roots-sets"
        )
    return polys


def cmd_batch(args: argparse.Namespace) -> int:
    from repro.core.scaling import scaled_to_float
    from repro.sched.executor import ParallelRootFinder

    polys = _batch_polys(args)
    mu = _mu_bits(args)
    checkpoint = None
    if args.checkpoint:
        from repro.resilience import BatchCheckpoint, CheckpointMismatch

        try:
            checkpoint = BatchCheckpoint(args.checkpoint, mu, args.strategy)
        except (OSError, CheckpointMismatch) as e:
            raise SystemExit(f"cannot use --checkpoint: {e}") from e
        if args.fault_exit_after:
            # Hidden fault-injection hook (see BatchCheckpoint.kill_after):
            # the resume tests use it to die deterministically mid-batch.
            checkpoint.kill_after = args.fault_exit_after
    backend = _backend_from_args(args)
    session = _TraceSession(args, "batch", count=len(polys), mu_bits=mu,
                            processes=args.processes)
    kwargs = {}
    if session.tracer is not None:
        kwargs = {"counter": session.counter, "tracer": session.tracer}
    elif args.ledger:
        kwargs = {"counter": counter_for(backend)}
    t0 = time.perf_counter()
    with ParallelRootFinder(mu=mu, processes=args.processes,
                            strategy=args.strategy,
                            task_timeout=args.timeout,
                            profile=bool(args.profile),
                            backend=backend.name, **kwargs) as finder:
        try:
            results = finder.find_roots_many(polys, checkpoint=checkpoint)
        finally:
            if checkpoint is not None:
                checkpoint.close()
        elapsed = time.perf_counter() - t0
        fallbacks = finder.fallback_count
        if args.profile:
            _write_profile(args.profile, finder.profile_collapsed())
        if args.ledger:
            rec = _run_record(
                "batch", {"count": len(polys), "mu_bits": mu,
                          "processes": args.processes,
                          "strategy": args.strategy,
                          "backend": backend.name},
                counter=kwargs.get("counter"), tracer=session.tracer,
                registry=finder.metrics,
            )
            rec.add_metric("wall_seconds", elapsed, kind="wall")
            rec.add_metric("fallbacks", fallbacks)
            _ledger_append(rec)
    resumed = checkpoint.hits if checkpoint is not None else 0
    session.finish()
    if args.json:
        print(json.dumps({
            "mu_bits": mu,
            "count": len(polys),
            "processes": args.processes,
            "elapsed_seconds": elapsed,
            "fallbacks": fallbacks,
            "resumed": resumed,
            "results": [
                {"scaled": [str(s) for s in scaled],
                 "floats": [scaled_to_json_float(s, mu) for s in scaled]}
                for scaled in results
            ],
        }))
    else:
        resumed_note = (f", {resumed} resumed from checkpoint"
                        if checkpoint is not None else "")
        print(f"{len(polys)} polynomials on a pool of {args.processes} "
              f"processes: {elapsed:.3f}s total "
              f"({elapsed / len(polys):.3f}s/poly, "
              f"{fallbacks} sequential fallbacks{resumed_note})")
        for k, (p, scaled) in enumerate(zip(polys, results)):
            if scaled:
                vals = ", ".join(
                    f"{scaled_to_float(s, mu):+.6f}" for s in scaled
                )
            else:
                vals = "(no real roots reported)"
            print(f"  [{k}] degree {p.degree}: {vals}")
    return 0


def _load_slo_config(path: str | None):
    if not path:
        return None
    from repro.obs.slo import SLOConfig

    try:
        return SLOConfig.from_file(path)
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise SystemExit(f"cannot read SLO config {path}: {e}") from e


def _make_root_server(args: argparse.Namespace):
    from repro.serve.server import RootServer

    try:
        server = RootServer(
            mu=_mu_bits(args),
            processes=args.processes,
            strategy=args.strategy,
            backend=_backend_from_args(args).name,
            max_pending=args.max_pending,
            max_deadline_seconds=args.max_deadline_seconds,
            cache_bytes=args.cache_bytes,
            cache_dir=args.cache_dir,
            access_log=args.access_log,
            capture_dir=args.capture_dir,
            slow_threshold_ms=args.slow_threshold_ms,
            ring_size=args.ring_size,
            slo=_load_slo_config(args.slo_config),
            journal_path=args.journal,
            fsync_interval=args.fsync_interval,
        )
    except (ValueError, OSError) as e:
        raise SystemExit(str(e)) from e
    # Hidden fault-injection hooks (the chaos harness and the restart
    # tests; see docs/CHAOS.md).  All deterministic, all off by default.
    if getattr(args, "fault_kill_after", 0) and server.journal is not None:
        server.journal.kill_after_accepts = args.fault_kill_after
    if (getattr(args, "fault_journal_errors_after", 0)
            and server.journal is not None):
        server.journal.fail_writes_after = args.fault_journal_errors_after
    if getattr(args, "fault_worker_kill_at", None):
        from repro.verify.faults import FaultPlan

        server.finder.faults = FaultPlan(kill_at=frozenset(
            _parse_int_list(args.fault_worker_kill_at,
                            "--fault-worker-kill-at")))
    if getattr(args, "fault_task_timeout", None):
        server.finder.task_timeout = args.fault_task_timeout
    return server


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    if (args.http is None) == (not args.stdio):
        raise SystemExit("choose one front-end: --stdio or --http PORT")
    server = _make_root_server(args)
    try:
        if args.stdio:
            from repro.serve.stdio import serve_stdio

            return asyncio.run(serve_stdio(server, sys.stdin, sys.stdout))
        from repro.serve.http import serve_http

        return asyncio.run(serve_http(server, args.host, args.http))
    except KeyboardInterrupt:
        return 0


def cmd_loadtest(args: argparse.Namespace) -> int:
    import asyncio

    from repro.bench.artifact import artifact_path
    from repro.obs.perf import (
        compare_artifacts,
        read_artifact,
        render_gate_report,
        write_artifact,
    )
    from repro.serve.loadtest import (
        HttpClient,
        InprocessClient,
        StdioClient,
        build_artifact,
        expected_answers,
        generate_requests,
        run_loadtest,
    )

    # --bits has a real default here (16), so --digits wins when given.
    mu = args.bits if args.digits is None else digits_to_bits(args.digits)
    degrees = _parse_int_list(args.degrees, "--degrees")
    if any(d < 1 for d in degrees):
        raise SystemExit("--degrees must be >= 1")
    if not 0.0 <= args.duplicate_fraction < 1.0:
        raise SystemExit("--duplicate-fraction must be in [0, 1)")
    if args.requests < 1 or args.concurrency < 1:
        raise SystemExit("--requests and --concurrency must be >= 1")
    params = {
        "mode": args.mode, "requests": args.requests, "seed": args.seed,
        "degrees": degrees, "duplicate_fraction": args.duplicate_fraction,
        "mu_bits": mu, "processes": args.processes,
        "concurrency": args.concurrency,
    }
    requests = generate_requests(args.requests, args.seed, degrees,
                                 args.duplicate_fraction, mu)
    print(f"loadtest: {len(requests)} requests "
          f"({len({tuple(r['coeffs']) for r in requests})} unique), "
          f"computing ground truth...", file=sys.stderr)
    expected = expected_answers(requests)

    async def _run():
        if args.mode == "stdio":
            extra: list[str] = []
            if args.access_log:
                extra += ["--access-log", args.access_log]
            if args.capture_dir:
                extra += ["--capture-dir", args.capture_dir]
            if args.slow_threshold_ms is not None:
                extra += ["--slow-threshold-ms",
                          str(args.slow_threshold_ms)]
            if args.slo_config:
                extra += ["--slo-config", args.slo_config]
            client = StdioClient(mu, args.processes,
                                 max_pending=max(args.requests, 64),
                                 extra_args=extra)
        elif args.mode == "inprocess":
            client = InprocessClient(
                mu=mu, processes=args.processes,
                max_pending=max(args.requests, 64),
                access_log=args.access_log,
                capture_dir=args.capture_dir,
                slow_threshold_ms=(args.slow_threshold_ms
                                   if args.slow_threshold_ms is not None
                                   else 250.0),
                slo=_load_slo_config(args.slo_config),
            )
        elif args.mode == "http":
            if not args.url:
                raise SystemExit("--mode http needs --url host:port")
            host, _, port = args.url.rpartition(":")
            host = host.removeprefix("http://").strip("/") or "127.0.0.1"
            client = HttpClient(host, int(port))
        else:  # pragma: no cover - argparse choices guard this
            raise SystemExit(f"unknown mode {args.mode!r}")
        async with client:
            return await run_loadtest(client, requests, expected,
                                      concurrency=args.concurrency)

    report = asyncio.run(_run())
    print(report.summary())

    from repro.obs.slo import DEFAULT_SLO, evaluate_slo

    slo_config = _load_slo_config(args.slo_config) or DEFAULT_SLO
    artifact = build_artifact(args.name, params, report,
                              slo_config=slo_config)
    if report.samples:
        verdict = evaluate_slo(report.samples, slo_config)
        burns = "  ".join(
            f"{o['name']} burn {o['burn']:.2f}"
            for o in verdict["objectives"] if o["observed"] is not None
        )
        print(f"  SLO: {'ok' if verdict['ok'] else 'VIOLATED'}  {burns}")
    out = args.out if args.out else artifact_path(args.name)
    try:
        write_artifact(out, artifact)
    except OSError as e:
        raise SystemExit(f"cannot write artifact: {e}") from e
    print(f"wrote {out} ({len(artifact.metrics)} metrics)")

    failed = report.incorrect > 0 or report.errors > 0
    if failed:
        print("loadtest FAILED: "
              f"{report.incorrect} incorrect, {report.errors} errors",
              file=sys.stderr)
    if args.check:
        try:
            baseline = read_artifact(args.check)
        except (OSError, ValueError, KeyError) as e:
            raise SystemExit(f"cannot read baseline {args.check}: {e}") from e
        diffs = compare_artifacts(baseline, artifact)
        print(f"\nregression gate vs {args.check}:")
        print(render_gate_report(baseline, artifact, diffs))
        failed = failed or any(d.failed for d in diffs)
    return 1 if failed else 0


def cmd_chaos(args: argparse.Namespace) -> int:
    import json as _json
    import shutil
    import tempfile

    from repro.chaos import ChaosPlan, full_plan, run_campaign, smoke_plan

    if args.plan:
        try:
            with open(args.plan, encoding="utf-8") as fh:
                plan = ChaosPlan.from_dict(_json.load(fh))
        except (OSError, ValueError, KeyError, TypeError) as e:
            raise SystemExit(f"cannot read chaos plan {args.plan}: {e}") \
                from e
    elif args.smoke:
        plan = smoke_plan(args.seed)
    else:
        plan = full_plan(args.seed)

    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-chaos-")
    print(f"chaos: seed {plan.seed}, {len(plan.phases)} phases, "
          f"workdir {workdir}", file=sys.stderr)
    report = run_campaign(plan, workdir,
                          echo=lambda m: print(m, file=sys.stderr))
    print(report.summary())

    out = args.out or os.path.join(workdir, "chaos_report.json")
    try:
        with open(out, "w", encoding="utf-8") as fh:
            _json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
    except OSError as e:
        raise SystemExit(f"cannot write chaos report: {e}") from e
    print(f"wrote {out}")

    # Keep the evidence (journal, cache, daemon stderr) on failure or
    # on request; tidy up an anonymous workdir after a clean pass.
    if report.ok and not args.keep and not args.workdir:
        shutil.rmtree(workdir, ignore_errors=True)
    elif not report.ok:
        print(f"chaos FAILED: evidence kept in {workdir}",
              file=sys.stderr)
    return 0 if report.ok else 1


def cmd_tail(args: argparse.Namespace) -> int:
    from repro.serve.reqtrace import (
        FAILURE_STATUSES,
        format_tail_table,
        rank_timelines,
        read_access_log,
    )

    if not os.path.exists(args.path) and not os.path.exists(
            args.path + ".1"):
        raise SystemExit(f"no access log at {args.path}")
    records = [r for r in read_access_log(args.path)
               if isinstance(r.get("request_id"), (str, int))]
    if args.json:
        for r in rank_timelines(records)[:args.limit]:
            print(json.dumps(r, separators=(",", ":")))
        return 0
    print(format_tail_table(records, limit=args.limit))
    failures = sum(1 for r in records if r.get("status") in FAILURE_STATUSES)
    print(f"\n{len(records)} requests, {failures} failures "
          f"({args.path})")
    return 0


def _rec_summary_value(rec, names: tuple[str, ...]):
    for name in names:
        if name in rec.metrics:
            return rec.metrics[name]["value"]
    return None


def cmd_runs(args: argparse.Namespace) -> int:
    from repro.obs.ledger import Ledger

    led = Ledger()
    if args.action == "show":
        try:
            rec = led.get(args.run_id, tier=args.tier)
        except (KeyError, ValueError) as e:
            raise SystemExit(str(e)) from e
        print(json.dumps(rec.to_dict(), indent=2, sort_keys=True))
        return 0
    recs = led.query(command=args.filter_command, name=args.filter_name,
                     tier=args.tier, limit=args.limit)
    if args.json:
        print(json.dumps([r.to_dict() for r in recs]))
        return 0
    if not recs:
        print("no ledger records (run `repro bench` or use --ledger)")
        return 0
    print(f"{'run id':<26} {'command':<8} {'name':<10} "
          f"{'when (UTC)':<20} {'bit cost':>14} {'wall s':>8}")
    print("-" * 92)
    for r in recs:
        when = time.strftime("%Y-%m-%d %H:%M:%S",
                             time.gmtime(r.time_unix))
        cost = _rec_summary_value(r, ("bit_cost",))
        wall = _rec_summary_value(r, ("wall_seconds",))
        print(f"{r.run_id:<26} {r.command:<8} {r.name or '-':<10} "
              f"{when:<20} "
              f"{cost if cost is not None else '-':>14} "
              f"{f'{wall:.3f}' if wall is not None else '-':>8}")
    return 0


def _load_run_ref(ref: str):
    """Resolve a ``repro diff`` operand: an artifact path or a ledger
    run-id prefix."""
    import os

    if os.path.exists(ref):
        from repro.obs.perf import read_artifact

        try:
            return read_artifact(ref)
        except (OSError, ValueError, KeyError) as e:
            raise SystemExit(f"cannot read artifact {ref}: {e}") from e
    from repro.obs.ledger import Ledger

    try:
        return Ledger().get(ref)
    except (KeyError, ValueError) as e:
        raise SystemExit(str(e)) from e


def cmd_diff(args: argparse.Namespace) -> int:
    from repro.obs.tracediff import diff_runs

    a = _load_run_ref(args.run_a)
    b = _load_run_ref(args.run_b)
    td = diff_runs(a, b)
    if args.json:
        print(json.dumps(td.to_dict(), sort_keys=True))
    else:
        print(td.format_table())
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.verify.fuzz import run_fuzz

    engines = None
    if args.engines:
        engines = tuple(x.strip() for x in args.engines.split(",") if x.strip())
    families = None
    if args.families:
        families = [x.strip() for x in args.families.split(",") if x.strip()]
    if args.budget < 1:
        raise SystemExit("--budget must be >= 1")
    backend = _backend_from_args(args)
    try:
        report = run_fuzz(
            args.seed, args.budget,
            engine_names=engines,
            families=families,
            processes=args.processes,
            backend=backend.name,
            refine=not args.no_refine,
            shrink=not args.no_shrink,
            corpus_dir=args.corpus_dir,
            log_path=args.log,
            stop_after=args.stop_after if args.stop_after > 0 else None,
        )
    except ValueError as e:  # unknown engine/family names
        raise SystemExit(str(e)) from e
    print(report.summary())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    ap = argparse.ArgumentParser(
        prog="repro",
        description="Parallel real-root finding (Narendran & Tiwari 1992)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("roots", help="approximate all real roots")
    _add_poly_args(sp)
    sp.add_argument("--strategy", choices=("hybrid", "bisection", "newton"),
                    default="hybrid")
    sp.add_argument("--certify", action="store_true",
                    help="prove the answer with exact Sturm counts")
    sp.add_argument("--deadline-seconds", type=float, default=None,
                    metavar="S",
                    help="wall-clock budget: report the roots completed "
                         "so far (exit 3) instead of running past S seconds")
    sp.add_argument("--bit-budget", type=int, default=None, metavar="OPS",
                    help="bit-operation budget (counted model cost); "
                         "partial results as with --deadline-seconds")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--ledger", action="store_true",
                    help="append this run to the local run ledger "
                         "(see `repro runs`)")
    _add_backend_arg(sp)
    _add_trace_args(sp)
    _add_profile_arg(sp)
    sp.set_defaults(func=cmd_roots)

    sp = sub.add_parser("eigvals", help="exact symmetric-matrix eigenvalues")
    sp.add_argument("--n", type=int, default=12)
    sp.add_argument("--seed", type=int, default=11)
    sp.add_argument("--matrix", help="JSON file with an integer matrix")
    sp.add_argument("--digits", type=int, default=15)
    sp.add_argument("--bits", type=int, default=None)
    _add_trace_args(sp)
    sp.set_defaults(func=cmd_eigvals)

    sp = sub.add_parser("speedup", help="simulated multiprocessor speedups")
    _add_poly_args(sp)
    sp.add_argument("--processors", default="1,2,4,8,16")
    sp.add_argument("--queue-overhead", type=int, default=0,
                    help="serialized task-queue acquisition cost (bit ops)")
    sp.add_argument("--sequential-remainder", action="store_true")
    _add_trace_args(sp)
    sp.set_defaults(func=cmd_speedup)

    sp = sub.add_parser("report", help="per-phase cost report")
    _add_poly_args(sp)
    sp.add_argument("--parallel", type=int, default=0, metavar="N",
                    help="run on a real N-process pool and report the "
                         "utilization/parallel-efficiency rollup")
    sp.set_defaults(func=cmd_report)

    sp = sub.add_parser(
        "bench",
        help="pinned benchmark run -> BENCH_<name>.json artifact "
             "(with an optional regression gate)",
    )
    sp.add_argument("--name", default="smoke",
                    help="artifact name (default smoke)")
    sp.add_argument("--degrees", default="10,15,20,25",
                    help="comma-separated degree grid (default 10,15,20,25)")
    sp.add_argument("--digits", type=int, default=8,
                    help="output precision in decimal digits (default 8)")
    sp.add_argument("--seed", type=int, default=11,
                    help="workload seed (default 11, the paper's)")
    sp.add_argument("--processes", type=int, default=2,
                    help="pool size for the parallel telemetry stage "
                         "(0 disables it; default 2)")
    sp.add_argument("--out", metavar="PATH",
                    help="artifact path (default "
                         "benchmarks/results/BENCH_<name>.json)")
    sp.add_argument("--check", metavar="BASELINE",
                    help="compare against a baseline artifact; exit 1 when "
                         "a gated metric leaves its tolerance band "
                         "(failures are phase-attributed via the trace diff)")
    sp.add_argument("--ledger", action=argparse.BooleanOptionalAction,
                    default=True,
                    help="append the run to the run ledger (default on; "
                         "--no-ledger disables)")
    sp.add_argument("--ledger-tier", choices=("local", "committed"),
                    default="local",
                    help="ledger tier to append to (default local; "
                         "'committed' curates a trajectory point into git)")
    sp.add_argument("--sweep-backends", default="auto", metavar="LIST",
                    help="re-run the sequential grid on these backends and "
                         "gate the charged counts bit-exactly against the "
                         "main backend: a comma list, 'all', 'none', or "
                         "'auto' (every available backend except the slow "
                         "mpint validation tier; default)")
    _add_backend_arg(sp)
    _add_trace_args(sp)
    _add_profile_arg(sp)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser(
        "batch", help="many polynomials through one persistent worker pool"
    )
    sp.add_argument("--file", metavar="PATH",
                    help="JSONL input: each line a coefficient array "
                         '(low to high) or {"coeffs": [...]}')
    sp.add_argument("--coeff-sets",
                    help="semicolon-separated coefficient lists, "
                         "e.g. '-2,0,1;-6,1,1'")
    sp.add_argument("--roots-sets",
                    help="semicolon-separated integer root lists "
                         "for demo polynomials, e.g. '-3,0,2;1,4'")
    sp.add_argument("--digits", type=int, default=15,
                    help="output precision in decimal digits (default 15)")
    sp.add_argument("--bits", type=int, default=None,
                    help="output precision in bits (overrides --digits)")
    sp.add_argument("--processes", type=int, default=2,
                    help="worker-pool size (default 2)")
    sp.add_argument("--strategy", choices=("hybrid", "bisection", "newton"),
                    default="hybrid")
    sp.add_argument("--timeout", type=float, default=None,
                    help="seconds to wait per task before retrying it "
                         "elsewhere")
    sp.add_argument("--checkpoint", metavar="PATH",
                    help="streaming JSONL checkpoint: completed results "
                         "are appended as they finish, and a rerun with "
                         "the same file resumes without re-solving")
    sp.add_argument("--fault-exit-after", type=int, default=0,
                    help=argparse.SUPPRESS)  # test hook: SIGKILL mid-batch
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--ledger", action="store_true",
                    help="append this run to the local run ledger "
                         "(see `repro runs`)")
    _add_backend_arg(sp)
    _add_trace_args(sp)
    _add_profile_arg(sp)
    sp.set_defaults(func=cmd_batch)

    sp = sub.add_parser(
        "runs", help="query the append-only cross-run performance ledger"
    )
    runs_sub = sp.add_subparsers(dest="action", required=True)
    lp = runs_sub.add_parser("list", help="list ledger records, newest first")
    lp.add_argument("--command", dest="filter_command", metavar="CMD",
                    help="only records of this command (roots/bench/batch)")
    lp.add_argument("--name", dest="filter_name", metavar="NAME",
                    help="only records with this bench name")
    lp.add_argument("--limit", type=int, default=20,
                    help="most recent N records (default 20)")
    lp.add_argument("--tier", choices=("all", "local", "committed"),
                    default="all")
    lp.add_argument("--json", action="store_true",
                    help="full records as a JSON array")
    lp.set_defaults(func=cmd_runs)
    gp = runs_sub.add_parser("show", help="dump one record as JSON")
    gp.add_argument("run_id", help="run id (unique prefixes allowed)")
    gp.add_argument("--tier", choices=("all", "local", "committed"),
                    default="all")
    gp.set_defaults(func=cmd_runs)

    sp = sub.add_parser(
        "diff",
        help="phase/histogram/worker-lane diff of two runs (ledger run "
             "ids or BENCH_*.json artifact paths)",
    )
    sp.add_argument("run_a", help="baseline: run-id prefix or artifact path")
    sp.add_argument("run_b", help="candidate: run-id prefix or artifact path")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_diff)

    sp = sub.add_parser(
        "fuzz",
        help="differential fuzzing: every engine must agree bit for bit, "
             "every claim certified by exact Sturm counts",
    )
    sp.add_argument("--seed", type=int, default=11,
                    help="campaign seed (default 11)")
    sp.add_argument("--budget", type=int, default=100,
                    help="number of generated cases (default 100)")
    sp.add_argument("--engines",
                    help="comma-separated engine subset, e.g. "
                         "'hybrid,newton,sturm' (default: all, including "
                         "the process-pool engine)")
    sp.add_argument("--families",
                    help="comma-separated generator-family subset, e.g. "
                         "'cluster,repeated' (default: all)")
    sp.add_argument("--processes", type=int, default=2,
                    help="pool size for the parallel engine (default 2)")
    sp.add_argument("--stop-after", type=int, default=1, metavar="N",
                    help="stop after N failing cases (0 = run the whole "
                         "budget regardless; default 1)")
    sp.add_argument("--no-refine", action="store_true",
                    help="skip the refine_result round-trip checks")
    sp.add_argument("--no-shrink", action="store_true",
                    help="report findings unminimized")
    sp.add_argument("--corpus-dir", metavar="DIR",
                    help="write shrunk failing cases as corpus JSON here "
                         "(e.g. tests/corpus)")
    sp.add_argument("--log", metavar="PATH",
                    help="write a structured JSONL findings log")
    _add_backend_arg(sp)
    sp.set_defaults(func=cmd_fuzz)

    sp = sub.add_parser(
        "serve",
        help="multi-tenant root-finding daemon over one persistent pool "
             "(stdin-JSONL or HTTP JSON; see docs/SERVING.md)",
    )
    front = sp.add_mutually_exclusive_group(required=True)
    front.add_argument("--stdio", action="store_true",
                       help="serve JSON Lines on stdin/stdout")
    front.add_argument("--http", type=int, default=None, metavar="PORT",
                       help="serve HTTP on PORT (0 picks a free port)")
    sp.add_argument("--host", default="127.0.0.1",
                    help="bind address for --http (default 127.0.0.1)")
    sp.add_argument("--digits", type=int, default=15,
                    help="default output precision in decimal digits "
                         "(requests may override with \"bits\")")
    sp.add_argument("--bits", type=int, default=None,
                    help="default output precision in bits")
    sp.add_argument("--processes", type=int, default=2,
                    help="worker-pool size (default 2)")
    sp.add_argument("--strategy", choices=("hybrid", "bisection", "newton"),
                    default="hybrid",
                    help="default interval-solver strategy")
    sp.add_argument("--max-pending", type=int, default=64,
                    help="admission threshold: shed new requests with a "
                         "429-style reply when queue depth reaches this "
                         "(default 64)")
    sp.add_argument("--max-deadline-seconds", type=float, default=None,
                    metavar="S",
                    help="fairness cap on every request's deadline (also "
                         "assigned to requests without one)")
    sp.add_argument("--cache-bytes", type=int, default=None,
                    help="in-memory result-cache budget in bytes "
                         "(default 64 MiB)")
    sp.add_argument("--cache-dir", metavar="DIR", default=None,
                    help="persistent result-cache directory (default: "
                         "$REPRO_CACHE_DIR if set, else memory-only)")
    sp.add_argument("--access-log", metavar="PATH", default=None,
                    help="JSONL per-request timeline log (size-rotated, "
                         "fsynced on shutdown; read with `repro tail`)")
    sp.add_argument("--capture-dir", metavar="DIR", default=None,
                    help="tail-capture directory: slow/shed/error/partial "
                         "requests get a Chrome trace written here")
    sp.add_argument("--slow-threshold-ms", type=float, default=250.0,
                    metavar="MS",
                    help="latency beyond which a request counts as slow "
                         "for tail capture (default 250)")
    sp.add_argument("--ring-size", type=int, default=512,
                    help="in-memory timeline ring size — the SLO window's "
                         "sample bound (default 512)")
    sp.add_argument("--slo-config", metavar="PATH", default=None,
                    help="JSON SLO objectives file (default: built-in "
                         "p99<5s / error-rate<5%% over 5 min)")
    sp.add_argument("--journal", metavar="PATH", default=None,
                    help="durable request journal (WAL): accepted "
                         "requests are recorded before they are "
                         "enqueued, and a restart replays the "
                         "incomplete ones through the result cache "
                         "(see docs/CHAOS.md)")
    sp.add_argument("--fsync-interval", type=int, default=32, metavar="N",
                    help="fsync the journal and access log every N "
                         "lines — a SIGKILL loses at most N records "
                         "per file (default 32; 1 = every line)")
    # test/chaos hooks: die after the Nth journal accept, fail journal
    # writes after N records, SIGKILL pool workers at dispatch indices,
    # and bound each pool task (so injected kills resolve promptly).
    sp.add_argument("--fault-kill-after", type=int, default=0,
                    help=argparse.SUPPRESS)
    sp.add_argument("--fault-journal-errors-after", type=int, default=0,
                    help=argparse.SUPPRESS)
    sp.add_argument("--fault-worker-kill-at", default=None,
                    help=argparse.SUPPRESS)
    sp.add_argument("--fault-task-timeout", type=float, default=None,
                    help=argparse.SUPPRESS)
    _add_backend_arg(sp)
    sp.set_defaults(func=cmd_serve)

    sp = sub.add_parser(
        "loadtest",
        help="replay seeded mixed-degree traffic against a live daemon, "
             "verify bit-for-bit, write a gateable BENCH artifact",
    )
    sp.add_argument("--mode", choices=("stdio", "inprocess", "http"),
                    default="stdio",
                    help="transport: spawn a live `repro serve --stdio` "
                         "subprocess (default), drive the server "
                         "in-process, or POST to --url")
    sp.add_argument("--url", metavar="HOST:PORT",
                    help="target for --mode http")
    sp.add_argument("--requests", type=int, default=1000,
                    help="number of requests to replay (default 1000)")
    sp.add_argument("--seed", type=int, default=11,
                    help="request-stream seed (default 11)")
    sp.add_argument("--degrees", default="2,3,4,5,6,8",
                    help="degree mix, comma-separated (default 2,3,4,5,6,8)")
    sp.add_argument("--duplicate-fraction", type=float, default=0.3,
                    help="fraction of requests repeating an earlier "
                         "polynomial (default 0.3)")
    sp.add_argument("--digits", type=int, default=None,
                    help="output precision in decimal digits")
    sp.add_argument("--bits", type=int, default=16,
                    help="output precision in bits (default 16)")
    sp.add_argument("--processes", type=int, default=2,
                    help="daemon worker-pool size (default 2)")
    sp.add_argument("--concurrency", type=int, default=32,
                    help="max in-flight client requests (default 32)")
    sp.add_argument("--name", default="serve",
                    help="artifact name (default serve)")
    sp.add_argument("--out", metavar="PATH",
                    help="artifact path (default "
                         "benchmarks/results/BENCH_<name>.json)")
    sp.add_argument("--check", metavar="BASELINE",
                    help="compare against a baseline artifact; exit 1 when "
                         "a gated metric leaves its tolerance band")
    sp.add_argument("--access-log", metavar="PATH", default=None,
                    help="forward to the daemon: write per-request "
                         "timelines here (stdio/inprocess modes)")
    sp.add_argument("--capture-dir", metavar="DIR", default=None,
                    help="forward to the daemon: tail-capture Chrome "
                         "traces here (stdio/inprocess modes)")
    sp.add_argument("--slow-threshold-ms", type=float, default=None,
                    metavar="MS",
                    help="forward to the daemon: tail-capture slow "
                         "threshold")
    sp.add_argument("--slo-config", metavar="PATH", default=None,
                    help="JSON SLO objectives for the verdict folded "
                         "into the artifact (default: built-in)")
    sp.set_defaults(func=cmd_loadtest)

    sp = sub.add_parser(
        "chaos",
        help="seeded fault-injection campaign against a live daemon: "
             "kills, corruption, full disks, hostile clients — exit 1 "
             "on any recovery-invariant violation (docs/CHAOS.md)",
    )
    sp.add_argument("--smoke", action="store_true",
                    help="run the small pinned CI schedule instead of "
                         "the full campaign")
    sp.add_argument("--seed", type=int, default=11,
                    help="campaign seed (default 11)")
    sp.add_argument("--plan", metavar="PATH",
                    help="JSON chaos plan file (overrides --smoke/--seed "
                         "schedule selection)")
    sp.add_argument("--workdir", metavar="DIR", default=None,
                    help="campaign state directory — journal, cache, "
                         "access log, daemon stderr (default: a fresh "
                         "temp dir, removed after a clean pass)")
    sp.add_argument("--out", metavar="PATH", default=None,
                    help="campaign report path (default "
                         "<workdir>/chaos_report.json)")
    sp.add_argument("--keep", action="store_true",
                    help="keep the workdir even when the campaign passes")
    sp.set_defaults(func=cmd_chaos)

    sp = sub.add_parser(
        "tail",
        help="failures-first table of the slowest/shed/partial requests "
             "from a daemon access log (see docs/SERVING.md)",
    )
    sp.add_argument("path", metavar="ACCESS_LOG",
                    help="JSONL access log (or ring dump) written by "
                         "`repro serve --access-log`")
    sp.add_argument("--limit", type=int, default=20,
                    help="rows to show (default 20)")
    sp.add_argument("--json", action="store_true",
                    help="emit ranked timelines as JSONL instead of a "
                         "table")
    sp.set_defaults(func=cmd_tail)

    return ap


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
