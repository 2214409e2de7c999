"""The in-process engines, run as their own program.

``run.py`` starts this script once per set-up it measures.  Set-up is
everything from process start to the ``ready`` frame: importing the
package, building a ``ParallelRootFinder(processes=2)``, spawning its
pool and one warm-up solve (degree 24, outside every workload) that
sends tasks to both workers.  The harness then sends one job and gets
the timings and every answer back; it checks the answers itself.

Frames are pickles on stdin/stdout, written and read only by this
benchmark.  Nothing else may print to stdout.
"""

from __future__ import annotations

import os
import pickle
import sys
import time


def send(fh, obj) -> None:
    pickle.dump(obj, fh, protocol=pickle.HIGHEST_PROTOCOL)
    fh.flush()


def recv(fh):
    return pickle.load(fh)


def solve_pass(finder, polys, seq_for, probes=None) -> list[dict]:
    """One pass: every instance by the sequential finder, then by the
    warm pool, back to back, so host drift hits both engines alike."""
    rows = []
    for i, (p, mu) in enumerate(polys):
        seq = seq_for(mu)
        if probes is not None:
            probes.engine = "seq"
        t0 = time.perf_counter()
        res = seq.find_roots(p)
        t_seq = time.perf_counter() - t0
        row = {"seq_s": t_seq, "seq": res.scaled, "mult": res.multiplicities}
        if probes is not None:
            row["stats"] = res.stats
            probes.engine = "pool"
            probes.pool.solve = i
        finder.mu = mu
        t0 = time.perf_counter()
        try:
            row["pool"], row["error"] = finder.find_roots_scaled(p), None
        except Exception as exc:  # a raising solve is a failed operation
            row["pool"] = None
            row["error"] = f"{type(exc).__name__}: {exc}"[:300]
        row["pool_s"] = time.perf_counter() - t0
        rows.append(row)
    return rows


def run_job(finder, job) -> dict:
    """Untimed-pass loop: at least ``min_passes``, then more while the
    next pass is expected to end within ``budget_s``."""
    from repro.core.rootfinder import RealRootFinder
    from repro.poly.dense import IntPoly

    polys = [(IntPoly(c), mu) for c, mu in job["instances"]]
    passes = []
    t_start = time.perf_counter()
    while len(passes) < job["max_passes"]:
        passes.append(solve_pass(finder, polys,
                                 lambda mu: RealRootFinder(mu_bits=mu)))
        n = len(passes)
        elapsed = time.perf_counter() - t_start
        if n >= job["min_passes"] and elapsed + elapsed / n > job["budget_s"]:
            break
    out = {"passes": passes}
    if job["trace"]:
        out["traced"] = traced_pass(finder, polys)
    return out


def traced_pass(finder, polys) -> dict:
    """One more pass with every layer probe installed and a real
    ``CostCounter`` in the sequential finder, for exact counts."""
    from probes import LayerProbes
    from repro.core.rootfinder import RealRootFinder
    from repro.costmodel.counter import CostCounter

    counter = CostCounter()
    names = ("executor.retries", "executor.inline_tasks",
             "executor.fallbacks")
    before = {n: finder.metrics.counter(n).value for n in names}
    with LayerProbes(finder) as probes:
        rows = solve_pass(
            finder, polys,
            lambda mu: RealRootFinder(mu_bits=mu, counter=counter), probes)
    ok = [i for i, r in enumerate(rows) if r["error"] is None]
    pool = probes.pool
    phases = {}
    for name in ("remainder", "tree", "interval.sieve",
                 "interval.bisection", "interval.newton"):
        st = counter.phase_stats(name)
        phases[name] = (st.mul_count, st.total_bit_cost)
    return {
        "rows": rows,
        "ms": dict(probes.ms),
        "phases": phases,
        # Only solves that completed: a raising solve stops dispatching
        # at a point that depends on task completion order.
        "pool_tasks": sum(pool.tasks[i] for i in ok),
        "pool_ipc_bytes": sum(pool.bytes_out[i] + pool.bytes_in[i]
                              for i in ok),
        "pool_busy_ms": pool.busy_ns / 1e6,
        "processes": finder.processes,
        "executor": {n: finder.metrics.counter(n).value - before[n]
                     for n in names},
    }


def main() -> int:
    stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
    from repro.bench.workloads import random_real_rooted
    from repro.core.rootfinder import RealRootFinder
    from repro.sched.executor import ParallelRootFinder

    warm = random_real_rooted(24, 0)
    finder = ParallelRootFinder(mu=64, processes=2)
    try:
        finder.find_roots_scaled(warm)
        RealRootFinder(mu_bits=64).find_roots(warm)
        send(stdout, {"ready": True, "pid": os.getpid()})
        job = recv(stdin)
        if job.get("op") == "run":
            send(stdout, run_job(finder, job))
            recv(stdin)  # the harness reads peak RSS, then says quit
    finally:
        finder.close()
    return 0


if __name__ == "__main__":
    # Spawned pool workers re-import this file as __mp_main__; only
    # the real process runs main().
    sys.exit(main())
