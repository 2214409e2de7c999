#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(every end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``,
every per-layer metric with ``--trace 1``).  ``--repeat N`` runs the
workload N times with the same seed and prints each metric's median
and quartiles instead, exiting 1 if a count metric differs between
runs.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile

from common import ROOT, SRC, kill_descendants, median, percentile

WORKLOADS = ("paper-grid", "refine-deep", "serve-small")
#: Set-ups measured per run; ``setup_s`` is their median.
SETUPS = 3
#: Solver passes per run: at least this many, more while they fit.
MIN_PASSES, MAX_PASSES = 2, 5
#: Requests per serve phase per second of ``--seconds``.
REQUESTS_PER_SECOND = 50
#: Each serve phase is played in this many chunks, alternating phases.
SERVE_CHUNKS = 4
THROUGHPUT_IN_FLIGHT, LATENCY_IN_FLIGHT = 32, 1
#: Share of ``--seconds`` for serve-small's in-process engines.
SERVE_ENGINE_SHARE = 0.3
#: A run that has not finished after this many seconds stops every
#: process it started and exits 3 without a result.
WATCHDOG_S = 170
#: Count metrics that must repeat exactly between runs of one seed.
EXACT = ("remainder.muls", "remainder.bit_cost", "tree.muls",
         "tree.bit_cost", "interval.evals", "sieve.evals",
         "bisection.evals", "newton.evals", "sieve.bit_cost",
         "bisection.bit_cost", "newton.bit_cost", "pool.tasks",
         "cache.hits")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- in-process engines -------------------------------------------------------

def charged_pool_s(row: dict) -> float:
    """A raising pool solve is charged its time to failure plus the
    sequential solve the caller falls back to (measured back to back in
    the same pass)."""
    return row["pool_s"] + (row["seq_s"] if row["error"] else 0.0)


def instance_medians(passes: list[list[dict]]) -> tuple[list, list]:
    n = len(passes[0])
    seq = [median([p[i]["seq_s"] for p in passes]) for i in range(n)]
    pool = [median([charged_pool_s(p[i]) for p in passes]) for i in range(n)]
    return seq, pool


def run_engines(instances, refs_for, tally, *, budget_s, min_passes,
                max_passes, trace, setups, corrupt) -> dict:
    """Set up the solver process, run the passes and check every
    answer.  ``refs_for(rows)`` gives the reference answers."""
    from engines import start_solver
    from workloads import check_rows

    solver, setup_times = start_solver(setups)
    try:
        result, rss = solver.run([(i.coeffs, i.mu) for i in instances],
                                 budget_s=budget_s, min_passes=min_passes,
                                 max_passes=max_passes, trace=trace)
    finally:
        solver.close()
    passes = result["passes"]
    if corrupt:
        row = next(r for r in passes[-1] if r["pool"])
        row["pool"] = [row["pool"][0] + 1] + row["pool"][1:]
    refs = refs_for(passes[0])
    for rows in passes:
        check_rows(instances, rows, refs, tally)
    if trace:
        check_rows(instances, result["traced"]["rows"], refs, tally)
    seq, pool = instance_medians(passes)
    return {"seq": seq, "pool": pool, "setup": setup_times, "rss": rss,
            "passes": len(passes), "refs": refs,
            "traced": result.get("traced")}


def engine_layers(eng: dict) -> dict[str, float]:
    """Per-layer metrics of the traced pass (core.* and sched.executor)."""
    tr = eng["traced"]
    ms = tr["ms"]
    rows = tr["rows"]
    stats = [r["stats"] for r in rows]
    evals = sum(s.evaluations for s in stats)
    interval_ms = (ms.get(("seq", "interval.preinterval"), 0.0)
                   + ms.get(("seq", "interval.gap"), 0.0))
    parent_ms = (ms.get(("pool", "remainder"), 0.0)
                 + ms.get(("pool", "tree"), 0.0))
    dispatch_ms = ms.get(("pool", "pool.solve"), 0.0) - parent_ms
    ph = tr["phases"]
    seq_s, pool_s = sum(eng["seq"]), sum(eng["pool"])
    return {
        "remainder.ms": ms.get(("seq", "remainder"), 0.0),
        "remainder.muls": ph["remainder"][0],
        "remainder.bit_cost": ph["remainder"][1],
        "tree.ms": ms.get(("seq", "tree"), 0.0),
        "tree.muls": ph["tree"][0],
        "tree.bit_cost": ph["tree"][1],
        "interval.ms": interval_ms,
        "interval.preinterval.ms": ms.get(("seq", "interval.preinterval"),
                                          0.0),
        "interval.evals": evals,
        "interval.case2c": sum(s.case2c for s in stats),
        "interval.ns_per_eval": interval_ms * 1e6 / evals if evals else 0.0,
        "sieve.evals": sum(s.sieve_evals for s in stats),
        "bisection.evals": sum(s.bisection_evals for s in stats),
        "newton.evals": sum(s.newton_evals for s in stats),
        "newton.iters": sum(s.newton_iters for s in stats),
        "sieve.bit_cost": ph["interval.sieve"][1],
        "bisection.bit_cost": ph["interval.bisection"][1],
        "newton.bit_cost": ph["interval.newton"][1],
        "pool.parent.ms": parent_ms,
        "pool.dispatch.ms": dispatch_ms,
        "pool.tasks": tr["pool_tasks"],
        "pool.ipc_bytes": tr["pool_ipc_bytes"],
        "pool.worker_busy": (tr["pool_busy_ms"]
                             / (tr["processes"] * dispatch_ms)
                             if dispatch_ms > 0 else 0.0),
        "pool.speedup": seq_s / pool_s,
        "pool.failures": sum(1 for r in rows if r["error"]),
        "executor.retries": tr["executor"]["executor.retries"],
        "executor.inline_tasks": tr["executor"]["executor.inline_tasks"],
        "executor.fallbacks": tr["executor"]["executor.fallbacks"],
    }


def traced_overhead(eng: dict) -> float:
    rows = eng["traced"]["rows"]
    traced = sum(r["seq_s"] + charged_pool_s(r) for r in rows)
    return traced / (sum(eng["seq"]) + sum(eng["pool"])) - 1.0


# -- serve stage ----------------------------------------------------------------

def check_replies(replies, expected, answered: set, tally, *,
                  corrupt: bool = False) -> dict:
    """Book every daemon reply against the expected answers.

    ``answered`` holds the keys already answered ``ok`` by this daemon;
    in send order, a request hits the cache exactly when its key is in
    it (the daemon solves in arrival order on one lane).
    """
    from workloads import request_key

    if corrupt:
        resp = next(r.resp for r in replies if r.resp.get("scaled"))
        resp["scaled"] = [str(int(resp["scaled"][0]) + 1)] + resp["scaled"][1:]
    hits_expected = hits_flagged = verified = 0
    for rep in replies:
        key = request_key(rep.req)
        hits_expected += key in answered
        ok = rep.resp.get("status") == "ok"
        right = ok and rep.resp.get("scaled") == expected[key]
        tally.op(right, wrong=ok and not right,
                 note=f"{rep.req['id']}: " + (
                     "wrong answer" if ok else
                     f"{rep.resp.get('status')} "
                     f"{str(rep.resp.get('error', ''))[:120]}"))
        if ok:
            answered.add(key)
            hits_flagged += bool(rep.resp.get("cached"))
        verified += right
    return {"hits_expected": hits_expected, "hits_flagged": hits_flagged,
            "verified": verified}


async def serve_run(workdir, phases, expected, warm_key, tally, *, setups,
                    tag, access_log=False, corrupt=False) -> dict:
    """Start the daemon, play each ``(requests, in_flight)`` phase, and
    check replies and the cache-hit count."""
    from daemon import start_daemons

    daemon, setup_times = await start_daemons(workdir, setups, tag,
                                              access_log)
    try:
        c0 = await daemon.counters()
        played = [await daemon.phase(reqs, k) for reqs, k in phases]
        c1 = await daemon.counters()
        rss = daemon.peak_rss_mb()
    finally:
        await daemon.close()
    answered = {warm_key}
    checks = [check_replies(replies, expected, answered, tally,
                            corrupt=corrupt and i == len(played) - 1)
              for i, (replies, _wall) in enumerate(played)]
    delta = {k: c1.get(k, 0) - c0.get(k, 0) for k in set(c0) | set(c1)}
    hits = sum(c["hits_expected"] for c in checks)
    if not (delta.get("cache.hits", 0) == hits
            == sum(c["hits_flagged"] for c in checks)):
        tally.wrong += 1
        tally.notes.append(
            f"cache.hits {delta.get('cache.hits')} != expected {hits}")
    return {"played": played, "checks": checks, "counters": delta,
            "setup": setup_times, "rss": rss, "journal": daemon.journal,
            "access_log": daemon.access_log}


def latency_replies(run: dict, phases) -> list:
    """Replies of the chunks played with one request in flight."""
    return [rep for (replies, _), (_, k) in zip(run["played"], phases)
            if k == LATENCY_IN_FLIGHT for rep in replies]


def serve_layers(run: dict, lat: list) -> dict[str, float]:
    """Per-layer serve, cache and journal metrics from a daemon started
    with ``--access-log``, plus its counters; ``lat`` are the replies of
    the one-in-flight requests."""
    from daemon import read_access_log

    replies = [rep for replies, _ in run["played"] for rep in replies]
    client = {rep.req["id"]: rep.latency_s for rep in replies}
    records = [r for r in read_access_log(run["access_log"])
               if r.get("id") in client]
    stage = {}
    for name in ("queue_wait", "solve", "validate", "write"):
        stage[name] = statistics.fmean(
            sum(s["wall_ns"] for s in r["stages"] if s["name"] == name)
            for r in records) / 1e6
    transport = statistics.fmean(
        client[r["id"]] * 1e3 - r["total_ns"] / 1e6 for r in records)
    hit = [r.latency_s for r in lat if r.resp.get("cached")]
    miss = [r.latency_s for r in lat if not r.resp.get("cached")]
    c = run["counters"]
    hits, misses = c.get("cache.hits", 0), c.get("cache.misses", 0)
    return {
        "serve.queue_wait.ms": stage["queue_wait"],
        "serve.solve.ms": stage["solve"],
        "serve.validate.ms": stage["validate"],
        "serve.write.ms": stage["write"],
        "serve.transport.ms": transport,
        "serve.hit.p50_ms": percentile(hit, 0.5) * 1e3 if hit else 0.0,
        "serve.miss.p50_ms": percentile(miss, 0.5) * 1e3 if miss else 0.0,
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "journal.records": (c.get("journal.accepts", 0)
                            + c.get("journal.completes", 0)),
        "journal.bytes": os.path.getsize(run["journal"]),
    }


def latency_percentiles(latencies_s: list) -> dict[str, float]:
    """``serve.p50_ms`` (end to end) and its per-layer companions, all
    over one population of latencies."""
    return {"serve.p50_ms": percentile(latencies_s, 0.5) * 1e3,
            "serve.p90_ms": percentile(latencies_s, 0.9) * 1e3,
            "serve.p99_ms": percentile(latencies_s, 0.99) * 1e3,
            "serve.latency.samples": len(latencies_s)}


def phase_wall(run: dict) -> float:
    return sum(wall for _replies, wall in run["played"])


# -- workloads -------------------------------------------------------------------

def solver_workload(args, tally, workdir) -> dict[str, float]:
    """paper-grid and refine-deep: the instances through both in-process
    engines; the warm pool is also the service, one instance a request."""
    import workloads

    make = (workloads.paper_grid if args.workload == "paper-grid"
            else workloads.refine_deep)
    instances = make(args.seed, tiny=args.tiny)
    eng = run_engines(
        instances,
        lambda rows: workloads.certified_references(instances, rows, tally),
        tally, budget_s=args.seconds,
        min_passes=1 if args.tiny else MIN_PASSES,
        max_passes=1 if args.tiny else MAX_PASSES, trace=bool(args.trace),
        setups=1 if args.tiny else SETUPS, corrupt=args.corrupt)
    seq_s, pool_s = sum(eng["seq"]), sum(eng["pool"])
    out = {
        "seq.solve_s": seq_s,
        "pool.solve_s": pool_s,
        "serve.rps": len(instances) / pool_s,
        **latency_percentiles(eng["pool"]),
        "setup_s": median(eng["setup"]),
        "peak_rss_mb": eng["rss"],
    }
    if args.trace:
        out.update(engine_layers(eng))
        out["trace.overhead"] = traced_overhead(eng)
        # The serve layers on this workload's inputs: every instance
        # twice, one in flight (the second round hits the cache).
        reqs = [{"id": f"r{r}-{i}", "coeffs": list(inst.coeffs),
                 "bits": inst.mu}
                for r in (1, 2) for i, inst in enumerate(instances)]
        expected = {}
        for req, ref in zip(reqs, eng["refs"] * 2):
            expected[workloads.request_key(req)] = (
                None if ref is None else [str(s) for s in ref])
        phases = [(reqs, LATENCY_IN_FLIGHT)]
        run = asyncio.run(serve_run(
            workdir, phases, expected, _warm_key(), tally, setups=1,
            tag="traced", access_log=True))
        out.update(serve_layers(run, latency_replies(run, phases)))
    return out


def serve_workload(args, tally, workdir) -> dict[str, float]:
    """serve-small: two seeded streams through a live daemon, then the
    distinct polynomials of the latency stream through both in-process
    engines."""
    import workloads
    from repro.serve.loadtest import expected_answers

    n = 20 if args.tiny else int(args.seconds * REQUESTS_PER_SECOND)
    p1, p2 = workloads.serve_streams(args.seed, n)
    expected = expected_answers(p1 + p2)
    # The two phases alternate in chunks, so host drift over the run
    # reaches both alike.
    phases = []
    for c in range(SERVE_CHUNKS):
        for reqs, k in ((p1, THROUGHPUT_IN_FLIGHT), (p2, LATENCY_IN_FLIGHT)):
            phases.append((reqs[c * n // SERVE_CHUNKS:
                                 (c + 1) * n // SERVE_CHUNKS], k))
    run = asyncio.run(serve_run(workdir, phases, expected, _warm_key(),
                                tally, setups=1 if args.tiny else SETUPS,
                                tag="e2e", corrupt=args.corrupt))
    thr = [(check["verified"], wall) for check, (_, wall), (_, k)
           in zip(run["checks"], run["played"], phases)
           if k == THROUGHPUT_IN_FLIGHT]
    lat = [rep.latency_s for rep in latency_replies(run, phases)]
    instances = workloads.distinct_instances(p2)
    eng = run_engines(
        instances,
        lambda rows: [[int(s) for s in expected[i.name]]
                      for i in instances],
        tally, budget_s=args.seconds * SERVE_ENGINE_SHARE,
        min_passes=1 if args.tiny else MIN_PASSES,
        max_passes=1 if args.tiny else MAX_PASSES, trace=bool(args.trace),
        setups=1, corrupt=False)
    out = {
        "seq.solve_s": sum(eng["seq"]),
        "pool.solve_s": sum(eng["pool"]),
        "serve.rps": sum(v for v, _ in thr) / sum(w for _, w in thr),
        **latency_percentiles(lat),
        "setup_s": median(run["setup"]),
        "peak_rss_mb": run["rss"],
    }
    if args.trace:
        out.update(engine_layers(eng))
        traced = asyncio.run(serve_run(
            workdir, phases, expected, _warm_key(), tally, setups=1,
            tag="traced", access_log=True))
        out.update(serve_layers(traced, latency_replies(traced, phases)))
        out["trace.overhead"] = phase_wall(traced) / phase_wall(run) - 1.0
    return out


def _warm_key() -> str:
    from daemon import WARMUP_DEGREE
    from repro.bench.workloads import random_real_rooted
    from workloads import request_key

    return request_key({"coeffs": list(
        random_real_rooted(WARMUP_DEGREE, 0).coeffs), "bits": 16})


# -- entry point ------------------------------------------------------------------

def run_once(args, spec, workroot: str) -> dict:
    from workloads import Tally

    tally = Tally()
    workdir = tempfile.mkdtemp(dir=workroot)
    if args.workload == "serve-small":
        values = serve_workload(args, tally, workdir)
    else:
        values = solver_workload(args, tally, workdir)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for note in tally.notes:
        print(f"perfbench: {note}", file=sys.stderr)
    return {"correct": tally.correct, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def repeat(args, spec, workroot: str) -> int:
    """Steadiness mode: the same workload and seed ``args.repeat`` times."""
    runs = []
    for i in range(args.repeat):
        res = run_once(args, spec, workroot)
        runs.append(res)
        print(f"run {i + 1}/{args.repeat}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}",
              file=sys.stderr)
    summary, status = {}, 0
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0], vals[0], vals[0]))
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0}
        print(f"{name:28s} median {med:14.6g}  q1 {q1:14.6g}  "
              f"q3 {q3:14.6g}  spread {summary[name]['spread']:.3f}")
        if name in EXACT and len(set(vals)) > 1:
            print(f"  count metric {name} differs between runs: {vals}")
            status = 1
    print(json.dumps({"runs": len(runs),
                      "correct": all(r["correct"] for r in runs),
                      "counts_identical": status == 0,
                      "metrics": summary}))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0,
                    help="steadiness mode: run N times with this seed")
    # Smoke-test hooks: tiny inputs, and one deliberately corrupted
    # answer that the checks must report as a failed operation.
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no package sources at {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    spec = load_spec()
    # Journals and access logs live here, inside the checkout.
    workroot = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.repeat:
            return repeat(args, spec, workroot)

        def watchdog(signum, frame) -> None:
            print(f"perfbench: no result after {WATCHDOG_S}s; stopping",
                  file=sys.stderr)
            kill_descendants()
            shutil.rmtree(workroot, ignore_errors=True)
            os._exit(3)

        signal.signal(signal.SIGALRM, watchdog)
        signal.alarm(WATCHDOG_S)
        print(json.dumps(run_once(args, spec, workroot)))
        return 0
    finally:
        shutil.rmtree(workroot, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
