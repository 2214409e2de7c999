"""Shared ``BENCH_<name>.json`` writer for every benchmark driver.

All ``benchmarks/bench_*.py`` files and the ``repro bench`` CLI route
their machine-readable output through here, so each bench run leaves a
schema-valid :class:`repro.obs.perf.BenchArtifact` next to the
human-readable ``.txt`` tables — the repo's bench trajectory in
comparable, gateable form.

Three layers:

* :func:`bench_artifact` — an empty artifact pre-stamped with the
  environment fingerprint and workload params;
* :func:`add_sequential_metrics` / :func:`add_parallel_metrics` — fold
  the standard observables of :class:`~repro.bench.runner`
  records into an artifact (per-cell bit costs, case tallies,
  iteration histograms, per-phase rollups, wall times);
* :func:`save_bench_artifact` — write it as
  ``benchmarks/results/BENCH_<name>.json`` (honors
  ``REPRO_RESULTS_DIR``, like ``save_result``).
"""

from __future__ import annotations

import os
from typing import Any, Iterable, Mapping

from repro.bench.runner import ParallelRecord, SequentialRecord
from repro.obs.metrics import Histogram
from repro.obs.perf import BenchArtifact, write_artifact
from repro.obs.rollup import phase_rollup

__all__ = [
    "bench_artifact",
    "add_sequential_metrics",
    "add_parallel_metrics",
    "add_parallel_rollup",
    "artifact_path",
    "save_bench_artifact",
]

#: The interval-solver per-solve observables, in ``per_solve`` order.
_SOLVE_HISTOGRAMS = ("sieve_evals", "bisection_evals", "newton_iters")


def bench_artifact(
    name: str, params: Mapping[str, Any] | None = None
) -> BenchArtifact:
    """A fresh artifact for bench ``name`` with ``params`` pinned."""
    return BenchArtifact(name=name, params=dict(params or {}))


def add_sequential_metrics(
    artifact: BenchArtifact,
    records: Iterable[SequentialRecord],
    per_cell: bool = True,
) -> BenchArtifact:
    """Fold sequential records into ``artifact``.

    Adds the aggregate ``count`` metrics (total bit cost, mul count,
    interval-case tallies, root counts), the total ``wall_seconds``,
    per-``(n, mu)`` cell bit costs (``n20.mu8.bit_cost`` — the gateable
    Table 2 cells) when ``per_cell``, the sieve/bisection/Newton
    per-solve histograms, and the per-phase bit-cost / wall rollup of
    the records' counters (:func:`repro.obs.rollup.phase_rollup`).
    """
    records = list(records)
    hists = {k: Histogram(f"interval.{k}") for k in _SOLVE_HISTOGRAMS}
    total_wall = 0.0
    totals = {"bit_cost": 0, "mul_count": 0, "solves": 0, "n_roots": 0,
              "case1": 0, "case2a": 0, "case2b": 0, "case2c": 0}
    cells: dict[str, int] = {}
    for r in records:
        total_wall += r.wall_seconds
        totals["bit_cost"] += r.total_bit_cost
        totals["mul_count"] += r.total_mul_count
        totals["solves"] += r.stats.solves
        totals["n_roots"] += r.n_roots
        for case in ("case1", "case2a", "case2b", "case2c"):
            totals[case] += getattr(r.stats, case)
        if per_cell:
            key = f"n{r.degree}.mu{r.mu_digits}.bit_cost"
            cells[key] = cells.get(key, 0) + r.total_bit_cost
        for triple in r.stats.per_solve:
            for key, v in zip(_SOLVE_HISTOGRAMS, triple):
                hists[key].observe(v)
    for key, value in totals.items():
        artifact.add_metric(key, value)
    for key, value in sorted(cells.items()):
        artifact.add_metric(key, value)
    artifact.add_metric("wall_seconds", total_wall, kind="wall")
    for key, h in hists.items():
        artifact.histograms[h.name] = h.as_dict()
    artifact.phases.update(phase_rollup(r.counter for r in records))
    return artifact


def add_parallel_metrics(
    artifact: BenchArtifact, records: Iterable[ParallelRecord]
) -> BenchArtifact:
    """Fold simulated-schedule records into ``artifact``.

    Per record: total work, critical path, task count, and the makespan
    of every simulated processor count (``n35.mu8.makespan.p16``) — all
    deterministic ``count`` metrics in bit-operation units.
    """
    for r in records:
        stem = f"n{r.degree}.mu{r.mu_digits}"
        artifact.add_metric(f"{stem}.n_tasks", r.n_tasks)
        artifact.add_metric(f"{stem}.total_work", r.total_work)
        artifact.add_metric(f"{stem}.critical_path", r.critical_path)
        for p, makespan in sorted(r.makespans.items()):
            artifact.add_metric(f"{stem}.makespan.p{p}", makespan)
    return artifact


def add_parallel_rollup(
    artifact: BenchArtifact, rollup: Mapping[str, Any]
) -> BenchArtifact:
    """Attach a real-run executor rollup to the artifact.

    ``rollup`` is :func:`repro.obs.rollup.parallel_rollup`'s dict (an
    empty one is a no-op — the run degraded to sequential).  Stores the
    whole rollup in the artifact's ``parallel`` section (the
    lane-level input for ``repro diff``) and derives the two
    informational wall metrics the gate tracks.
    """
    if not rollup:
        return artifact
    artifact.parallel = dict(rollup)
    artifact.add_metric("parallel.efficiency", rollup["efficiency"],
                        kind="wall")
    artifact.add_metric("parallel.idle_tail_fraction",
                        rollup["idle_tail_fraction"], kind="wall")
    return artifact


def artifact_path(name: str) -> str:
    """Where bench ``name``'s artifact lives: ``<results>/BENCH_<name>.json``."""
    from repro.bench.report import results_dir

    return os.path.join(results_dir(), f"BENCH_{name}.json")


def save_bench_artifact(artifact: BenchArtifact) -> str:
    """Persist ``artifact`` under the bench results directory.

    Returns the path written.  This is the single exit point every
    bench driver uses, so a schema bump happens in exactly one place.
    """
    path = artifact_path(artifact.name)
    write_artifact(path, artifact)
    return path
