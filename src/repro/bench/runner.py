"""Experiment drivers shared by the benchmark files.

One sequential record per (input, mu) carries everything the paper's
tables and figures need: wall time, phase-split multiplication counts,
bit costs and wall times (all on the record's counter),
interval-solver statistics, and the derived simulated time.  One
parallel record additionally carries the simulated makespans across
processor counts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.predict import predict_all
from repro.charpoly.generator import CharPolyInput
from repro.core.rootfinder import RealRootFinder, RootResult
from repro.core.scaling import digits_to_bits
from repro.core.sieve import IntervalStats
from repro.core.tasks import build_task_graph
from repro.costmodel.backend import counter_for
from repro.costmodel.counter import CostCounter, PhaseStats
from repro.poly.roots_bounds import root_bound_bits
from repro.sched.simulator import speedup_curve

__all__ = ["SequentialRecord", "ParallelRecord", "run_sequential", "run_parallel"]

#: Processor counts of the paper's Tables 3-7 / Figures 9-13.
PAPER_PROCESSORS = [1, 2, 4, 8, 16]


@dataclass
class SequentialRecord:
    """All observables of one sequential instrumented run."""

    degree: int
    seed: int
    m_bits: int
    mu_digits: int
    mu_bits: int
    wall_seconds: float
    n_roots: int
    counter: CostCounter
    stats: IntervalStats
    result: RootResult
    r_bits: int

    @property
    def m_digits(self) -> int:
        """Coefficient size in decimal digits (the paper's m(n) units)."""
        return max(1, round(self.m_bits * 0.30103))

    def phase(self, prefix: str) -> PhaseStats:
        return self.counter.phase_stats(prefix)

    @property
    def total_bit_cost(self) -> int:
        return self.counter.total_bit_cost

    @property
    def total_mul_count(self) -> int:
        return self.counter.mul_count

    def predictions(self, worst_case: bool = False):
        return predict_all(
            self.degree, self.m_bits, self.mu_bits, self.r_bits, worst_case
        )


@dataclass
class ParallelRecord:
    """Simulated multiprocessor replay of one run's task graph."""

    degree: int
    seed: int
    mu_digits: int
    n_tasks: int
    total_work: int
    critical_path: int
    makespans: dict[int, int]
    overhead: int

    def speedup(self, p: int) -> float:
        return self.makespans[1] / self.makespans[p]


def run_sequential(
    inp: CharPolyInput, mu_digits: int, backend: str = "python",
) -> SequentialRecord:
    """Instrumented sequential run of the full algorithm.

    The record's counter carries the per-phase bit costs and exclusive
    wall times (``counter.wall_ns``) — how the bit-cost phase split maps
    onto real seconds on this host.  ``backend`` selects the arithmetic
    backend (docs/BACKENDS.md); charged counts are backend-invariant,
    only wall time moves.
    """
    mu_bits = digits_to_bits(mu_digits)
    counter = counter_for(backend)
    finder = RealRootFinder(mu_bits=mu_bits, counter=counter, backend=backend)
    result = finder.find_roots(inp.poly)
    # Single source of truth for wall time: the result's own bracket.
    # (A second perf_counter bracket here used to disagree with it by
    # the record-construction overhead.)
    return SequentialRecord(
        degree=inp.degree,
        seed=inp.seed,
        m_bits=inp.coeff_bits,
        mu_digits=mu_digits,
        mu_bits=mu_bits,
        wall_seconds=result.elapsed_seconds,
        n_roots=len(result),
        counter=counter,
        stats=result.stats,
        result=result,
        r_bits=root_bound_bits(inp.poly),
    )


def run_parallel(
    inp: CharPolyInput,
    mu_digits: int,
    processors: list[int] | None = None,
    overhead: int = 0,
    queue_overhead: int = 0,
) -> ParallelRecord:
    """Record the task graph once, then simulate every processor count."""
    mu_bits = digits_to_bits(mu_digits)
    counter = CostCounter()
    tg = build_task_graph(inp.poly, mu_bits, counter)
    tg.graph.run_recorded(counter)
    procs = processors if processors is not None else PAPER_PROCESSORS
    curve = speedup_curve(tg.graph, procs, overhead, queue_overhead)
    gstats = tg.graph.stats(overhead)
    return ParallelRecord(
        degree=inp.degree,
        seed=inp.seed,
        mu_digits=mu_digits,
        n_tasks=len(tg.graph),
        total_work=gstats.total_work,
        critical_path=gstats.critical_path,
        makespans={p: r.makespan for p, r in curve.items()},
        overhead=overhead,
    )
