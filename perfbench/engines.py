"""Harness side of the in-process stage: starts ``solver.py``, times its
set-up, runs one job and reads the process tree's peak RSS."""

from __future__ import annotations

import os
import subprocess
import time

from common import HERE, ROOT, child_env, python, tree_peak_rss_mb
from solver import recv, send


class Solver:
    """One ``solver.py`` process, ready to take a job."""

    def __init__(self) -> None:
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [python(), os.path.join(HERE, "solver.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
            env=child_env())
        try:
            recv(self.proc.stdout)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - t0

    def run(self, instances, *, budget_s: float, min_passes: int,
            max_passes: int, trace: bool) -> tuple[dict, float]:
        """Run the passes; returns the result frame and peak RSS (MB)."""
        send(self.proc.stdin, {
            "op": "run", "instances": instances, "budget_s": budget_s,
            "min_passes": min_passes, "max_passes": max_passes,
            "trace": trace,
        })
        result = recv(self.proc.stdout)
        return result, tree_peak_rss_mb(self.proc.pid)

    def close(self) -> None:
        proc = self.proc
        if proc.poll() is None:
            try:
                send(proc.stdin, {"op": "quit"})
                proc.stdin.close()
            except OSError:
                pass
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()


def start_solver(setups: int) -> tuple[Solver, list[float]]:
    """Set the solver up ``setups`` times, one after another; keep the
    last process for the workload and return every set-up time."""
    times = []
    solver = None
    for i in range(setups):
        solver = Solver()
        times.append(solver.setup_s)
        if i < setups - 1:
            solver.close()
    return solver, times
