"""Small helpers shared by the harness modules."""

from __future__ import annotations

import math
import os
import signal
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def child_env() -> dict[str, str]:
    """Environment for the program's processes: the checkout's sources
    first on the path, and no ``REPRO_*`` overrides (backend, cache
    directory, ledger) leaking in from the caller."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def python() -> str:
    return sys.executable or "python3"


def _vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def _children(pid: int) -> list[int]:
    out: list[int] = []
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/children",
                      encoding="ascii") as fh:
                out.extend(int(c) for c in fh.read().split())
        except OSError:
            continue
    return out


def descendants(pid: int) -> list[int]:
    """Every live descendant of ``pid``, parents before children."""
    out, todo = [], [pid]
    while todo:
        try:
            kids = _children(todo.pop())
        except OSError:  # exited while listing
            continue
        out.extend(kids)
        todo.extend(kids)
    return out


def kill_descendants() -> None:
    """SIGKILL every process this one started, directly or not, and
    reap the direct children."""
    for pid in descendants(os.getpid()):
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of peak resident set sizes of ``pid`` and every live
    descendant (the pool workers and their helper processes)."""
    total = 0
    for p in [pid] + descendants(pid):
        try:
            total += _vm_hwm_kb(p)
        except OSError:  # exited between listing and reading
            continue
    return total / 1024.0


def median(xs) -> float:
    return float(statistics.median(xs))


def percentile(xs, q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A Beta-weighted average of every order statistic rather than the
    one at rank ``ceil(q n)``.  On the solver workloads a request is one
    instance, so a single rank can fall on one instance, or on the
    boundary between two degrees, and jump with host noise; the weights
    spread over the neighbouring ranks.  With many samples it agrees
    with the nearest-rank value.
    """
    s = sorted(xs)
    n = len(s)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [_beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(s))


def _beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function ``I_x(a, b)``."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_cf(x, a, b) / a
    return 1.0 - front * _beta_cf(1.0 - x, b, a) / b


def _beta_cf(x: float, a: float, b: float) -> float:
    """Continued fraction for ``I_x(a, b)`` (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h
