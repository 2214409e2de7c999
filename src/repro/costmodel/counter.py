"""Cost accounting in the paper's machine model.

The paper instruments its C implementation to trace, per algorithm phase,
the number of multiprecision multiplications performed and their total bit
cost under the schoolbook (quadratic) model of the UNIX ``mp`` package:
multiplying an ``a``-bit by a ``b``-bit integer costs ``a*b`` bit
operations, additions are linear (Section 3.3, Section 4).

:class:`CostCounter` reproduces that tracing for this implementation.  All
arithmetic the algorithm performs flows through ``counter.mul`` /
``counter.divmod`` / ``counter.add`` so that:

* Figures 2-5 (predicted vs. observed multiplication counts) read
  ``counter.mul_count``;
* Figures 6-7 (bisection-phase counts and bit complexity) read the
  per-phase breakdown;
* Table 2 and the speedup tables use the summed quadratic bit cost as the
  simulated-time currency of :mod:`repro.sched`.

Phases are attributed with a stack-based context manager::

    with counter.phase("interval.bisection"):
        ...

A phase name is a dotted path; reports can aggregate by any prefix.
``counter.wall_ns`` holds each phase's exclusive wall time beside its
costs in ``counter.stats``.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass
from time import perf_counter_ns

__all__ = [
    "CostCounter",
    "NullCounter",
    "NULL_COUNTER",
    "PhaseStats",
    "bit_length",
]


def bit_length(x: int) -> int:
    """``||x||`` in the paper's notation: the size of ``x`` in bits.

    ``||0||`` is taken as 1 so that multiplying by zero still charges a
    (cheap) operation, mirroring a real ``mp`` call.
    """
    return abs(x).bit_length() or 1


@dataclass
class PhaseStats:
    """Aggregated operation counts and bit costs for one phase."""

    mul_count: int = 0
    mul_bit_cost: int = 0
    div_count: int = 0
    div_bit_cost: int = 0
    add_count: int = 0
    add_bit_cost: int = 0

    def merged(self, other: "PhaseStats") -> "PhaseStats":
        return PhaseStats(
            self.mul_count + other.mul_count,
            self.mul_bit_cost + other.mul_bit_cost,
            self.div_count + other.div_count,
            self.div_bit_cost + other.div_bit_cost,
            self.add_count + other.add_count,
            self.add_bit_cost + other.add_bit_cost,
        )

    @property
    def total_bit_cost(self) -> int:
        return self.mul_bit_cost + self.div_bit_cost + self.add_bit_cost

    @property
    def op_count(self) -> int:
        return self.mul_count + self.div_count + self.add_count


class CostCounter:
    """Counts operations and charges the quadratic-arithmetic bit model.

    The counter is deliberately permissive about phase naming: any dotted
    string works, and unknown phases spring into existence on first use.
    The root phase is ``""``.

    ``wall_ns`` maps a phase to the exclusive nanoseconds spent in it;
    time outside every phase (the root) is not charged.
    """

    __slots__ = ("stats", "wall_ns", "_phase_stack", "_mark_ns")

    def __init__(self) -> None:
        self.stats: dict[str, PhaseStats] = defaultdict(PhaseStats)
        self.wall_ns: dict[str, int] = defaultdict(int)
        self._phase_stack: list[str] = [""]
        self._mark_ns = 0  # clock reading at the last phase transition

    # -- phase management ------------------------------------------------
    @property
    def current_phase(self) -> str:
        return self._phase_stack[-1]

    def phase(self, name: str) -> AbstractContextManager[None]:
        """Attribute costs inside the block to ``name``.

        Nested phases do *not* concatenate automatically; pass the full
        dotted name.  This matches how the paper reports disjoint phases
        (remainder sequence / tree / pre-interval / sieve / bisection /
        newton).  Entering and leaving each read the clock once and
        charge the time since the last transition to the phase that was
        innermost.
        """
        return _PhaseScope(self, name)

    # -- charged primitive operations -------------------------------------
    def mul(self, a: int, b: int) -> int:
        s = self.stats[self._phase_stack[-1]]
        s.mul_count += 1
        s.mul_bit_cost += bit_length(a) * bit_length(b)
        return a * b

    def divmod(self, a: int, b: int) -> tuple[int, int]:
        s = self.stats[self._phase_stack[-1]]
        s.div_count += 1
        s.div_bit_cost += bit_length(a) * bit_length(b)
        q, r = divmod(a, b)
        return q, r

    def exact_div(self, a: int, b: int) -> int:
        q, r = self.divmod(a, b)
        if r != 0:
            raise ArithmeticError(f"inexact division {a} / {b}")
        return q

    def add(self, a: int, b: int) -> int:
        s = self.stats[self._phase_stack[-1]]
        s.add_count += 1
        s.add_bit_cost += max(bit_length(a), bit_length(b))
        return a + b

    def sub(self, a: int, b: int) -> int:
        s = self.stats[self._phase_stack[-1]]
        s.add_count += 1
        s.add_bit_cost += max(bit_length(a), bit_length(b))
        return a - b

    def shift_left(self, a: int, k: int) -> int:
        """Charge a shift as a linear-cost addition-class operation."""
        s = self.stats[self._phase_stack[-1]]
        s.add_count += 1
        s.add_bit_cost += bit_length(a) + max(k, 0)
        return a << k

    # -- snapshots (used by repro.obs spans) -------------------------------
    def snapshot(self) -> dict[str, tuple[int, int, int, int, int, int]]:
        """Cheap point-in-time copy of every phase's counters.

        Returns a plain ``{phase: (mul_count, mul_bit_cost, div_count,
        div_bit_cost, add_count, add_bit_cost)}`` mapping; pair with
        :meth:`diff` to attribute the cost of a region of code (this is
        how :class:`repro.obs.trace.Tracer` charges spans).
        """
        return {
            name: (
                st.mul_count, st.mul_bit_cost, st.div_count,
                st.div_bit_cost, st.add_count, st.add_bit_cost,
            )
            for name, st in self.stats.items()
        }

    def diff(
        self, snap: dict[str, tuple[int, int, int, int, int, int]]
    ) -> dict[str, PhaseStats]:
        """Per-phase deltas accumulated since ``snap`` (zero deltas dropped)."""
        out: dict[str, PhaseStats] = {}
        zero = (0, 0, 0, 0, 0, 0)
        for name, st in self.stats.items():
            old = snap.get(name, zero)
            delta = PhaseStats(
                st.mul_count - old[0], st.mul_bit_cost - old[1],
                st.div_count - old[2], st.div_bit_cost - old[3],
                st.add_count - old[4], st.add_bit_cost - old[5],
            )
            if delta.op_count or delta.total_bit_cost:
                out[name] = delta
        return out

    # -- reporting ---------------------------------------------------------
    def phase_stats(self, prefix: str = "") -> PhaseStats:
        """Aggregate stats over every phase whose name starts with ``prefix``."""
        out = PhaseStats()
        for name, st in self.stats.items():
            if name.startswith(prefix):
                out = out.merged(st)
        return out

    @property
    def mul_count(self) -> int:
        return self.phase_stats().mul_count

    @property
    def mul_bit_cost(self) -> int:
        return self.phase_stats().mul_bit_cost

    @property
    def total_bit_cost(self) -> int:
        return self.phase_stats().total_bit_cost

    def phases(self) -> list[str]:
        return sorted(self.stats)

    def report(self) -> str:
        """Human-readable per-phase table, most expensive first."""
        rows = sorted(
            self.stats.items(), key=lambda kv: kv[1].total_bit_cost, reverse=True
        )
        lines = [
            f"{'phase':34s} {'muls':>10s} {'mul bitcost':>14s} "
            f"{'divs':>8s} {'adds':>10s} {'total bitcost':>14s}"
        ]
        for name, st in rows:
            lines.append(
                f"{name or '<root>':34s} {st.mul_count:10d} {st.mul_bit_cost:14d} "
                f"{st.div_count:8d} {st.add_count:10d} {st.total_bit_cost:14d}"
            )
        tot = self.phase_stats()
        lines.append(
            f"{'TOTAL':34s} {tot.mul_count:10d} {tot.mul_bit_cost:14d} "
            f"{tot.div_count:8d} {tot.add_count:10d} {tot.total_bit_cost:14d}"
        )
        return "\n".join(lines)


class _PhaseScope:
    """One ``with counter.phase(name)`` block.  A plain class rather
    than a generator: entering one is about half the cost, and every
    counted evaluation enters one."""

    __slots__ = ("counter", "name")

    def __init__(self, counter: CostCounter, name: str) -> None:
        self.counter = counter
        self.name = name

    def __enter__(self) -> None:
        c = self.counter
        stack = c._phase_stack
        now = perf_counter_ns()
        if len(stack) > 1:
            c.wall_ns[stack[-1]] += now - c._mark_ns
        c._mark_ns = now
        stack.append(self.name)

    def __exit__(self, *exc: object) -> None:
        c = self.counter
        now = perf_counter_ns()
        c.wall_ns[c._phase_stack.pop()] += now - c._mark_ns
        c._mark_ns = now


class NullCounter(CostCounter):
    """A do-nothing counter: the default when cost tracing is off.

    Keeps the arithmetic-primitive interface so algorithm code is written
    once; every charge is skipped.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__()

    def mul(self, a: int, b: int) -> int:  # noqa: D102 - hot path
        return a * b

    def divmod(self, a: int, b: int) -> tuple[int, int]:
        return divmod(a, b)

    def exact_div(self, a: int, b: int) -> int:
        q, r = divmod(a, b)
        if r != 0:
            raise ArithmeticError(f"inexact division {a} / {b}")
        return q

    def add(self, a: int, b: int) -> int:
        return a + b

    def sub(self, a: int, b: int) -> int:
        return a - b

    def shift_left(self, a: int, k: int) -> int:
        return a << k

    def phase(self, name: str) -> AbstractContextManager[None]:
        return _NULL_PHASE


#: What every :meth:`NullCounter.phase` returns: no stack, no clock.
_NULL_PHASE = nullcontext()

#: Shared module-level null counter; safe because it keeps no state.
NULL_COUNTER = NullCounter()
