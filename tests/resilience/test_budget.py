"""Budget semantics: deterministic unit tests on a fake clock, plus the
end-to-end acceptance scenario — a bit-budgeted Wilkinson-20 run raises
:class:`BudgetExceeded` whose partial roots all pass the exact Sturm
certificate in partial mode."""

import pytest

from repro.core.certify import CertificationError, certify_roots
from repro.core.rootfinder import RealRootFinder
from repro.costmodel.counter import CostCounter
from repro.poly.dense import IntPoly
from repro.resilience import Budget, BudgetExceeded, PartialResult

WILKINSON_20 = IntPoly.from_roots(list(range(1, 21)))
MU = 32
#: (x+1)^2 (x-2)^2 (x-5): two Yun factors.
REPEATED = IntPoly.from_roots([-1, -1, 2, 2, 5])


def partial_across_factors(solve):
    """The multiplicity path solves Yun factors one at a time; a budget
    tripping between factors reports the roots of the factors already
    solved.  ``solve(counter, budget)`` runs one engine on ``REPEATED``
    under bit ceilings derived from that engine's own charged total.

    The pool's counter sees parent-side costs only, and the square-free
    decomposition dominates them, so there only a ceiling just under
    the total trips after the first factor; the sequential finder's
    interval work puts its trips at the fractions."""
    counter = CostCounter()
    solve(counter, None)
    total = counter.total_bit_cost
    for ceiling in [total - 1] + [int(total * frac)
                                  for frac in (0.9, 0.8, 0.7, 0.6, 0.5)]:
        try:
            solve(CostCounter(), Budget(max_bit_ops=ceiling))
        except BudgetExceeded as e:
            if e.partial.scaled:
                certify_roots(REPEATED, e.partial.scaled, None, 16,
                              partial=True)
                return
    raise AssertionError("no ceiling tripped with a nonempty partial")


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestBudgetUnit:
    def test_unstarted_budget_never_trips(self):
        b = Budget(deadline_seconds=0.0)
        assert b.over() is None
        b.check(phase="anything")  # no raise before start

    def test_deadline_axis(self):
        clock = FakeClock()
        b = Budget(deadline_seconds=5.0, clock=clock).start()
        b.check()
        clock.t = 5.0
        b.check()  # boundary is inclusive: elapsed must *exceed*
        clock.t = 5.01
        assert b.over() == "deadline"
        with pytest.raises(BudgetExceeded) as ei:
            b.check(scaled=[1, 2], phase="interval", mu=8, degree=3)
        part = ei.value.partial
        assert ei.value.reason == "deadline"
        assert isinstance(part, PartialResult)
        assert (part.scaled, part.phase, part.mu, part.degree) == (
            [1, 2], "interval", 8, 3)
        assert part.elapsed_seconds == pytest.approx(5.01)

    def test_zero_deadline_trips_on_coarse_clock_tie(self):
        # Regression: with strict `>` a deadline of 0 never fired while
        # a coarse clock kept reading elapsed == 0.0 exactly.
        clock = FakeClock()  # frozen at 0.0: the coarsest possible clock
        b = Budget(deadline_seconds=0.0, clock=clock).start()
        assert b.elapsed_seconds() == 0.0
        assert b.over() == "deadline"
        with pytest.raises(BudgetExceeded) as ei:
            b.check(phase="remainder")
        assert ei.value.reason == "deadline"

    def test_positive_deadline_boundary_stays_inclusive(self):
        # The zero-case fix must not change the documented `elapsed
        # must exceed` contract for positive deadlines.
        clock = FakeClock()
        b = Budget(deadline_seconds=2.0, clock=clock).start()
        clock.t = 2.0
        assert b.over() is None
        clock.t = 2.0000001
        assert b.over() == "deadline"

    def test_default_clock_is_monotonic(self):
        # Audit: the budget and the executor dispatch loop
        # (sched/executor.py `clock = time.monotonic`) must share one
        # timebase; mixing time.time in would let wall-clock steps
        # fire deadlines early or never.
        import time

        assert Budget().clock is time.monotonic

    def test_bit_axis_measures_delta_since_start(self):
        counter = CostCounter()
        with counter.phase("warmup"):
            counter.mul(1 << 999, 1 << 999)  # pre-start cost: not charged
        spent0 = counter.total_bit_cost
        b = Budget(max_bit_ops=50).start(counter)
        assert b.spent_bit_ops() == 0
        b.check()
        with counter.phase("work"):
            counter.mul(1 << 99, 1 << 99)  # 100x100 bits > the 50 ceiling
        assert b.spent_bit_ops() == counter.total_bit_cost - spent0
        assert b.over() == "bit_budget"
        with pytest.raises(BudgetExceeded) as ei:
            b.check(phase="tree")
        assert ei.value.reason == "bit_budget"
        assert ei.value.partial.bit_cost > 50

    def test_start_is_idempotent(self):
        clock = FakeClock()
        b = Budget(deadline_seconds=1.0, clock=clock).start()
        clock.t = 10.0
        b.start()  # must NOT reset the epoch
        assert b.elapsed_seconds() == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Budget(deadline_seconds=-1.0)
        with pytest.raises(ValueError):
            Budget(max_bit_ops=-1)

    def test_partial_result_floats(self):
        part = PartialResult(mu=8, scaled=[-256, 512], degree=5,
                             phase="interval", reason="deadline",
                             elapsed_seconds=1.0, bit_cost=0)
        assert len(part) == 2
        assert part.as_floats() == [-1.0, 2.0]


class TestSequentialBudget:
    def test_pre_expired_deadline_raises_with_empty_partial(self):
        b = Budget(deadline_seconds=0.0)
        finder = RealRootFinder(mu_bits=16, budget=b)
        with pytest.raises(BudgetExceeded) as ei:
            finder.find_roots(IntPoly.from_roots([-3, 0, 2]))
        assert ei.value.partial.scaled == []

    def test_unbudgeted_answer_is_unchanged(self):
        # The budget-aware per-gap path must replicate solve_all exactly.
        p = IntPoly.from_roots([-7, -2, 1, 5, 9])
        ref = RealRootFinder(mu_bits=MU).find_roots(p)
        b = Budget(deadline_seconds=3600.0)
        got = RealRootFinder(mu_bits=MU, budget=b).find_roots(p)
        assert got.scaled == ref.scaled

    def test_bit_budget_auto_creates_counter(self):
        finder = RealRootFinder(mu_bits=16, budget=Budget(max_bit_ops=10**12))
        assert finder.counter.total_bit_cost == 0  # a real CostCounter
        finder.find_roots(IntPoly.from_roots([-1, 1]))
        assert finder.counter.total_bit_cost > 0

    @pytest.mark.slow
    def test_wilkinson20_partial_roots_certify(self):
        # Acceptance scenario: measure the exact (deterministic) bit
        # cost of the full run, then rerun with 90% of it — the run
        # must trip mid-interval with a nonempty partial result whose
        # roots are a subset of the full answer and pass the exact
        # Sturm certificate in partial mode.
        counter = CostCounter()
        full = RealRootFinder(mu_bits=MU, counter=counter).find_roots(
            WILKINSON_20)
        total = counter.total_bit_cost
        budget = Budget(max_bit_ops=int(total * 0.9))
        finder = RealRootFinder(mu_bits=MU, counter=CostCounter(),
                                budget=budget)
        with pytest.raises(BudgetExceeded) as ei:
            finder.find_roots(WILKINSON_20)
        part = ei.value.partial
        assert ei.value.reason == "bit_budget"
        assert 0 < len(part.scaled) < len(full.scaled)
        assert all(s in full.scaled for s in part.scaled)
        certify_roots(WILKINSON_20, part.scaled, None, MU, partial=True)

    def test_repeated_roots_partial_accumulates_across_factors(self):
        partial_across_factors(
            lambda counter, budget: RealRootFinder(
                mu_bits=16, counter=counter, budget=budget
            ).find_roots(REPEATED))


class TestExecutorBudget:
    @pytest.mark.slow
    def test_pre_expired_deadline_raises_and_pool_survives(self):
        from repro.sched.executor import ParallelRootFinder

        p = IntPoly.from_roots([-5, -1, 2, 7, 11])
        ref = RealRootFinder(mu_bits=16).find_roots(p)
        with ParallelRootFinder(mu=16, processes=2,
                                budget=Budget(deadline_seconds=0.0)) as f:
            with pytest.raises(BudgetExceeded) as ei:
                f.find_roots_scaled(p)
            assert ei.value.partial.scaled == []
            assert f.fallback_count == 0  # an overrun is not a fallback
            f.budget = None  # lift the budget: the pool must still work
            assert f.find_roots_scaled(p) == ref.scaled

    @pytest.mark.slow
    def test_executor_bit_budget_reads_parent_side_costs(self):
        from repro.sched.executor import ParallelRootFinder

        p = IntPoly.from_roots([-5, -1, 2, 7, 11])
        # Ceiling below the parent-side remainder/tree cost: the run
        # must trip during the parent phases, deterministically.
        counter = CostCounter()
        RealRootFinder(mu_bits=16, counter=counter).find_roots(p)
        with ParallelRootFinder(mu=16, processes=2,
                                budget=Budget(max_bit_ops=10)) as f:
            assert f.counter is not None  # auto-created for the ceiling
            with pytest.raises(BudgetExceeded) as ei:
                f.find_roots_scaled(p)
            assert ei.value.reason == "bit_budget"


    @pytest.mark.slow
    def test_repeated_roots_partial_accumulates_across_factors(self):
        from repro.sched.executor import ParallelRootFinder

        with ParallelRootFinder(mu=16, processes=2) as f:
            def solve(counter, budget):
                f.counter, f.budget = counter, budget
                return f.find_roots_scaled(REPEATED)

            partial_across_factors(solve)
            assert f.fallback_count == 0


class TestPartialCertification:
    def test_partial_subset_passes(self):
        p = IntPoly.from_roots([-3, 0, 2])
        full = RealRootFinder(mu_bits=16).find_roots(p)
        certify_roots(p, full.scaled[:2], None, 16, partial=True)
        certify_roots(p, [], None, 16, partial=True)

    def test_partial_still_rejects_wrong_roots(self):
        p = IntPoly.from_roots([-3, 0, 2])
        with pytest.raises(CertificationError):
            certify_roots(p, [12345], None, 16, partial=True)

    def test_partial_rejects_overclaiming(self):
        p = IntPoly.from_roots([-3, 0, 2])
        full = RealRootFinder(mu_bits=16).find_roots(p)
        too_many = full.scaled + [full.scaled[-1] + (7 << 16)]
        with pytest.raises(CertificationError):
            certify_roots(p, too_many, None, 16, partial=True)

    def test_full_mode_still_requires_multiplicities(self):
        p = IntPoly.from_roots([-3, 0, 2])
        full = RealRootFinder(mu_bits=16).find_roots(p)
        with pytest.raises(CertificationError, match="multiplicities"):
            certify_roots(p, full.scaled, None, 16)
