"""Tests for the interval-problem case analysis."""

import random
from fractions import Fraction

import pytest

from repro.core.interval import (
    IntervalProblemSolver,
    sign_plus,
    solve_linear_scaled,
)
from repro.core.sieve import IntervalStats
from repro.costmodel.counter import CostCounter
from repro.poly.dense import IntPoly

from tests.conftest import rational_rooted, scaled_ceil


class TestSignPlus:
    def test_nonzero_point(self):
        p = IntPoly.from_roots([0, 2])
        dp = p.derivative()
        assert sign_plus(p, dp, 1, 0) == -1
        assert sign_plus(p, dp, 3, 0) == 1

    def test_exact_root_uses_derivative(self):
        p = IntPoly.from_roots([0, 2])  # at x=0: p'(0) = -2 -> decreasing
        dp = p.derivative()
        assert sign_plus(p, dp, 0, 0) == -1
        assert sign_plus(p, dp, 2, 0) == 1  # p'(2) = 2 > 0

    def test_scaled_exact_root(self):
        # root at 1/2, grid mu=1
        p = IntPoly((-1, 2))  # 2x - 1
        dp = p.derivative()
        assert sign_plus(p, dp, 1, 1) == 1

    def test_double_root_raises(self):
        p = IntPoly.from_roots([1, 1])
        with pytest.raises(ArithmeticError):
            sign_plus(p, p.derivative(), 1, 0)


class TestLinearSolve:
    def test_integer_root(self):
        assert solve_linear_scaled(IntPoly((-6, 2)), 4) == 3 << 4

    def test_rounding_up(self):
        # root 1/3: ceil(2^4 / 3) = 6
        assert solve_linear_scaled(IntPoly((-1, 3)), 4) == 6

    def test_negative_root(self):
        # root -1/3: ceil(-16/3) = -5
        assert solve_linear_scaled(IntPoly((1, 3)), 4) == -5

    def test_negative_leading_coefficient(self):
        assert solve_linear_scaled(IntPoly((6, -2)), 4) == 3 << 4

    def test_nonlinear_raises(self):
        with pytest.raises(ValueError):
            solve_linear_scaled(IntPoly((1, 2, 3)), 4)


class TestCaseAnalysis:
    def _solver(self, p, mu, r_bits, stats=None):
        return IntervalProblemSolver(p, mu, r_bits, CostCounter(), stats)

    def test_case1_equal_approximations(self):
        """Two interleave points in the same grid cell pin the root."""
        # roots at 0 and 100; interleave value at 50 and 50+tiny -> same
        # grid point for coarse mu.
        p = IntPoly.from_roots([0, 50, 100])
        st = IntervalStats()
        solver = self._solver(p, 1, 8, st)
        # interleave approximations at scaled value 81, 100 (scale mu=1)
        out = solver.solve_all([100, 101])
        assert out[1] == 100  # root 50 -> 100 at scale 1
        assert len(out) == 3

    def test_case2a_root_just_below_point(self):
        # root at 9.9-ish: use root 99/10; interleave approx lands at its
        # own ceiling. Construct directly: p with roots 0 and 99/10,
        # interleave point y = 9.9 => ytilde = ceil(2^0 * 9.9) = 10;
        # root x_1 = 9.9 in (9, 10] -> case 2a (u = i+1) -> answer 10.
        p = IntPoly((0, 10)) * IntPoly((-99, 10))  # 10x * (10x - 99)
        if p.leading_coefficient < 0:
            p = -p
        st = IntervalStats()
        solver = self._solver(p, 0, 5, st)
        out = solver.solve_all([10])
        assert out == [0, 10]
        assert st.case2a >= 1

    def test_case2b_root_just_below_next_point(self):
        # roots 0 and 2; interleave y = 1.5 -> ytilde = 2 at mu=0;
        # gap 0: (sentinel, 2]: root 0; gap 1: (2, sentinel]: root 2.
        p = IntPoly.from_roots([0, 2])
        st = IntervalStats()
        solver = self._solver(p, 0, 4, st)
        out = solver.solve_all([2])
        assert out == [0, 2]

    def test_case2c_interior_isolation(self):
        p = IntPoly.from_roots([-7, 13])
        st = IntervalStats()
        solver = self._solver(p, 6, 6, st)
        out = solver.solve_all([3 << 6])
        assert out == [-7 << 6, 13 << 6]
        assert st.case2c >= 1

    def test_wrong_interleave_count_raises(self):
        p = IntPoly.from_roots([1, 2, 3])
        solver = self._solver(p, 4, 4)
        with pytest.raises(ValueError):
            solver.solve_all([1, 2, 3])  # need exactly 2

    def test_constant_poly_raises(self):
        with pytest.raises(ValueError):
            IntervalProblemSolver(IntPoly.constant(2), 4, 4)


class TestRandomized:
    def test_rational_roots_randomized(self):
        rng = random.Random(1234)
        for _ in range(60):
            p, fracs = rational_rooted(rng)
            mu = rng.choice([3, 8, 16, 25])
            inter = [
                a + (b - a) * Fraction(rng.randint(10, 90), 100)
                for a, b in zip(fracs, fracs[1:])
            ]
            inter_scaled = [scaled_ceil(y, mu) for y in inter]
            r_bits = max(2, int(max(abs(f) for f in fracs)) .bit_length() + 2)
            got = IntervalProblemSolver(p, mu, r_bits).solve_all(inter_scaled)
            assert got == [scaled_ceil(f, mu) for f in fracs]

    def test_interleave_points_equal_to_roots(self):
        """Adversarial: interleave approximations exactly on grid roots."""
        p = IntPoly.from_roots([0, 4, 8])
        mu = 3
        # true interleaving values happen to be the neighbouring roots
        # themselves shifted by exact grid amounts
        got = IntervalProblemSolver(p, mu, 5).solve_all([2 << mu, 6 << mu])
        assert got == [0, 4 << mu, 8 << mu]

    def test_stats_accumulate(self):
        p = IntPoly.from_roots([-10, 0, 10])
        st = IntervalStats()
        IntervalProblemSolver(p, 10, 5, CostCounter(), st).solve_all(
            [(-5) << 10, 5 << 10]
        )
        assert st.solves == st.case2c
        assert st.evaluations > 0
        assert len(st.per_solve) == st.solves

    def test_stats_merge(self):
        a, b = IntervalStats(evaluations=3, solves=1), IntervalStats(
            evaluations=4, case2c=2
        )
        a.merge(b)
        assert a.evaluations == 7
        assert a.case2c == 2
