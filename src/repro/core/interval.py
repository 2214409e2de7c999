"""The Interval Problems (paper Section 2.2) — exact case analysis plus
the hybrid sieve/bisection/Newton solver of :mod:`repro.core.sieve`.

Given a polynomial ``P`` with ``L`` distinct real roots and the scaled
mu-approximations of ``L - 1`` interleaving values (the roots of its
children in the tree), compute the scaled mu-approximation of every
root of ``P``.

All decisions are made from *exact integer signs*.  The only subtlety
beyond the paper's presentation is the measure-zero event that an
approximation point is itself a root of ``P``; the paper's sign-parity
trick then sees a zero sign.  We resolve it exactly with one derivative
evaluation: near a simple root ``t0``, ``sign(P(t0 + eps)) =
sign(P'(t0))``.  This keeps every gap's decision independent of its
neighbours — exactly what the INTERVAL tasks of Section 3.2 need.
"""

from __future__ import annotations

from repro.costmodel.counter import NULL_COUNTER, CostCounter
from repro.obs.trace import NULL_TRACER, Tracer
from repro.core.scaling import ceil_div
from repro.core.sieve import HybridSolver, IntervalStats
from repro.poly.dense import IntPoly
from repro.poly.eval import ScaledEvaluator, scaled_eval

__all__ = [
    "IntervalProblemSolver",
    "IntervalStats",
    "sign_plus",
    "solve_linear_scaled",
]

PHASE_PREINTERVAL = "interval.preinterval"


def sign_plus(
    p: IntPoly,
    dp: IntPoly,
    y: int,
    w: int,
    counter: CostCounter = NULL_COUNTER,
    stats: IntervalStats | None = None,
) -> int:
    """Sign of ``p`` just *right* of the grid point ``y / 2**w``.

    For ``p(y/2**w) != 0`` this is the plain sign; at an exact (simple)
    root it is the sign of the derivative there.  ``p`` must be
    square-free for the derivative tie-break to be valid.
    """
    v = scaled_eval(p, y, w, counter)
    if stats is not None:
        stats.evaluations += 1
    if v != 0:
        return 1 if v > 0 else -1
    dv = scaled_eval(dp, y, w, counter)
    if stats is not None:
        stats.evaluations += 1
    if dv == 0:
        raise ArithmeticError(
            "polynomial and derivative both vanish — input not square-free"
        )
    return 1 if dv > 0 else -1


def solve_linear_scaled(p: IntPoly, mu: int) -> int:
    """Scaled mu-approximation of the root of a linear polynomial.

    The tree's leaves are linear (paper: "the leaves of the tree
    correspond to linear polynomials, whose roots are easy to
    estimate").  Root of ``q1*x + q0`` is ``-q0/q1``.
    """
    if p.degree != 1:
        raise ValueError("solve_linear_scaled needs a degree-1 polynomial")
    q0, q1 = p.coefficient(0), p.coefficient(1)
    if q1 < 0:
        q0, q1 = -q0, -q1
    return ceil_div((-q0) << mu, q1)


class IntervalProblemSolver:
    """Solves all interval problems for one node polynomial.

    Parameters
    ----------
    p:
        The node polynomial (distinct real roots, positive leading
        coefficient).
    mu:
        Bits of output precision (scaled grid is ``2**-mu``).
    r_bits:
        All roots of ``p`` lie strictly inside ``(-2**r_bits, 2**r_bits)``
        — the paper's ``R``; the sentinels ``y_0, y_L`` (Section 2.2).
    tracer:
        Observability hook; a real tracer gets one span per case-2c gap
        and one ``interval_case`` event per gap (see
        :mod:`repro.obs.events`).
    label:
        Free-form origin tag (the tree-node label) stamped on events.
    """

    def __init__(
        self,
        p: IntPoly,
        mu: int,
        r_bits: int,
        counter: CostCounter = NULL_COUNTER,
        stats: IntervalStats | None = None,
        strategy: str = "hybrid",
        tracer: Tracer = NULL_TRACER,
        label: str = "",
    ):
        if p.degree < 1:
            raise ValueError("need a nonconstant polynomial")
        self.p = p
        self.dp = p.derivative()
        self.mu = mu
        self.r_bits = r_bits
        self.counter = counter
        self.stats = stats if stats is not None else IntervalStats()
        self.tracer = tracer
        self.label = label
        self.sentinel = 1 << (r_bits + mu)
        self._ev_p = ScaledEvaluator(self.p, mu)
        self._ev_dp = ScaledEvaluator(self.dp, mu)
        self._solver = HybridSolver(
            self.p, self.dp, mu, counter=counter, stats=self.stats,
            strategy=strategy, tracer=tracer,
        )

    # -- PREINTERVAL: evaluate the polynomial at every interleaving point --
    def preinterval_sign(self, y_scaled: int) -> int:
        """Sign of ``p`` just right of one interleaving approximation.

        One of these per interleaving point is the grain of the paper's
        PREINTERVAL tasks.
        """
        with self.counter.phase(PHASE_PREINTERVAL):
            v = self._ev_p.eval(y_scaled, self.counter)
            self.stats.evaluations += 1
            self.stats.preinterval_evals += 1
            if v != 0:
                return 1 if v > 0 else -1
            dv = self._ev_dp.eval(y_scaled, self.counter)
            self.stats.evaluations += 1
            if dv == 0:
                raise ArithmeticError(
                    "polynomial and derivative both vanish — input not "
                    "square-free"
                )
            return 1 if dv > 0 else -1

    def preinterval_signs(self, ys_scaled: list[int]) -> list[int]:
        """Signs just right of every point of ``ys_scaled`` — the whole
        PREINTERVAL stage for one node.

        Each endpoint is evaluated exactly once; adjacent gaps share
        their common endpoint's sign instead of each recomputing it
        (half the endpoint evaluations of solving every gap on its own).

        The whole vector is evaluated with one batched Horner call
        (:meth:`ScaledEvaluator.eval_many`), reusing the shifted
        coefficient payload; derivative tie-breaks happen only for the
        (rare) exact zeros.  Per-point op order matches
        :meth:`preinterval_sign`, so phase totals are bit-identical to
        the per-point loop.
        """
        with self.counter.phase(PHASE_PREINTERVAL):
            vals = self._ev_p.eval_many(ys_scaled, self.counter)
            self.stats.evaluations += len(ys_scaled)
            self.stats.preinterval_evals += len(ys_scaled)
            signs: list[int] = []
            for y, v in zip(ys_scaled, vals):
                if v != 0:
                    signs.append(1 if v > 0 else -1)
                    continue
                dv = self._ev_dp.eval(y, self.counter)
                self.stats.evaluations += 1
                if dv == 0:
                    raise ArithmeticError(
                        "polynomial and derivative both vanish — input not "
                        "square-free"
                    )
                signs.append(1 if dv > 0 else -1)
            return signs

    # -- full solve ------------------------------------------------------
    def solve_all(self, interleave_scaled: list[int]) -> list[int]:
        """Return the scaled mu-approximations of all roots, ascending.

        ``interleave_scaled`` must be the sorted scaled approximations of
        the ``deg(p) - 1`` interleaving values.
        """
        L = self.p.degree
        if len(interleave_scaled) != L - 1:
            raise ValueError(
                f"need {L - 1} interleaving points, got {len(interleave_scaled)}"
            )
        if L == 1:
            return [solve_linear_scaled(self.p, self.mu)]

        ys = [-self.sentinel] + list(interleave_scaled) + [self.sentinel]
        signs = self.preinterval_signs(ys)
        sign_at_minus_inf = self.p.sign_at_neg_inf()

        out: list[int] = []
        for i in range(L):
            out.append(
                self.solve_gap(
                    i, ys[i], ys[i + 1], signs[i], signs[i + 1], sign_at_minus_inf
                )
            )
        return out

    # -- the case analysis of Section 2.2 -----------------------------------
    def solve_gap(
        self,
        i: int,
        left: int,
        right: int,
        s_left: int,
        s_right: int,
        sign_at_minus_inf: int,
    ) -> int:
        """Return the scaled approximation of root ``x_i in (left, right]``.

        ``s_left`` / ``s_right`` are the just-right-of signs of ``p`` at
        the endpoints.  ``left``/``right`` are the scaled approximations
        ``ytilde_i`` and ``ytilde_{i+1}`` (with sentinels at the ends).
        """
        st = self.stats
        tracer = self.tracer
        # Case 1: coincident approximations pin the root's approximation.
        if left == right:
            st.case1 += 1
            tracer.event("interval_case", node=self.label, gap=i, case="1")
            return left

        # Case 2: count roots <= left via the parity trick (paper's r_i,
        # adapted to "just right of" signs so exact hits are counted).
        # u = #roots <= ytilde_i, known to be i or i+1.
        parity_even = s_left == sign_at_minus_inf * (1 if i % 2 == 0 else -1)
        u = i if parity_even else i + 1

        if u == i + 1:
            # Case 2a: x_i in (ytilde_i - 2^-mu, ytilde_i] -> approx is ytilde_i.
            st.case2a += 1
            tracer.event("interval_case", node=self.label, gap=i, case="2a")
            return left

        # x_i > left.  b = ytilde_{i+1} - one grid step.
        b = right - 1
        if b == left:
            # Zero-width middle region: root in (b, right] directly.
            st.case2b += 1
            tracer.event("interval_case", node=self.label, gap=i, case="2b")
            return right
        s_b = self.preinterval_sign(b)
        if s_b == s_left:
            # Case 2b: no root in (left, b] -> x_i in (b, right].
            st.case2b += 1
            tracer.event("interval_case", node=self.label, gap=i, case="2b")
            return right

        # Case 2c: x_i isolated in (left, b]; run the hybrid solver.
        st.case2c += 1
        with tracer.span("interval.solve", phase="interval",
                         node=self.label, gap=i):
            result = self._solver.solve(left, b, s_left)
        sieve_e, bisect_e, newton_i = st.per_solve[-1]
        tracer.event(
            "interval_case", node=self.label, gap=i, case="2c",
            sieve_evals=sieve_e, bisection_evals=bisect_e,
            newton_iters=newton_i,
        )
        return result
