"""The hybrid root solver: double-exponential sieve, bisection, Newton.

This is the paper's Section 2.2 method for Case 2c — a true isolating
interval ``(a, b]`` containing exactly one root ``xi`` of ``p``:

1. **Double-exponential sieve** (Ben-Or & Tiwari): probe at offsets
   ``l/2, l/4, l/16, l/256, ...`` (``l / 2**(2**t)``) from the near end
   until the root is pinned in an interval whose distance from the
   dangerous end is at least half its length.  At that point the nearest
   *other* root of ``p`` is at least half the bracket length away, so by
   Renegar's lemma (Lemma 2.1) a further ``log2(10 d^2)`` bisections
   make any point of the bracket a quadratically convergent Newton
   start.
2. **Bisection**: exactly ``ceil(log2(10 d^2))`` halvings.
3. **Newton**: integer Newton steps on the scaled grid, each certified
   against a maintained sign bracket, with automatic bisection fallback
   whenever a step fails to shrink the bracket — so the solver is
   *always* exact and terminating, and quadratically convergent in the
   regular case.

Everything operates on the integer grid ``y = 2**mu * x``; the answer
returned is exactly ``ceil(2**mu * xi)``.

Deviation noted for reviewers: after a sieve round ends with the root in
the right part of the scanned interval, the paper tests ``xi >= a + l1/2``
explicitly; here that test *is* the next round's first probe, which can
cost one extra evaluation per round but preserves the
``O(log^2 X)``-evaluations worst case (Eq. 38) and the constant-rounds
average case (Eq. 41).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.costmodel.counter import NULL_COUNTER, CostCounter
from repro.obs.trace import NULL_TRACER, Tracer
from repro.poly.dense import IntPoly
from repro.poly.eval import ScaledEvaluator

__all__ = ["HybridSolver", "IntervalStats", "bisection_budget"]

PHASE_SIEVE = "interval.sieve"
PHASE_BISECTION = "interval.bisection"
PHASE_NEWTON = "interval.newton"


def bisection_budget(degree: int) -> int:
    """``ceil(log2(10 * d^2))`` — the bisection count of Section 2.2."""
    target = 10 * degree * degree
    return max(1, (target - 1).bit_length())


@dataclass
class IntervalStats:
    """Per-phase evaluation and iteration counters for one run.

    These are the observables behind Figures 6-7 (bisection-phase
    multiplication counts / bit complexity) and the I(X, d) iteration
    model of Eqs. (38) and (41).
    """

    evaluations: int = 0
    preinterval_evals: int = 0
    sieve_evals: int = 0
    bisection_evals: int = 0
    newton_evals: int = 0
    newton_iters: int = 0
    sieve_rounds: int = 0
    solves: int = 0
    case1: int = 0
    case2a: int = 0
    case2b: int = 0
    case2c: int = 0
    #: per-solve (sieve_evals, bisection_evals, newton_iters) triples
    per_solve: list[tuple[int, int, int]] = field(default_factory=list)

    def merge(self, other: "IntervalStats") -> None:
        self.evaluations += other.evaluations
        self.preinterval_evals += other.preinterval_evals
        self.sieve_evals += other.sieve_evals
        self.bisection_evals += other.bisection_evals
        self.newton_evals += other.newton_evals
        self.newton_iters += other.newton_iters
        self.sieve_rounds += other.sieve_rounds
        self.solves += other.solves
        self.case1 += other.case1
        self.case2a += other.case2a
        self.case2b += other.case2b
        self.case2c += other.case2c
        self.per_solve.extend(other.per_solve)


def _nearest_div(a: int, b: int) -> int:
    """Round ``a / b`` to the nearest integer (ties toward +inf); any b != 0."""
    if b < 0:
        a, b = -a, -b
    q, r = divmod(a, b)
    if 2 * r >= b:
        q += 1
    return q


#: Interval-solver strategies (paper Section 2.2: "there are several
#: ways to estimate the root" — bisection, Newton, and the hybrid).
STRATEGIES = ("hybrid", "bisection", "newton")


class HybridSolver:
    """Finds ``ceil(2**mu * xi)`` for an isolated root ``xi`` of ``p``.

    The solver never trusts convergence heuristics: it maintains the
    bracket invariant ``sign+(lo) == sigma_a`` and ``sign+(hi) != sigma_a``
    (where ``sign+`` is the sign just right of a grid point), shrinks it
    monotonically, and returns ``hi`` when the bracket has length one.

    ``strategy`` selects among the paper's Section 2.2 alternatives:

    * ``"hybrid"`` (default, the paper's choice): sieve, then
      ``log2(10 d^2)`` bisections, then guarded Newton — worst case
      ``O(log^2 X)`` evaluations, typical ``O(log d + log X)``;
    * ``"bisection"``: binary search only — ``Theta(log(bracket))``,
      i.e. linear in ``mu``, the classical method the hybrid beats;
    * ``"newton"``: guarded Newton directly from the raw bracket, no
      sieve/bisection warm-up — exact (the bracket guard guarantees
      termination) but without Renegar's quadratic-from-the-start
      guarantee.
    """

    def __init__(
        self,
        p: IntPoly,
        dp: IntPoly,
        mu: int,
        counter: CostCounter = NULL_COUNTER,
        stats: IntervalStats | None = None,
        strategy: str = "hybrid",
        tracer: Tracer = NULL_TRACER,
    ):
        if strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {strategy!r}; pick one of {STRATEGIES}"
            )
        self.p = p
        self.dp = dp
        self.mu = mu
        self.counter = counter
        self.stats = stats if stats is not None else IntervalStats()
        self.strategy = strategy
        self.tracer = tracer
        # One-time coefficient scaling (paper Sec 4.3): evaluations are
        # then pure integer Horner with no per-step shifting.
        self.ev_p = ScaledEvaluator(p, mu)
        self.ev_dp = ScaledEvaluator(dp, mu)

    # -- counted sign probe -------------------------------------------------
    def _sign_plus(self, y: int, phase: str, bucket: str) -> int:
        with self.counter.phase(phase):
            v = self.ev_p.eval(y, self.counter)
            self.stats.evaluations += 1
            setattr(self.stats, bucket, getattr(self.stats, bucket) + 1)
            if v != 0:
                return 1 if v > 0 else -1
            dv = self.ev_dp.eval(y, self.counter)
            self.stats.evaluations += 1
            setattr(self.stats, bucket, getattr(self.stats, bucket) + 1)
            if dv == 0:
                raise ArithmeticError("p and p' vanish together: not square-free")
            return 1 if dv > 0 else -1

    # -- the three phases ----------------------------------------------------
    def solve(self, lo: int, hi: int, sigma_a: int) -> int:
        """Return ``min{C in (lo, hi] : sign+(C) != sigma_a}``.

        Preconditions (guaranteed by the Case 2c analysis): exactly one
        root of ``p`` lies in ``(lo/2**mu, hi/2**mu]``; ``sign+(lo) ==
        sigma_a`` and ``sign+(hi) != sigma_a``.
        """
        if hi <= lo:
            raise ValueError("empty bracket")
        self.stats.solves += 1
        bracket0 = hi - lo
        ev0_s = self.stats.sieve_evals
        ev0_b = self.stats.bisection_evals
        it0_n = self.stats.newton_iters

        # Each loop runs in its own phase so that phase's wall time also
        # covers the probe picking between its (same-phase) evaluations.
        phase = self.counter.phase
        if self.strategy == "bisection":
            with phase(PHASE_BISECTION):
                result = self._pure_bisection(lo, hi, sigma_a)
        elif self.strategy == "newton":
            with phase(PHASE_NEWTON):
                result = self._newton_phase(lo, hi, sigma_a)
        else:
            with phase(PHASE_SIEVE):
                lo, hi = self._sieve_phase(lo, hi, sigma_a)
            with phase(PHASE_BISECTION):
                lo, hi = self._bisection_phase(lo, hi, sigma_a)
            with phase(PHASE_NEWTON):
                result = self._newton_phase(lo, hi, sigma_a)

        sieve_e = self.stats.sieve_evals - ev0_s
        bisect_e = self.stats.bisection_evals - ev0_b
        newton_i = self.stats.newton_iters - it0_n
        self.stats.per_solve.append((sieve_e, bisect_e, newton_i))
        self.tracer.event(
            "hybrid_solve", strategy=self.strategy, sieve_evals=sieve_e,
            bisection_evals=bisect_e, newton_iters=newton_i,
            bracket_bits=bracket0.bit_length(),
        )
        return result

    def _sieve_phase(self, lo: int, hi: int, sigma_a: int) -> tuple[int, int]:
        """Double-exponential sieve toward the end the root is close to.

        The first (midpoint) probe decides which end is *dangerous*: the
        one whose far side may hold other roots of ``p`` arbitrarily
        close by.  The sieve then probes at offsets ``l / 2**(2**t)``
        from that end (paper's WLOG-left case, mirrored when the root
        falls in the right half).  A round ends when a probe finds the
        root beyond it; if that probe was the round's midpoint (t = 0),
        the root now sits at distance >= half the bracket from both
        dangerous regions and the sieve stops — Renegar's condition for
        the subsequent ``log2(10 d^2)`` bisections.
        """
        if hi - lo <= 2:
            return lo, hi
        length = hi - lo
        mid = lo + (length >> 1)
        if self._sign_plus(mid, PHASE_SIEVE, "sieve_evals") != sigma_a:
            hi = mid
            toward_lo = True
        else:
            lo = mid
            toward_lo = False

        while hi - lo > 2:
            self.stats.sieve_rounds += 1
            length = hi - lo
            t = 0
            round_done = False
            while hi - lo > 2:
                shift = 1 << t  # probe offset = length / 2**(2**t)
                off = length >> shift if shift < length.bit_length() else 0
                if off < 1:
                    off = 1
                pt = lo + off if toward_lo else hi - off
                if pt <= lo or pt >= hi:
                    if off <= 1:
                        round_done = True
                        break
                    t += 1
                    continue
                s = self._sign_plus(pt, PHASE_SIEVE, "sieve_evals")
                near_side = (s != sigma_a) if toward_lo else (s == sigma_a)
                if near_side:
                    # Root between the dangerous end and the probe: zoom in.
                    if toward_lo:
                        hi = pt
                    else:
                        lo = pt
                    t += 1
                else:
                    # Root beyond the probe: the dangerous end is now at
                    # distance >= off from the root.
                    if toward_lo:
                        lo = pt
                    else:
                        hi = pt
                    round_done = t == 0
                    break
            else:
                round_done = True
            if round_done:
                break
        return lo, hi

    def _pure_bisection(self, lo: int, hi: int, sigma_a: int) -> int:
        """The classical method: halve until the bracket has length one."""
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            if self._sign_plus(mid, PHASE_BISECTION, "bisection_evals") == sigma_a:
                lo = mid
            else:
                hi = mid
        return hi

    def _bisection_phase(self, lo: int, hi: int, sigma_a: int) -> tuple[int, int]:
        budget = bisection_budget(self.p.degree)
        for _ in range(budget):
            if hi - lo <= 1:
                break
            mid = (lo + hi) >> 1
            if self._sign_plus(mid, PHASE_BISECTION, "bisection_evals") == sigma_a:
                lo = mid
            else:
                hi = mid
        return lo, hi

    def _newton_phase(self, lo: int, hi: int, sigma_a: int) -> int:
        """Bracket-guarded integer Newton.

        The iterates typically converge to the root *from one side*, so
        the far bracket edge never moves on its own; demanding the
        bracket close by sign updates alone would degrade to bisection
        (one bit per step).  Instead, when a Newton step shrinks below
        one grid unit — which, in the quadratic basin guaranteed by the
        sieve + bisection phases, means the true root is within a grid
        step of the current iterate — the answer is certified with a
        single probe adjacent to the converged edge.
        """
        counter = self.counter
        z = (lo + hi) >> 1
        if z <= lo:
            z = hi
        while hi - lo > 1:
            self.stats.newton_iters += 1
            with counter.phase(PHASE_NEWTON):
                pv = self.ev_p.eval(z, counter)
                dv = self.ev_dp.eval(z, counter)
            self.stats.evaluations += 2
            self.stats.newton_evals += 2
            # z's sign updates the bracket (derivative breaks exact hits).
            if pv != 0:
                s = 1 if pv > 0 else -1
            else:
                s = 1 if dv > 0 else (-1 if dv < 0 else 0)
                if s == 0:
                    raise ArithmeticError("p and p' vanish together")
            if s == sigma_a:
                lo = max(lo, z)
            else:
                hi = min(hi, z)
            if hi - lo <= 1:
                break
            # Newton step in grid units: 2**mu * p(x)/p'(x) with
            # pv = 2**(d*mu) p(x) and dv = 2**((d-1)*mu) p'(x), so the
            # scale factors cancel to exactly pv/dv.
            delta = _nearest_div(pv, dv) if dv != 0 else None
            if delta is not None and abs(delta) <= 1:
                # Converged to sub-grid accuracy: certify at the edge.
                if s != sigma_a:
                    # Root <= z = hi; is it in (hi-1, hi]?
                    probe = hi - 1
                    if self._sign_plus(probe, PHASE_NEWTON, "newton_evals") == sigma_a:
                        return hi
                    hi = probe
                else:
                    # Root > z = lo; is it in (lo, lo+1]?
                    probe = lo + 1
                    if self._sign_plus(probe, PHASE_NEWTON, "newton_evals") != sigma_a:
                        return probe
                    lo = probe
                if hi - lo <= 1:
                    break
                z = (lo + hi) >> 1
                continue
            z_next = z - delta if delta is not None else (lo + hi) >> 1
            if not (lo < z_next < hi) or z_next == z:
                z_next = (lo + hi) >> 1  # bisection fallback
                if z_next <= lo:
                    z_next = hi
            z = z_next
        return hi
