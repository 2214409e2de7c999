"""Bit-identical parity: sequential vs pooled-parallel vs batched.

The acceptance bar of the persistent executor: every answer it returns
equals :class:`repro.core.rootfinder.RealRootFinder`'s ``scaled`` list
exactly — across solver strategies, degrees, degenerate inputs, pool
reuse, and the timeout degradation path.  ``fallback_count`` guards
that the happy-path assertions really exercised the pool (a silent
sequential fallback would make parity trivially true).
"""

import pytest

from repro.charpoly.generator import characteristic_input
from repro.core.rootfinder import RealRootFinder
from repro.core.tree import InterleavingTree
from repro.costmodel.counter import CostCounter
from repro.poly.dense import IntPoly
from repro.sched.executor import ParallelRootFinder

MU = 16

#: distinct integer roots per tested degree (33 matches the paper's
#: speedup-study scale; 8 is a multi-level tree; 1 and 2 are the
#: linear/smallest-tree edges).
ROOTS_BY_DEGREE = {
    1: [5],
    2: [-3, 4],
    8: [-11, -7, -4, -1, 2, 5, 9, 14],
    33: [-40, -38, -35, -33, -30, -28, -25, -22, -19, -17, -14, -12,
         -9, -6, -4, -1, 1, 3, 6, 8, 11, 13, 16, 18, 21, 24, 26, 29,
         31, 34, 36, 38, 39],
}


def sequential_scaled(p: IntPoly, strategy: str = "hybrid",
                      mu: int = MU) -> list[int]:
    return RealRootFinder(mu_bits=mu, strategy=strategy).find_roots(p).scaled


@pytest.fixture(scope="module")
def finder():
    """One pool for the whole module — reuse is part of what we test."""
    with ParallelRootFinder(mu=MU, processes=2) as f:
        yield f


@pytest.mark.slow
@pytest.mark.parametrize("strategy", ["hybrid", "bisection", "newton"])
@pytest.mark.parametrize("degree", sorted(ROOTS_BY_DEGREE))
def test_parity_across_strategies_and_degrees(finder, strategy, degree):
    p = IntPoly.from_roots(ROOTS_BY_DEGREE[degree])
    finder.strategy = strategy
    assert finder.find_roots_scaled(p) == sequential_scaled(p, strategy)
    assert finder.fallback_count == 0, "parity must come from the pool"


@pytest.mark.slow
def test_parity_at_paper_scale(finder):
    # The paper's largest input: its tree coefficients reach ~16,700
    # bits, beyond Python's 4300-digit limit for str(int), so nothing
    # on the dispatch path may render them in decimal.
    finder.strategy = "hybrid"
    p = characteristic_input(70, 1).poly
    assert finder.find_roots_scaled(p) == sequential_scaled(p)
    assert finder.fallback_count == 0


@pytest.mark.slow
def test_batched_matches_sequential(finder):
    finder.strategy = "hybrid"
    polys = [
        IntPoly.from_roots([-5, 1, 6]),
        IntPoly.from_roots([-2, 3]),
        IntPoly((7,)),                      # constant: no roots
        IntPoly.from_roots([-10, -4, 0, 8]),
    ]
    expected = [sequential_scaled(q) for q in polys]
    assert finder.find_roots_many(polys) == expected
    assert finder.fallback_count == 0


@pytest.mark.slow
def test_pool_reused_across_calls():
    with ParallelRootFinder(mu=12, processes=2) as f:
        a = f.find_roots_scaled(IntPoly.from_roots([-6, -1, 3, 8]))
        pids1 = f.worker_pids()
        b = f.find_roots_scaled(IntPoly.from_roots([-9, 2, 7]))
        pids2 = f.worker_pids()
    assert a == sequential_scaled(IntPoly.from_roots([-6, -1, 3, 8]), mu=12)
    assert b == sequential_scaled(IntPoly.from_roots([-9, 2, 7]), mu=12)
    assert len(pids1) == 2
    assert pids1 == pids2, "second call must reuse the same workers"
    assert f.fallback_count == 0
    assert f.worker_pids() == [], "close() shuts the pool down"


@pytest.mark.slow
def test_timeout_degrades_per_node_not_whole_poly():
    p = IntPoly.from_roots([-7, -2, 4, 9])
    # No pool worker can possibly finish within 0.1ms of dispatch (the
    # spawned interpreters are still booting), so every attempt times
    # out deterministically.  The degradation ladder finishes each task
    # in-parent — never the whole-polynomial sequential fallback — and
    # the call must still return the exact answer.
    with ParallelRootFinder(mu=MU, processes=2, task_timeout=1e-4) as f:
        assert f.find_roots_scaled(p) == sequential_scaled(p)
        assert f.fallback_count == 0
        assert f.metrics.counter("executor.task_timeouts").value > 0
        assert f.metrics.counter("executor.inline_tasks").value > 0
        assert f.worker_pids() == [], "wedged pool is discarded"


class TestEdgeCases:
    """The guards of satellite #1: same behaviour as the sequential
    finder on degenerate inputs (none of these need a live pool)."""

    def test_zero_polynomial_raises_value_error(self):
        f = ParallelRootFinder(mu=8, processes=2)
        with pytest.raises(ValueError, match="zero polynomial"):
            f.find_roots_scaled(IntPoly(()))

    def test_constant_returns_empty(self):
        f = ParallelRootFinder(mu=8, processes=2)
        assert f.find_roots_scaled(IntPoly((7,))) == []
        assert f.find_roots_scaled(IntPoly((-3,))) == []

    def test_linear_input_no_pool(self):
        f = ParallelRootFinder(mu=8, processes=2)
        assert f.find_roots_scaled(IntPoly((-10, 4))) == \
            sequential_scaled(IntPoly((-10, 4)), mu=8)
        assert f.worker_pids() == []

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            ParallelRootFinder(mu=0)
        with pytest.raises(ValueError):
            ParallelRootFinder(mu=8, processes=0)

    @pytest.mark.slow
    def test_repeated_roots_run_on_the_pool(self):
        # The Yun factors go through the shared pipeline, so the cubic
        # factor's plan is dispatched and the parent-side phases cost
        # exactly what the sequential finder's do (charged once).
        p = IntPoly.from_roots([2, 2, -5, -5, -5, 1, 7, 9])
        seq_counter = CostCounter()
        ref = RealRootFinder(mu_bits=MU, counter=seq_counter).find_roots(p)
        counter = CostCounter()
        with ParallelRootFinder(mu=MU, processes=2, counter=counter) as f:
            assert f.find_roots_scaled(p) == ref.scaled
            assert f.worker_pids(), "the factor's plan never reached the pool"
            assert f.fallback_count == 0
        for phase in ("remainder", "tree"):
            assert (counter.phase_stats(phase).total_bit_cost
                    == seq_counter.phase_stats(phase).total_bit_cost)


class TestCheckTreeThreading:
    """Satellite #2: the parallel path must run (and skip) the
    Theorem-1 verification exactly as configured, with the counter
    threaded through."""

    @staticmethod
    def _spy_compute(monkeypatch):
        seen = {}
        orig = InterleavingTree.compute_polynomials

        def spy(self, counter=None, check=False, tracer=None):
            seen["check"] = check
            seen["counter"] = counter
            if tracer is None:
                return orig(self, counter, check=check)
            return orig(self, counter, check=check, tracer=tracer)

        monkeypatch.setattr(InterleavingTree, "compute_polynomials", spy)
        return seen

    @pytest.mark.slow
    def test_check_tree_defaults_on_and_counter_threaded(self, monkeypatch):
        seen = self._spy_compute(monkeypatch)
        counter = CostCounter()
        with ParallelRootFinder(mu=8, processes=2, counter=counter) as f:
            f.find_roots_scaled(IntPoly.from_roots([-3, 2, 6]))
        assert seen["check"] is True
        assert seen["counter"] is counter
        assert counter.total_bit_cost > 0, "parent phases charge the counter"

    @pytest.mark.slow
    def test_check_tree_off_is_honored(self, monkeypatch):
        seen = self._spy_compute(monkeypatch)
        with ParallelRootFinder(mu=8, processes=2, check_tree=False) as f:
            f.find_roots_scaled(IntPoly.from_roots([-3, 2, 6]))
        assert seen["check"] is False
