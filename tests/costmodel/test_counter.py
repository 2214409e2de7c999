"""Tests for the cost counter and the quadratic bit-cost model."""

import pytest

import repro.costmodel.counter as counter_mod
from repro.costmodel.counter import (
    NULL_COUNTER,
    CostCounter,
    NullCounter,
    PhaseStats,
    bit_length,
)


class TestBitLength:
    def test_zero_charges_one(self):
        assert bit_length(0) == 1

    def test_matches_abs_bit_length(self):
        assert bit_length(-255) == 8
        assert bit_length(256) == 9


class TestCharging:
    def test_mul_returns_product_and_charges(self):
        c = CostCounter()
        assert c.mul(6, 7) == 42
        st = c.phase_stats()
        assert st.mul_count == 1
        assert st.mul_bit_cost == 3 * 3

    def test_divmod_returns_pair(self):
        c = CostCounter()
        assert c.divmod(17, 5) == (3, 2)
        assert c.phase_stats().div_count == 1

    def test_exact_div(self):
        c = CostCounter()
        assert c.exact_div(15, 5) == 3
        with pytest.raises(ArithmeticError):
            c.exact_div(16, 5)

    def test_add_sub_linear_cost(self):
        c = CostCounter()
        c.add(255, 1)
        c.sub(255, 1)
        st = c.phase_stats()
        assert st.add_count == 2
        assert st.add_bit_cost == 16

    def test_shift(self):
        c = CostCounter()
        assert c.shift_left(3, 4) == 48
        assert c.phase_stats().add_count == 1


class TestPhases:
    def test_attribution(self):
        c = CostCounter()
        c.mul(2, 2)
        with c.phase("alpha"):
            c.mul(2, 2)
            with c.phase("beta"):
                c.mul(2, 2)
            c.mul(2, 2)
        assert c.stats[""].mul_count == 1
        assert c.stats["alpha"].mul_count == 2
        assert c.stats["beta"].mul_count == 1

    def test_prefix_aggregation(self):
        c = CostCounter()
        with c.phase("interval.sieve"):
            c.mul(2, 2)
        with c.phase("interval.newton"):
            c.mul(2, 2)
        with c.phase("tree"):
            c.mul(2, 2)
        assert c.phase_stats("interval").mul_count == 2
        assert c.phase_stats().mul_count == 3

    def test_phase_restored_after_exception(self):
        c = CostCounter()
        with pytest.raises(RuntimeError):
            with c.phase("x"):
                raise RuntimeError
        assert c.current_phase == ""

    def test_totals_properties(self):
        c = CostCounter()
        with c.phase("p"):
            c.mul(1000, 1000)
        assert c.mul_count == 1
        assert c.mul_bit_cost == 100
        assert c.total_bit_cost == 100

    def test_report_contains_phases(self):
        c = CostCounter()
        with c.phase("myphase"):
            c.mul(5, 5)
        rep = c.report()
        assert "myphase" in rep and "TOTAL" in rep

    def test_phases_listing(self):
        c = CostCounter()
        with c.phase("b"):
            c.mul(1, 1)
        with c.phase("a"):
            c.mul(1, 1)
        assert c.phases() == ["a", "b"]


class FakeClock:
    """A ``perf_counter_ns`` stand-in that advances only when told."""

    def __init__(self):
        self.now = 1_000
        self.reads = 0

    def __call__(self):
        self.reads += 1
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(counter_mod, "perf_counter_ns", fake)
    return fake


class TestPhaseWalls:
    def test_nested_phases_charged_exclusively(self, clock):
        c = CostCounter()
        clock.now += 5              # outside every phase: charged nowhere
        with c.phase("outer"):
            clock.now += 10
            with c.phase("inner"):
                clock.now += 100
            clock.now += 20
            with c.phase("inner"):
                clock.now += 1
            clock.now += 3
        clock.now += 7
        with c.phase("other"):
            clock.now += 50
        assert dict(c.wall_ns) == {"outer": 33, "inner": 101, "other": 50}
        # The walls sum to the time spent inside any phase.
        assert sum(c.wall_ns.values()) == 184

    def test_same_name_nested_stays_one_phase(self, clock):
        c = CostCounter()
        with c.phase("interval.sieve"):
            clock.now += 4
            with c.phase("interval.sieve"):
                clock.now += 6
            clock.now += 2
        assert dict(c.wall_ns) == {"interval.sieve": 12}

    def test_one_clock_read_per_transition(self, clock):
        c = CostCounter()
        with c.phase("a"):
            with c.phase("b"):
                pass
        assert clock.reads == 4

    def test_wall_charged_when_phase_raises(self, clock):
        c = CostCounter()
        with pytest.raises(RuntimeError):
            with c.phase("x"):
                clock.now += 9
                raise RuntimeError
        assert c.wall_ns["x"] == 9 and c.current_phase == ""

    def test_null_counter_never_reads_clock(self, clock):
        with NULL_COUNTER.phase("a"):
            with NULL_COUNTER.phase("b"):
                clock.now += 1
        n = NullCounter()
        with n.phase("c"):
            pass
        assert clock.reads == 0
        assert not NULL_COUNTER.wall_ns and not n.wall_ns

    def test_snapshot_and_diff_ignore_walls(self, clock):
        c = CostCounter()
        with c.phase("p"):
            clock.now += 1_000
            c.mul(1000, 1000)
            snap = c.snapshot()
            clock.now += 1_000
            c.add(1, 1)
        assert snap == {"p": (1, 100, 0, 0, 0, 0)}
        assert c.diff(snap) == {"p": PhaseStats(add_count=1, add_bit_cost=1)}


class TestPhaseStats:
    def test_merged(self):
        a = PhaseStats(mul_count=1, mul_bit_cost=10)
        b = PhaseStats(mul_count=2, mul_bit_cost=20, add_count=3)
        m = a.merged(b)
        assert m.mul_count == 3
        assert m.mul_bit_cost == 30
        assert m.add_count == 3

    def test_op_count(self):
        s = PhaseStats(mul_count=1, div_count=2, add_count=3)
        assert s.op_count == 6


class TestNullCounter:
    def test_is_free_and_correct(self):
        n = NullCounter()
        assert n.mul(6, 7) == 42
        assert n.divmod(17, 5) == (3, 2)
        assert n.add(1, 2) == 3
        assert n.sub(5, 2) == 3
        assert n.shift_left(1, 3) == 8
        assert n.phase_stats().mul_count == 0

    def test_exact_div_still_checks(self):
        with pytest.raises(ArithmeticError):
            NullCounter().exact_div(7, 2)

    def test_phase_noop(self):
        with NULL_COUNTER.phase("anything"):
            pass
        assert NULL_COUNTER.phase_stats().op_count == 0

    def test_phase_is_one_shared_context(self):
        assert NULL_COUNTER.phase("a") is NULL_COUNTER.phase("b")
        with NULL_COUNTER.phase("a"):
            assert NULL_COUNTER.current_phase == ""
        assert NULL_COUNTER.current_phase == ""
