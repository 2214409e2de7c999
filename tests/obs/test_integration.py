"""End-to-end observability: traced runs vs. the cost counter's truth."""

import io
import json

from repro.core.rootfinder import RealRootFinder
from repro.costmodel.counter import CostCounter
from repro.obs.events import EventLog, validate_events
from repro.obs.rollup import level_wall_ns, self_wall_ns
from repro.obs.trace import Tracer
from repro.poly.dense import IntPoly


def _traced_find_roots(roots, mu=24, **kwargs):
    counter = CostCounter()
    buf = io.StringIO()
    log = EventLog(buf)
    log.run_header("test", mu_bits=mu)
    tracer = Tracer(counter=counter, sink=log)
    finder = RealRootFinder(mu_bits=mu, counter=counter, tracer=tracer,
                            **kwargs)
    result = finder.find_roots(IntPoly.from_roots(roots))
    log.run_end(counter=counter, stats=result.stats)
    log.close()
    events = [json.loads(ln) for ln in buf.getvalue().splitlines()]
    return result, counter, tracer, events


class TestTracedRun:
    def test_every_span_closes_and_costs_match_counter(self):
        # The acceptance criterion: per-phase bit costs in the JSONL
        # exactly match CostCounter.phases totals.
        result, counter, tracer, events = _traced_find_roots([-7, -1, 0, 3, 12])
        validate_events(events)
        assert result.as_floats() == [-7.0, -1.0, 0.0, 3.0, 12.0]
        root = tracer.spans[0]
        assert root.name == "find_roots"
        got = {ph: st.total_bit_cost for ph, st in root.cost.items()}
        expect = {
            ph: st.total_bit_cost
            for ph, st in counter.stats.items() if st.total_bit_cost
        }
        assert got == expect
        assert set(counter.phases()) >= set(got)

    def test_interval_case_events_match_stats(self):
        result, _, _, events = _traced_find_roots([-7, -1, 0, 3, 12])
        cases = [e for e in events if e["ev"] == "interval_case"]
        st = result.stats
        assert len(cases) == st.case1 + st.case2a + st.case2b + st.case2c
        by_case = {}
        for e in cases:
            by_case[e["case"]] = by_case.get(e["case"], 0) + 1
        assert by_case.get("2c", 0) == st.case2c
        # 2c events report the per-solve phase step counts.
        for e in cases:
            if e["case"] == "2c":
                assert {"sieve_evals", "bisection_evals",
                        "newton_iters"} <= set(e)

    def test_hybrid_solve_events_one_per_2c(self):
        result, _, _, events = _traced_find_roots([-7, -1, 0, 3, 12])
        solves = [e for e in events if e["ev"] == "hybrid_solve"]
        assert len(solves) == result.stats.case2c == result.stats.solves

    def test_multiplicity_path_traces_factors(self):
        result, counter, tracer, events = _traced_find_roots([2, 2, 7])
        validate_events(events)
        assert result.multiplicities == [2, 1]
        names = [s.name for s in tracer.spans]
        assert "square_free_decomposition" in names
        assert "factor" in names

    def test_untraced_run_unchanged(self):
        # Null path: same answers, no spans anywhere.
        counter = CostCounter()
        finder = RealRootFinder(mu_bits=24, counter=counter)
        result = finder.find_roots(IntPoly.from_roots([-7, -1, 0, 3, 12]))
        traced = _traced_find_roots([-7, -1, 0, 3, 12])[0]
        assert result.scaled == traced.scaled


class TestRollups:
    def test_phase_walls_sum_to_root_wall(self):
        # The counter's exclusive phase walls fit inside the run's root
        # span and cover every phase the algorithm brackets.
        result, counter, tracer, _ = _traced_find_roots([-7, -1, 0, 3, 12])
        assert result.stats.case2c > 0
        root = tracer.spans[0]
        assert root.name == "find_roots"
        assert 0 < sum(counter.wall_ns.values()) <= root.wall_ns
        for ph in ("remainder", "tree", "interval.preinterval",
                   "interval.sieve", "interval.bisection",
                   "interval.newton"):
            assert counter.wall_ns[ph] > 0, ph

    def test_self_time_nonnegative_for_sequential_spans(self):
        _, _, tracer, _ = _traced_find_roots([-7, -1, 0, 3, 12])
        self_ns = self_wall_ns(tracer.spans)
        assert all(v >= 0 for v in self_ns.values())

    def test_level_rollup_uses_node_attrs(self):
        _, _, tracer, _ = _traced_find_roots([-9, -4, -1, 3, 8, 15, 22])
        levels = level_wall_ns(tracer.spans)
        assert levels, "per-node spans should carry level attrs"
        assert all(isinstance(k, int) for k in levels)
