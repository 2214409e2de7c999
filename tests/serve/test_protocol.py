"""Request parsing / response building: the daemon's wire contract."""

import json

import pytest

from repro.resilience.budget import BudgetExceeded, PartialResult
from repro.serve.protocol import (
    HTTP_REASONS,
    MAX_DEGREE,
    MAX_PRIORITY,
    ProtocolError,
    Request,
    control_op,
    error_response,
    metrics_response,
    ok_response,
    overloaded_response,
    parse_request,
    partial_response,
    salvage_id,
    shutdown_response,
)


def parse(obj, **kw):
    kw.setdefault("default_mu", 16)
    return parse_request(obj, **kw)


class TestParseRequest:
    def test_minimal_coeffs(self):
        req = parse({"id": 7, "coeffs": [-6, 1, 1]})
        assert req.id == 7
        assert req.coeffs == (-6, 1, 1)
        assert req.mu == 16
        assert req.strategy == "hybrid"
        assert req.deadline_seconds is None
        assert req.max_bit_ops is None
        assert req.priority == 0

    def test_roots_input(self):
        req = parse({"roots": [-3, 2]})
        assert req.coeffs == (-6, 1, 1)

    def test_trailing_zeros_normalized(self):
        """Equivalent spellings share one coefficient tuple (one key)."""
        a = parse({"coeffs": [-2, 0, 1]})
        b = parse({"coeffs": [-2, 0, 1, 0, 0]})
        assert a.coeffs == b.coeffs

    def test_exactly_one_polynomial_spelling(self):
        with pytest.raises(ProtocolError, match="exactly one"):
            parse({"coeffs": [1, 2], "roots": [1]})
        with pytest.raises(ProtocolError, match="exactly one"):
            parse({"id": 1})

    @pytest.mark.parametrize("bad", [
        {"coeffs": []},
        {"coeffs": "nope"},
        {"coeffs": [0, 0]},          # the zero polynomial
        {"coeffs": [5]},             # constant
        {"coeffs": [1, "x"]},
        {"roots": []},
        {"roots": 3},
    ])
    def test_bad_polynomials(self, bad):
        with pytest.raises(ProtocolError):
            parse(bad)

    def test_not_an_object(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            parse([1, 2, 3])

    def test_degree_cap(self):
        coeffs = [0] * (MAX_DEGREE + 1) + [1]
        coeffs[0] = 1
        with pytest.raises(ProtocolError, match="exceeds the limit"):
            parse({"coeffs": coeffs})

    def test_overrides(self):
        req = parse({"coeffs": [-2, 0, 1], "bits": 24,
                     "strategy": "newton", "deadline_seconds": 1.5,
                     "bit_budget": 1000, "priority": -3})
        assert (req.mu, req.strategy) == (24, "newton")
        assert req.deadline_seconds == 1.5
        assert req.max_bit_ops == 1000
        assert req.priority == -3

    @pytest.mark.parametrize("field,value", [
        ("bits", 0), ("bits", 1.5), ("bits", True),
        ("strategy", "sorcery"),
        ("deadline_seconds", -1), ("deadline_seconds", "soon"),
        ("bit_budget", -1), ("bit_budget", 0.5),
        ("priority", MAX_PRIORITY + 1), ("priority", -(MAX_PRIORITY + 1)),
    ])
    def test_bad_fields(self, field, value):
        with pytest.raises(ProtocolError):
            parse({"coeffs": [-2, 0, 1], field: value})

    def test_zero_deadline_is_legal(self):
        """deadline_seconds=0 means "fail over budget immediately" — the
        Budget zero-deadline semantics, not an error."""
        req = parse({"coeffs": [-2, 0, 1], "deadline_seconds": 0})
        assert req.deadline_seconds == 0.0

    def test_max_deadline_caps_and_assigns(self):
        capped = parse({"coeffs": [-2, 0, 1], "deadline_seconds": 60},
                       max_deadline_seconds=2.0)
        assert capped.deadline_seconds == 2.0
        assigned = parse({"coeffs": [-2, 0, 1]}, max_deadline_seconds=2.0)
        assert assigned.deadline_seconds == 2.0
        under = parse({"coeffs": [-2, 0, 1], "deadline_seconds": 0.5},
                      max_deadline_seconds=2.0)
        assert under.deadline_seconds == 0.5


class TestControlOp:
    def test_ops(self):
        assert control_op({"op": "ping"}) == "ping"
        assert control_op({"op": "metrics", "id": 3}) == "metrics"
        assert control_op({"coeffs": [1, 2]}) is None
        assert control_op({"op": 7}) is None
        assert control_op("ping") is None


class TestSalvageId:
    """Recovering a client ``id`` from lines that don't parse as JSON,
    so error replies can still be correlated."""

    @pytest.mark.parametrize("line,expected", [
        ('{"id": 7, "coeffs": [1, 2,}', 7),
        ('{"id": "req-9", nope', "req-9"),
        ('{"coeffs": [1], "id": -3} trailing garbage', -3),
        ('{"id": 1.5, broken', 1.5),
        ('{"id": true, broken', True),
        ('{"id": null, broken', None),
        ('{"id": "with \\"escape\\"", bad', 'with "escape"'),
        ("total garbage", None),
        ("", None),
        ('{"ident": 3, bad', None),          # not the id field
    ])
    def test_salvage(self, line, expected):
        assert salvage_id(line) == expected

    def test_whitespace_around_colon(self):
        assert salvage_id('{ "id"  :   42 , oops') == 42


class TestResponses:
    def _req(self, **kw):
        base = dict(id="r1", coeffs=(-2, 0, 1), mu=4, strategy="hybrid",
                    deadline_seconds=None, max_bit_ops=None, priority=0)
        base.update(kw)
        return Request(**base)

    def test_ok_shape(self):
        resp = ok_response(self._req(), [-23, 23], cached=True,
                           elapsed_seconds=0.01)
        assert resp["status"] == "ok" and resp["code"] == 200
        assert resp["scaled"] == ["-23", "23"]
        assert resp["mu_bits"] == 4
        assert resp["cached"] is True
        assert resp["floats"][1] == pytest.approx(23 / 16)

    def test_floats_beyond_float_range_are_null(self):
        huge = 10**400 << 4
        part = PartialResult(mu=4, scaled=[-huge, 23], degree=2,
                             phase="interval", reason="deadline",
                             elapsed_seconds=0.5, bit_cost=10)
        for resp in (ok_response(self._req(), [-huge, 23], cached=False,
                                 elapsed_seconds=0),
                     partial_response(self._req(),
                                      BudgetExceeded("deadline", part))):
            assert resp["scaled"][0] == str(-huge)
            assert resp["floats"] == [None, 23 / 16]
            json.dumps(resp, allow_nan=False)     # strict JSON

    def test_error_and_overloaded(self):
        err = error_response("x", "boom")
        assert (err["status"], err["code"]) == ("error", 400)
        over = overloaded_response("y", queue_depth=9, limit=8)
        assert (over["status"], over["code"]) == ("overloaded", 429)
        assert over["queue_depth"] == 9 and over["limit"] == 8
        assert over["retry_after_seconds"] > 0

    def test_metrics_and_shutdown(self):
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        reg.counter("cache.hits").inc(3)
        resp = metrics_response(reg, rid="m")
        assert resp["status"] == "metrics" and resp["id"] == "m"
        assert resp["metrics"]["cache.hits"]["value"] == 3
        assert shutdown_response("s") == {"id": "s", "status": "shutdown",
                                          "code": 200}

    def test_every_code_has_a_reason(self):
        for resp in (ok_response(self._req(), [], cached=False,
                                 elapsed_seconds=0),
                     error_response(None, "x"),
                     error_response(None, "x", code=503),
                     overloaded_response(None, queue_depth=1, limit=1),
                     shutdown_response()):
            assert resp["code"] in HTTP_REASONS
