"""The daemon's request/response schema (one JSON object per message).

Both front-ends speak the same shapes — the stdio transport frames them
as JSON Lines, the HTTP transport as request/response bodies — so a
request file replayed through either produces identical payloads.

Request::

    {"id": 7, "coeffs": [-6, 1, 1], "bits": 16,
     "strategy": "hybrid", "deadline_seconds": 1.5,
     "bit_budget": 1000000, "priority": 5}

``coeffs`` (low to high) or ``roots`` (integer demo roots) selects the
polynomial; everything else is optional.  ``id`` is echoed verbatim in
the response so pipelined clients can match answers to questions.

Response statuses (``code`` carries the HTTP rendering of each):

=============  ====  ====================================================
status         code  meaning
=============  ====  ====================================================
``ok``          200  exact roots; ``cached`` tells whether the answer
                     came from the result cache
``partial``     206  the request's budget tripped; the certified roots
                     completed so far, with ``reason``/``phase`` — the
                     protocol rendering of the CLI's exit code 3
                     (``exit_code: 3`` is included verbatim)
``overloaded``  429  shed by admission control; retry after
                     ``retry_after_seconds``
``error``       400  malformed request (or 503 while draining)
``metrics``     200  a metrics snapshot (the ``{"op": "metrics"}``
                     control line)
=============  ====  ====================================================
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.scaling import scaled_to_float
from repro.poly.dense import IntPoly

__all__ = [
    "Request",
    "ProtocolError",
    "parse_request",
    "control_op",
    "salvage_id",
    "ok_response",
    "partial_response",
    "error_response",
    "overloaded_response",
    "metrics_response",
    "shutdown_response",
    "HTTP_REASONS",
]

#: HTTP reason phrases for every code the daemon emits.
HTTP_REASONS = {
    200: "OK",
    206: "Partial Content",
    400: "Bad Request",
    404: "Not Found",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Priorities beyond this magnitude are rejected (they would only
#: starve the queue; there is no meaningful "more urgent than urgent").
MAX_PRIORITY = 1_000_000

#: Degrees beyond this are rejected at admission (a single absurd
#: request must not monopolize the shared pool for minutes).
MAX_DEGREE = 512


class ProtocolError(ValueError):
    """The request object cannot be turned into work."""


@dataclass(frozen=True)
class Request:
    """One validated, normalized solve request.

    ``coeffs`` is the polynomial's normalized coefficient tuple
    (``IntPoly`` trims trailing zeros), so equivalent spellings of one
    polynomial share a cache key.
    """

    id: Any
    coeffs: tuple[int, ...]
    mu: int
    strategy: str
    deadline_seconds: float | None
    max_bit_ops: int | None
    priority: int


def control_op(obj: Any) -> str | None:
    """The control operation named by ``obj`` (``"metrics"``,
    ``"shutdown"``, ``"ping"``), or ``None`` for a solve request."""
    if isinstance(obj, Mapping) and isinstance(obj.get("op"), str):
        return obj["op"]
    return None


#: The ``"id": <scalar>`` shape inside a (possibly broken) JSON line.
_ID_FIELD = re.compile(
    r'"id"\s*:\s*("(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?'
    r'|true|false|null)'
)


def salvage_id(line: str) -> Any:
    """Best-effort ``id`` recovery from a line that failed JSON parsing.

    A client that sent ``{"id": 7, "coeffs": [1,`` still deserves an
    error reply it can correlate — pipelined clients match responses by
    id, and ``"id": null`` orphans the failure.  Only scalar ids are
    recovered (strings, numbers, booleans, null); anything unsalvable
    returns ``None``, which is also what an absent id yields."""
    m = _ID_FIELD.search(line)
    if m is None:
        return None
    try:
        return json.loads(m.group(1))
    except ValueError:  # an integer id over the int-string digit limit
        return None


def _int_field(obj: Mapping, name: str, default: int | None,
               minimum: int) -> int | None:
    v = obj.get(name, default)
    if v is None:
        return None
    if isinstance(v, bool) or not isinstance(v, int):
        raise ProtocolError(f"{name!r} must be an integer")
    if v < minimum:
        raise ProtocolError(f"{name!r} must be >= {minimum}")
    return v


def parse_request(
    obj: Any,
    *,
    default_mu: int,
    default_strategy: str = "hybrid",
    max_deadline_seconds: float | None = None,
) -> Request:
    """Validate one solve request; raises :class:`ProtocolError`.

    ``max_deadline_seconds`` caps every request's deadline (fairness:
    one tenant must not reserve the solve lane for an hour); a request
    without a deadline gets the cap itself when one is configured.
    """
    if not isinstance(obj, Mapping):
        raise ProtocolError("request must be a JSON object")
    rid = obj.get("id")

    coeffs = obj.get("coeffs")
    roots = obj.get("roots")
    if (coeffs is None) == (roots is None):
        raise ProtocolError('provide exactly one of "coeffs" or "roots"')
    try:
        if roots is not None:
            if not isinstance(roots, list) or not roots:
                raise ProtocolError('"roots" must be a nonempty array')
            p = IntPoly.from_roots([int(r) for r in roots])
        else:
            if not isinstance(coeffs, list) or not coeffs:
                raise ProtocolError('"coeffs" must be a nonempty array')
            p = IntPoly(int(c) for c in coeffs)
    except (TypeError, ValueError) as e:
        raise ProtocolError(f"bad polynomial: {e}") from e
    if p.is_zero():
        raise ProtocolError("the zero polynomial has every number as a root")
    if p.degree < 1:
        raise ProtocolError("polynomial must be nonconstant")
    if p.degree > MAX_DEGREE:
        raise ProtocolError(f"degree {p.degree} exceeds the limit "
                            f"({MAX_DEGREE})")

    mu = _int_field(obj, "bits", default_mu, 1)
    strategy = obj.get("strategy", default_strategy)
    from repro.core.sieve import STRATEGIES

    if strategy not in STRATEGIES:
        raise ProtocolError(
            f"unknown strategy {strategy!r}; known: {sorted(STRATEGIES)}"
        )

    deadline = obj.get("deadline_seconds")
    if deadline is not None:
        if isinstance(deadline, bool) or not isinstance(deadline,
                                                        (int, float)):
            raise ProtocolError('"deadline_seconds" must be a number')
        if deadline < 0:
            raise ProtocolError('"deadline_seconds" must be >= 0')
        deadline = float(deadline)
    if max_deadline_seconds is not None:
        deadline = (max_deadline_seconds if deadline is None
                    else min(deadline, max_deadline_seconds))

    bit_budget = _int_field(obj, "bit_budget", None, 0)
    priority = _int_field(obj, "priority", 0, -MAX_PRIORITY)
    assert priority is not None
    if priority > MAX_PRIORITY:
        raise ProtocolError(f'"priority" must be <= {MAX_PRIORITY}')

    return Request(
        id=rid, coeffs=p.coeffs, mu=mu if mu is not None else default_mu,
        strategy=strategy, deadline_seconds=deadline,
        max_bit_ops=bit_budget, priority=priority,
    )


# -- response builders -------------------------------------------------------

def _decimal(scaled: list[int]) -> list[str]:
    """The scaled roots as decimal strings.

    Raises :class:`ProtocolError` when a root has more digits than
    Python's limit for integer-to-string conversion: the answer exists
    but cannot be sent, and asking for fewer bits is the fix.
    """
    try:
        return [str(s) for s in scaled]
    except ValueError as e:
        raise ProtocolError(
            "a root has more decimal digits than the limit for integer "
            f"string conversion ({sys.get_int_max_str_digits()}); ask "
            "for fewer bits"
        ) from e


def ok_response(req: Request, scaled: list[int], *, cached: bool,
                elapsed_seconds: float) -> dict[str, Any]:
    """Exact roots, in the same shape ``repro roots --json`` prints."""
    return {
        "id": req.id,
        "status": "ok",
        "code": 200,
        "mu_bits": req.mu,
        "scaled": _decimal(scaled),
        "floats": [scaled_to_float(s, req.mu) for s in scaled],
        "cached": cached,
        "elapsed_seconds": elapsed_seconds,
    }


def partial_response(req: Request, exc: Any) -> dict[str, Any]:
    """The request's budget tripped: certified partial roots (the
    protocol form of the CLI's exit-code-3 JSON)."""
    part = exc.partial
    return {
        "id": req.id,
        "status": "partial",
        "code": 206,
        "exit_code": 3,
        "mu_bits": req.mu,
        "reason": exc.reason,
        "phase": part.phase,
        "elapsed_seconds": part.elapsed_seconds,
        "bit_cost": part.bit_cost,
        "scaled": _decimal(part.scaled),
        "floats": part.as_floats(),
    }


def error_response(rid: Any, message: str, code: int = 400) -> dict[str, Any]:
    """A request that produced no roots at all."""
    return {"id": rid, "status": "error", "code": code, "error": message}


def overloaded_response(rid: Any, *, queue_depth: int, limit: int,
                        retry_after_seconds: float = 1.0) -> dict[str, Any]:
    """Shed by admission control (the 429-style backpressure reply)."""
    return {
        "id": rid,
        "status": "overloaded",
        "code": 429,
        "queue_depth": queue_depth,
        "limit": limit,
        "retry_after_seconds": retry_after_seconds,
    }


def metrics_response(registry: Any, rid: Any = None) -> dict[str, Any]:
    """A point-in-time metrics snapshot (``{"op": "metrics"}``)."""
    from repro.obs.export import snapshot

    out = snapshot(registry)
    out.update({"id": rid, "status": "metrics", "code": 200})
    return out


def shutdown_response(rid: Any = None) -> dict[str, Any]:
    """Acknowledges ``{"op": "shutdown"}`` after the drain completes."""
    return {"id": rid, "status": "shutdown", "code": 200}
