"""mu-scaled fixed-point helpers (paper Sections 1 and 3.3).

The algorithm computes the mu-approximation of each root ``x``, defined
as the grid value ``2**-mu * ceil(2**mu * x)`` (the smallest grid point
``>= x``; the paper's bracket notation, read off from Case 2a of the
interval analysis).  Internally every rational is identified with the
integer ``2**mu * x`` so that only integer arithmetic is needed.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "ceil_div",
    "floor_div",
    "mu_ceil_of_rational",
    "scaled_to_fraction",
    "scaled_to_float",
    "scaled_to_json_float",
    "rescale",
    "digits_to_bits",
]


def ceil_div(a: int, b: int) -> int:
    """Exact ``ceil(a / b)`` for ``b > 0``."""
    if b <= 0:
        raise ValueError("ceil_div needs b > 0")
    return -((-a) // b)


def floor_div(a: int, b: int) -> int:
    """Exact ``floor(a / b)`` for ``b > 0``."""
    if b <= 0:
        raise ValueError("floor_div needs b > 0")
    return a // b


def mu_ceil_of_rational(num: int, den: int, mu: int) -> int:
    """``ceil(2**mu * num / den)`` — the scaled mu-approximation of num/den.

    ``den`` may be negative; the sign is normalized first.
    """
    if den == 0:
        raise ZeroDivisionError("rational with zero denominator")
    if den < 0:
        num, den = -num, -den
    return ceil_div(num << mu, den)


def scaled_to_fraction(scaled: int, mu: int) -> Fraction:
    """The exact rational value of a scaled grid point."""
    return Fraction(scaled, 1 << mu)


def scaled_to_float(scaled: int, mu: int) -> float:
    """Float value of a scaled grid point (lossy, for reporting only),
    saturating to ``±inf`` beyond float range instead of raising
    ``OverflowError`` (``scaled`` itself stays exact)."""
    try:
        return scaled / (1 << mu)
    except OverflowError:
        return math.inf if scaled > 0 else -math.inf


def scaled_to_json_float(scaled: int, mu: int) -> float | None:
    """:func:`scaled_to_float` for JSON output: ``None`` (``null``)
    beyond float range, where ``json.dumps`` would write the bare token
    ``Infinity`` that strict JSON parsers reject."""
    f = scaled_to_float(scaled, mu)
    return None if math.isinf(f) else f


def rescale(scaled: int, mu_from: int, mu_to: int) -> int:
    """Re-express a grid point at another precision.

    Going finer is exact; going coarser takes the ceiling (consistent
    with the mu-approximation convention).
    """
    if mu_to >= mu_from:
        return scaled << (mu_to - mu_from)
    return ceil_div(scaled, 1 << (mu_from - mu_to))


def digits_to_bits(digits: int) -> int:
    """Decimal digits of precision -> bits (ceil), for the paper's
    mu-in-digits experiment grids."""
    if digits < 0:
        raise ValueError("digits must be >= 0")
    # ceil(digits * log2(10)); exact enough for any practical digit count.
    from math import ceil, log2

    return ceil(digits * log2(10)) if digits else 0
