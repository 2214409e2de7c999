"""Tests for mu-scaled fixed-point helpers."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.scaling import (
    ceil_div,
    digits_to_bits,
    floor_div,
    mu_ceil_of_rational,
    rescale,
    scaled_to_float,
    scaled_to_fraction,
    scaled_to_json_float,
)


class TestDivisions:
    def test_ceil_div(self):
        assert ceil_div(7, 2) == 4
        assert ceil_div(-7, 2) == -3
        assert ceil_div(6, 2) == 3

    def test_floor_div(self):
        assert floor_div(7, 2) == 3
        assert floor_div(-7, 2) == -4

    def test_nonpositive_denominator_raises(self):
        with pytest.raises(ValueError):
            ceil_div(1, 0)
        with pytest.raises(ValueError):
            floor_div(1, -2)

    @given(st.integers(-10**9, 10**9), st.integers(1, 10**6))
    def test_ceil_floor_relation(self, a, b):
        assert ceil_div(a, b) == -floor_div(-a, b)
        assert 0 <= ceil_div(a, b) * b - a < b


class TestMuCeil:
    def test_positive(self):
        assert mu_ceil_of_rational(1, 3, 4) == 6  # ceil(16/3)

    def test_negative_value(self):
        assert mu_ceil_of_rational(-1, 3, 4) == -5

    def test_negative_denominator_normalized(self):
        assert mu_ceil_of_rational(1, -3, 4) == -5

    def test_zero_denominator_raises(self):
        with pytest.raises(ZeroDivisionError):
            mu_ceil_of_rational(1, 0, 4)

    @given(st.integers(-10**6, 10**6),
           st.integers(1, 10**4),
           st.integers(0, 40))
    def test_is_exact_ceiling(self, num, den, mu):
        v = mu_ceil_of_rational(num, den, mu)
        f = Fraction(num, den) * (1 << mu)
        assert v - 1 < f <= v


class TestConversions:
    def test_scaled_to_fraction(self):
        assert scaled_to_fraction(5, 2) == Fraction(5, 4)

    def test_scaled_to_float(self):
        assert scaled_to_float(5, 2) == 1.25

    def test_scaled_to_float_saturates_beyond_float_range(self):
        huge = 10**400 << 16
        assert scaled_to_float(huge, 16) == float("inf")
        assert scaled_to_float(-huge, 16) == float("-inf")
        assert scaled_to_float(1 << 1100, 100) == 2.0**1000

    def test_scaled_to_json_float_is_null_beyond_float_range(self):
        huge = 10**400 << 16
        assert scaled_to_json_float(huge, 16) is None
        assert scaled_to_json_float(-huge, 16) is None
        assert scaled_to_json_float(5, 2) == 1.25

    def test_rescale_finer_exact(self):
        assert rescale(3, 2, 5) == 24

    def test_rescale_coarser_ceils(self):
        assert rescale(25, 5, 2) == 4  # 25/32 -> ceil(25/8)/... = ceil(3.125)

    def test_rescale_identity(self):
        assert rescale(9, 3, 3) == 9

    @given(st.integers(-10**9, 10**9), st.integers(0, 30), st.integers(0, 30))
    def test_rescale_roundtrip_upward(self, v, a, b):
        if b >= a:
            assert rescale(rescale(v, a, b), b, a) == v


class TestDigits:
    def test_digits_to_bits(self):
        assert digits_to_bits(0) == 0
        assert digits_to_bits(1) == 4      # ceil(3.32)
        assert digits_to_bits(4) == 14     # ceil(13.28)
        assert digits_to_bits(32) == 107   # ceil(106.3)

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            digits_to_bits(-1)

    def test_monotone(self):
        vals = [digits_to_bits(d) for d in range(50)]
        assert vals == sorted(vals)
