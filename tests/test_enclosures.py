from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fraction_reference as ref
from efxlab.enclosures import (
    REL_WIDTH,
    integer_nth_root,
    nth_root_enclosure,
    pow_enclosure,
    sqrt_enclosure,
)
from helpers import time_limit


def test_integer_nth_root_exact():
    assert integer_nth_root(243, 5) == 3
    assert integer_nth_root(1024, 10) == 2
    assert integer_nth_root(26, 3) == 2  # floor


def test_perfect_power_is_exact():
    lo, hi = nth_root_enclosure(243, 5)
    assert lo == hi == 3
    lo, hi = sqrt_enclosure(49)
    assert lo == hi == 7


def test_sqrt2_enclosure_brackets_and_is_tight():
    lo, hi = sqrt_enclosure(2)
    assert lo**2 <= 2 <= hi**2
    assert lo < hi
    assert (hi - lo) <= hi * REL_WIDTH


def test_negative_exponent_inverts():
    lo, hi = pow_enclosure(8, -1, 3)
    assert lo == hi == Fraction(1, 2)
    lo, hi = pow_enclosure(27, -2, 3)
    assert lo == hi == Fraction(1, 9)


def test_irrational_pow_enclosure_direction():
    lo, hi = pow_enclosure(10, 1, 3)
    assert lo**3 <= 10 <= hi**3
    assert (hi - lo) <= hi * REL_WIDTH
    lo, hi = pow_enclosure(10, -1, 3)
    assert lo**3 <= Fraction(1, 10) <= hi**3
    assert (hi - lo) <= hi * REL_WIDTH


@given(
    st.integers(min_value=2, max_value=1000),
    st.integers(min_value=2, max_value=6),
)
def test_enclosure_always_brackets(t, q):
    lo, hi = nth_root_enclosure(t, q)
    assert 0 < lo <= hi
    assert lo**q <= t <= hi**q
    assert (hi - lo) <= hi * REL_WIDTH


def test_exponent_reduction_consistent():
    assert pow_enclosure(7, 2, 4) == pow_enclosure(7, 1, 2)


def test_integer_nth_root_beyond_float_range():
    with time_limit(10):
        r = integer_nth_root(10**400, 3)
        assert r**3 <= 10**400 < (r + 1) ** 3
        assert integer_nth_root(10**300, 2) == 10**150
        assert integer_nth_root(2**1000 - 1, 10) == 2**100 - 1


def test_pow_enclosure_beyond_float_range():
    with time_limit(10):
        lo, hi = pow_enclosure(10**400, 1, 3)
    assert lo**3 <= 10**400 <= hi**3
    assert (hi - lo) <= hi * REL_WIDTH


@given(st.integers(min_value=2**53, max_value=2**200), st.integers(min_value=4, max_value=8))
def test_integer_root_above_exact_floats_unchanged(x, q):
    assert integer_nth_root(x, q) == ref.integer_nth_root(x, q)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**6), st.integers(0, 450), st.integers(1, 7))
def test_integer_bisection_endpoints_equal_fraction_bisection(a, exponent, q):
    """t = a * 10**exponent reaches far above the float range, where the
    guess comes from the integer root instead of a float."""
    t = a * 10**exponent
    with time_limit(10):
        assert nth_root_enclosure(t, q) == ref.nth_root_enclosure(Fraction(t), q, REL_WIDTH)


@pytest.mark.parametrize("t,q", [(0, 2), (-4, 2), (2, 0), (2, -1)])
def test_nonpositive_root_arguments_are_rejected(t, q):
    with time_limit(5), pytest.raises(ValueError, match="need t >= 1 and q >= 1"):
        nth_root_enclosure(t, q)
