"""Directed rational enclosures for irrational constants.

Quantities like sqrt(k) or m**(p/q) are irrational in general, but every
comparison in this package must be exact. We therefore represent such a
quantity, for a positive integer base, by a pair of rationals (lo, hi) with
lo <= x <= hi and hi - lo <= hi * REL_WIDTH, and each caller picks the
endpoint that keeps its own assertion sound.
"""

from __future__ import annotations

import math
from fractions import Fraction

REL_WIDTH = Fraction(1, 10**12)


# Integers below this convert to float exactly, so a float root is a seed
# within a few units of the answer.
_FLOAT_EXACT = 2**53


def integer_nth_root(x: int, q: int) -> int:
    """Largest integer r with r**q <= x, for x >= 0 and q >= 1."""
    if x < 0:
        raise ValueError("x must be non-negative")
    if q == 1 or x in (0, 1):
        return x
    if x < _FLOAT_EXACT:
        r = int(round(x ** (1.0 / q)))
    else:
        # Newton's method in integers, from 2**ceil(bits/q) > x**(1/q): the
        # iterates decrease until they reach the floor of the root.
        r = 1 << -(-x.bit_length() // q)
        while True:
            s = ((q - 1) * r + x // r ** (q - 1)) // q
            if s >= r:
                break
            r = s
    while r > 0 and r**q > x:
        r -= 1
    while (r + 1) ** q <= x:
        r += 1
    return r


def _root_guess(x: int, q: int) -> tuple[int, int]:
    """x**(1/q) to about 64 significant bits, as an integer numerator over a
    power-of-two denominator, for an x whose float overflows."""
    # Scale by 2**(q*e) so that the root is near 2**64, then take the root of
    # the integer part.
    e = 64 - (x.bit_length() - 1) // q
    shift = q * e
    r = integer_nth_root(x << shift if shift >= 0 else x >> -shift, q)
    return (r, 1 << e) if e >= 0 else (r << -e, 1)


# The seed enclosure is the guess widened by factors (1 -/+ 1/_PAD).
_PAD = 10**9


def nth_root_enclosure(t: int, q: int) -> tuple[Fraction, Fraction]:
    """Enclosure (lo, hi) of t**(1/q) with lo**q <= t <= hi**q, for integers
    t >= 1 and q >= 1.

    When the root is an integer, both endpoints equal it. Otherwise a guess
    (the float root, or a 64-bit integer root beyond the float range) is
    widened by steps of 1e-9 until it brackets the root, then bisected until
    hi - lo <= hi * REL_WIDTH. All of it runs on integer numerators over one
    shared denominator D, so a test like lo**q <= t is a**q <= t * D**q; the
    endpoints are the rationals a ``Fraction`` bisection reaches.
    """
    # Below 1 the widening and bisection loops would never end.
    if t < 1 or q < 1:
        raise ValueError("need t >= 1 and q >= 1")
    r = integer_nth_root(t, q)
    if r**q == t:
        return Fraction(r), Fraction(r)
    try:
        g, g_den = (float(t) ** (1.0 / q)).as_integer_ratio()
    except OverflowError:  # t beyond the float range
        g, g_den = _root_guess(t, q)
    # lo = a / d_lo and hi = b / d_hi, each widened by its own factor.
    a, d_lo = g * (_PAD - 1), g_den * _PAD
    while a**q > t * d_lo**q:
        a, d_lo = a * (_PAD - 1), d_lo * _PAD
    b, d_hi = g * (_PAD + 1), g_den * _PAD
    while b**q < t * d_hi**q:
        b, d_hi = b * (_PAD + 1), d_hi * _PAD
    # One denominator d = g_den * _PAD**p for both; bisect by halving it.
    d = max(d_lo, d_hi)
    a, b = a * (d // d_lo), b * (d // d_hi)
    width_num, width_den = REL_WIDTH.numerator, REL_WIDTH.denominator
    target = t * d**q  # t * D**q for the current D
    while (b - a) * width_den > b * width_num:
        mid = a + b  # (a + b) / 2 over D is mid over 2D
        target <<= q
        if mid**q <= target:
            a, b = mid, b << 1
        else:
            a, b = a << 1, mid
        d <<= 1
    return Fraction(a, d), Fraction(b, d)


def pow_enclosure(base: int, exp_num: int, exp_den: int) -> tuple[Fraction, Fraction]:
    """Enclosure of base ** (exp_num / exp_den) for integers base >= 1 and
    exp_den >= 1."""
    g = math.gcd(exp_num, exp_den)
    lo, hi = nth_root_enclosure(base ** abs(exp_num // g), exp_den // g)
    return (1 / hi, 1 / lo) if exp_num < 0 else (lo, hi)


def sqrt_enclosure(x: int) -> tuple[Fraction, Fraction]:
    """Enclosure of sqrt(x) for an integer x >= 1."""
    return pow_enclosure(x, 1, 2)
