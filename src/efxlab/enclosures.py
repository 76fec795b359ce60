"""Directed rational enclosures for irrational constants.

Quantities like sqrt(k) or m**(p/q) are irrational in general, but every
comparison in this package must be exact. We therefore represent such a
quantity by a pair of rationals (lo, hi) with lo <= x <= hi and a small
relative width, and each caller picks the endpoint that keeps its own
assertion sound.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

DEFAULT_REL_WIDTH = Fraction(1, 10**12)


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


def _exact_nth_root(t: Fraction, q: int) -> Fraction | None:
    """Return t**(1/q) if it is rational, else None."""
    rn = integer_nth_root(t.numerator, q)
    if rn**q != t.numerator:
        return None
    rd = integer_nth_root(t.denominator, q)
    if rd**q != t.denominator:
        return None
    return Fraction(rn, rd)


def _root_guess(num: int, den: int, q: int) -> tuple[int, int]:
    """(num/den)**(1/q) to about 64 significant bits, as an integer numerator
    over a power-of-two denominator, for a ratio whose float overflows,
    underflows or is subnormal."""
    # Scale by 2**(q*e) so that the root is near 2**64, then take the root of
    # the integer part.
    e = 64 - (num.bit_length() - den.bit_length()) // q
    shift = q * e
    floor = (num << shift) // den if shift >= 0 else num // (den << -shift)
    r = integer_nth_root(floor, q)
    return (r, 1 << e) if e >= 0 else (r << -e, 1)


def _check_width(rel_width: Fraction | int) -> None:
    # A width of zero or less is never reached, so the bisection would not stop.
    if not rel_width > 0:
        raise ValueError("rel_width must be positive")


# The seed enclosure is the guess widened by factors (1 -/+ 1/_PAD).
_PAD = 10**9


def nth_root_enclosure(
    t: Fraction, q: int, rel_width: Fraction = DEFAULT_REL_WIDTH
) -> tuple[Fraction, Fraction]:
    """Enclosure (lo, hi) of t**(1/q) with lo**q <= t <= hi**q; requires
    rel_width > 0.

    When the root is rational, both endpoints equal it exactly. Otherwise a
    guess (the float root when t is a normal float, a 64-bit integer root
    otherwise) is widened by steps of 1e-9 until it brackets the root, then
    bisected until hi - lo <= hi * rel_width. All of it runs on integer
    numerators over one shared denominator D, so a test like lo**q <= t is
    a**q * den(t) <= num(t) * D**q; the endpoints are the rationals a
    ``Fraction`` bisection reaches.
    """
    _check_width(rel_width)
    if t < 0:
        raise ValueError("t must be non-negative")
    if q < 1:
        raise ValueError("q must be positive")
    if t == 0:
        return Fraction(0), Fraction(0)
    exact = _exact_nth_root(t, q)
    if exact is not None:
        return exact, exact
    num, den = t.numerator, t.denominator
    try:
        x = float(t)
    except OverflowError:  # t beyond the float range
        x = 0.0
    if x >= sys.float_info.min:
        g, g_den = (x ** (1.0 / q)).as_integer_ratio()
    else:
        # Zero or subnormal: too few significant bits for a seed, and a poor
        # seed would take millions of 1e-9 widening steps.
        g, g_den = _root_guess(num, den, q)
    # lo = a / d_lo and hi = b / d_hi, each widened by its own factor.
    a, d_lo = g * (_PAD - 1), g_den * _PAD
    while a > 0 and a**q * den > num * d_lo**q:
        a, d_lo = a * (_PAD - 1), d_lo * _PAD
    b, d_hi = g * (_PAD + 1), g_den * _PAD
    while b**q * den < num * d_hi**q:
        b, d_hi = b * (_PAD + 1), d_hi * _PAD
    # One denominator d = g_den * _PAD**p for both; bisect by halving it.
    d = max(d_lo, d_hi)
    a, b = a * (d // d_lo), b * (d // d_hi)
    width_num, width_den = rel_width.numerator, rel_width.denominator
    target = num * d**q  # num(t) * D**q for the current D
    while (b - a) * width_den > b * width_num:
        mid = a + b  # (a + b) / 2 over D is mid over 2D
        target <<= q
        if mid**q * den <= target:
            a, b = mid, b << 1
        else:
            a, b = a << 1, mid
        d <<= 1
    return Fraction(a, d), Fraction(b, d)


def pow_enclosure(
    base: Fraction | int,
    exp_num: int,
    exp_den: int,
    rel_width: Fraction = DEFAULT_REL_WIDTH,
) -> tuple[Fraction, Fraction]:
    """Enclosure of base ** (exp_num / exp_den) for base > 0; requires
    rel_width > 0."""
    _check_width(rel_width)
    base = Fraction(base)
    if base <= 0:
        raise ValueError("base must be positive")
    if exp_den <= 0:
        raise ValueError("exponent denominator must be positive")
    g = math.gcd(abs(exp_num), exp_den)
    if g > 1:
        exp_num //= g
        exp_den //= g
    if exp_num == 0:
        return Fraction(1), Fraction(1)
    invert = exp_num < 0
    lo, hi = nth_root_enclosure(base ** abs(exp_num), exp_den, rel_width)
    if invert:
        return 1 / hi, 1 / lo
    return lo, hi


def sqrt_enclosure(
    x: Fraction | int, rel_width: Fraction = DEFAULT_REL_WIDTH
) -> tuple[Fraction, Fraction]:
    """Enclosure of sqrt(x) for x >= 0; requires rel_width > 0."""
    _check_width(rel_width)
    x = Fraction(x)
    if x == 0:
        return Fraction(0), Fraction(0)
    return pow_enclosure(x, 1, 2, rel_width)
