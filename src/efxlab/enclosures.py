"""Directed rational enclosures for irrational constants.

Quantities like sqrt(k) or m**(p/q) are irrational in general, but every
comparison in this package must be exact. We therefore represent such a
quantity by a pair of rationals (lo, hi) with lo <= x <= hi and a small
relative width, and each caller picks the endpoint that keeps its own
assertion sound.
"""

from __future__ import annotations

import math
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


def _root_guess(t: Fraction, q: int) -> Fraction:
    """t**(1/q) to about 64 significant bits, in integer arithmetic, for t
    whose float overflows or underflows."""
    # Scale t by 2**(q*e) so that its root is near 2**64, then take the root
    # of the integer part.
    e = 64 - (t.numerator.bit_length() - t.denominator.bit_length()) // q
    scaled = t * Fraction(2) ** (q * e)
    return integer_nth_root(math.floor(scaled), q) / Fraction(2) ** e


def nth_root_enclosure(
    t: Fraction, q: int, rel_width: Fraction = DEFAULT_REL_WIDTH
) -> tuple[Fraction, Fraction]:
    """Enclosure (lo, hi) of t**(1/q) with lo**q <= t <= hi**q.

    When the root is rational, both endpoints equal it exactly.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if q < 1:
        raise ValueError("q must be positive")
    if t == 0:
        return Fraction(0), Fraction(0)
    exact = _exact_nth_root(t, q)
    if exact is not None:
        return exact, exact
    try:
        guess = Fraction(float(t) ** (1.0 / q))
    except OverflowError:  # t beyond the float range
        guess = Fraction(0)
    if guess == 0:
        guess = _root_guess(t, q)
    pad = Fraction(1, 10**9)
    lo = guess * (1 - pad)
    hi = guess * (1 + pad)
    while lo > 0 and lo**q > t:
        lo *= 1 - pad
    while hi**q < t:
        hi *= 1 + pad
    # Bisect down to the requested relative width.
    while hi - lo > hi * rel_width:
        mid = (lo + hi) / 2
        if mid**q <= t:
            lo = mid
        else:
            hi = mid
    return lo, hi


def pow_enclosure(
    base: Fraction | int,
    exp_num: int,
    exp_den: int,
    rel_width: Fraction = DEFAULT_REL_WIDTH,
) -> tuple[Fraction, Fraction]:
    """Enclosure of base ** (exp_num / exp_den) for base > 0."""
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
    """Enclosure of sqrt(x) for x >= 0."""
    x = Fraction(x)
    if x == 0:
        return Fraction(0), Fraction(0)
    return pow_enclosure(x, 1, 2, rel_width)
