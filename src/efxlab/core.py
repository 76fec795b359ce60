"""Domain types, ranking construction and exact fairness metrics.

Values are exact rationals (``fractions.Fraction``) at the boundary. An
instance stores only one integer matrix, in which every agent's row is scaled
by the least common multiple of its denominators, and those scales; rankings
and envy ratios are unchanged by a positive per-agent scale, so every
decision is exact and no floating point is involved.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np


class FairDivisionError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FairDivisionError):
    """Parameters outside the domain an operation supports."""


class InvalidAllocation(FairDivisionError):
    """Allocation violates a structural invariant."""


class OverlapError(InvalidAllocation):
    """A good appears in more than one bundle."""


class CompletenessError(InvalidAllocation):
    """Completeness flag disagrees with the allocated goods."""


_DIGIT_BOUND = 10**4300  # Python reads int text of at most 4,300 digits


def _fraction(v: object) -> Fraction:
    """``Fraction(v)``, but text must give a numerator and denominator below
    _DIGIT_BOUND, and an exponent beyond 4,300 in magnitude raises ValueError
    before its power of ten is built."""
    if not isinstance(v, str):
        return Fraction(v)
    _, e, exponent = v.upper().rpartition("E")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isdecimal() and (len(digits) > 4 or int(digits) > 4300):
        raise ValueError
    value = Fraction(v)
    if max(value.numerator, value.denominator) >= _DIGIT_BOUND:
        raise ValueError
    return value


def _shown(x: object) -> str:
    """``repr(x)``, or words for a number too long to print."""
    try:
        return repr(x)
    except ValueError:  # an int or Fraction past the digit limit
        return "a number of over 4,300 digits"


def parse_value(text: str | int) -> Fraction:
    """Parse "p/q", decimal, or integer text, or an int, into an exact rational."""
    try:
        v = _fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"not a rational value: {_shown(text)}") from None
    if v < 0:
        raise DomainError(f"negative value not allowed: {text}")
    return v


def format_value(v: Fraction) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def exact_fields(name: str, value: Fraction, decimal: str = "_decimal") -> dict:
    """How every output shows an exact value: its text under ``name`` and,
    for reading only, its float under ``name + decimal``."""
    return {name: format_value(value), name + decimal: float(value)}


def _rational(v: object) -> Fraction:
    """``Fraction(v)`` for an int, Fraction, float or rational text (a float
    keeps its exact binary value); anything else is a :class:`DomainError`."""
    try:
        return _fraction(v)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError):
        raise DomainError(f"not a rational value: {v!r}") from None


def _scale_row(numerators: Sequence[int], denominators: Sequence[int]) -> tuple[list[int], int]:
    """The rationals ``numerators[g] / denominators[g]`` (denominators > 0) as
    one row of ints over the least common multiple of the denominators,
    reduced to lowest terms together with that multiplier, the row's scale."""
    scale = math.lcm(*denominators)
    factor = {d: scale // d for d in set(denominators)}
    row = [p * factor[d] for p, d in zip(numerators, denominators)]
    divisor = math.gcd(scale, *row)
    return [x // divisor for x in row], scale // divisor


def _parse_row(row: list[object]) -> tuple[list[int], int]:
    """One JSON row of values in the integer form. A row of ASCII text
    entries ``p`` or ``p/q`` (decimal digits, q > 0) is read straight into
    ints: the row over the least common multiple of its denominators,
    reduced to lowest terms; plain integer rows have scale 1. Any other row
    goes through :func:`parse_value`."""
    try:
        if "".join(row).isascii():
            if all(map(str.isdigit, row)):
                return list(map(int, row)), 1
            parts = [v.partition("/") for v in row]
            if all(p.isdigit() and (q.isdigit() or not slash) for p, slash, q in parts):
                dens = [int(q or 1) for _, _, q in parts]
                if all(dens):
                    return _scale_row([int(p) for p, _, _ in parts], dens)
    except (TypeError, ValueError):  # an entry that is not text, or too many digits
        pass
    values = [parse_value(v) for v in row]
    return _scale_row([v.numerator for v in values], [v.denominator for v in values])


def _format_ratio(x: int, scale: int) -> str:
    """``format_value(Fraction(x, scale))`` without building the Fraction."""
    g = math.gcd(x, scale)
    if g == scale:
        return str(x // g)
    return f"{x // g}/{scale // g}"


def _matrix_dtype(top: int, m: int) -> type:
    """The dtype of a non-negative matrix of m columns whose largest entry is
    ``top``: the narrowest of int8, int16 and int32 that holds ``top`` when
    cross-multiplied bundle sums provably fit int64, (top * m)**2 < 2**62,
    and exact Python integers (object) otherwise. That rule implies
    top < 2**31, so int64 is never needed. An entry of over 4,300 digits is
    a :class:`DomainError`, since no output could print it.

    A narrow matrix is safe because no code does elementwise arithmetic
    between two of its entries, which would wrap silently. Every use is a
    comparison, ``int()`` or ``.tolist()``, a min or max, a negation (in
    range for a signed width, as entries are non-negative), or an add
    reduction, which numpy accumulates in int64; the exhaustive oracles
    widen the matrix to int64 before they add.
    """
    if top >= _DIGIT_BOUND:
        raise DomainError("scaled values must be below 10**4300")
    if (top * m) ** 2 >= 2**62:
        return object
    return np.int8 if top < 2**7 else np.int16 if top < 2**15 else np.int32


def _int_matrix(rows: list[list[int]], shape: Optional[tuple[int, int]] = None) -> np.ndarray:
    """Rows of Python ints as a non-negative n x m matrix of
    :func:`_matrix_dtype`; ``shape`` is the (n, m) they must have, by default
    that of the first row."""
    n, m = shape or (len(rows), len(rows[0]) if rows else 0)
    if n < 1 or m < 1:
        raise DomainError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if len(rows) != n or any(len(row) != m for row in rows):
        raise DomainError("values matrix must be n x m")
    try:
        matrix = np.array(rows, dtype=np.int64)
    except OverflowError:  # an entry beyond int64
        matrix = np.array(rows, dtype=object)
    if matrix.min() < 0:
        raise DomainError("values must be non-negative")
    return matrix.astype(_matrix_dtype(int(matrix.max()), m), copy=False)


class Instance:
    """An agents-by-goods matrix of exact non-negative values, stored as integers.

    Row i of the read-only matrix ``scaled_values`` is agent i's values times
    ``scales[i]``, the least common multiple of their denominators, so each
    row is in lowest terms: gcd(scales[i], *row) == 1. Ratios of one agent's
    values, and so her ranking and all her envy ratios, are those of the
    rationals; values of different agents are on different scales and must
    not be compared. The matrix has the dtype of :func:`_matrix_dtype`, 1, 2
    or 4 bytes a value (generated values, 0..20, are int8), or Python ints
    where bundle sums could pass int64.

    ``bivalued_meta`` optionally records per-agent (high, low) value pairs;
    when present every entry of that agent's row must be one of the two.

    There are three entry points: :meth:`from_rows` and :meth:`from_json`
    take rationals and convert them once; :meth:`from_scaled` takes the
    integer form itself.
    """

    __slots__ = ("n", "m", "scaled_values", "scales", "bivalued_meta", "_ranking")

    @staticmethod
    def from_scaled(
        rows: Sequence[Sequence[int]],
        scales: Sequence[int],
        bivalued_meta: Optional[Sequence[tuple[Fraction, Fraction]]] = None,
    ) -> "Instance":
        """The instance whose agent i values good g at ``rows[i][g] / scales[i]``.

        Entries and scales are Python ints, and every row must be in lowest
        terms with its scale (gcd 1), the one integer form of its rationals.
        """
        rows = [list(row) for row in rows]
        if len(scales) != len(rows):
            raise DomainError("need one scale per row")
        for i, (scale, row) in enumerate(zip(scales, rows)):
            if type(scale) is not int or scale < 1:
                raise DomainError(f"row {i}: scale {_shown(scale)} is not a positive integer")
            if scale >= _DIGIT_BOUND:  # before the gcd message prints it
                raise DomainError("scales must be below 10**4300")
            if not set(map(type, row)) <= {int}:
                raise DomainError(f"row {i}: scaled values must be Python ints")
            if math.gcd(scale, *row) != 1:
                raise DomainError(f"row {i} is not in lowest terms with its scale {scale}")
        return Instance._store(_int_matrix(rows), tuple(scales), bivalued_meta)

    @staticmethod
    def _store(
        matrix: np.ndarray,
        scales: tuple[int, ...],
        bivalued_meta: Optional[Sequence[tuple[Fraction, Fraction]]],
    ) -> "Instance":
        """The instance of a matrix already in the integer form, with the
        dtype of :func:`_matrix_dtype`; the matrix becomes read-only."""
        n, m = matrix.shape
        if max(scales) >= _DIGIT_BOUND:
            raise DomainError("scales must be below 10**4300")
        matrix.flags.writeable = False
        meta = None
        if bivalued_meta is not None:
            try:
                meta = tuple((_rational(h), _rational(low)) for h, low in bivalued_meta)
            except (TypeError, ValueError):
                raise DomainError("bivalued_meta must hold (h, l) pairs") from None
            if len(meta) != n:
                raise DomainError("bivalued_meta must have one (h, l) pair per agent")
            if max(max(v.numerator, v.denominator) for pair in meta for v in pair) >= _DIGIT_BOUND:
                raise DomainError("bivalued h and l must be below 10**4300 in lowest terms")
            for i, (h, low) in enumerate(meta):
                if not h > low >= 0:
                    raise DomainError(f"agent {i}: need h > l >= 0")
                # An entry equals h exactly when it equals h on the row's scale.
                allowed = np.zeros(m, dtype=bool)
                for v in (h * scales[i], low * scales[i]):
                    if v.denominator == 1:
                        allowed |= matrix[i] == v.numerator
                if not allowed.all():
                    bad = Fraction(int(matrix[i][allowed.argmin()]), scales[i])
                    raise DomainError(f"agent {i}: value {bad} is neither h={h} nor l={low}")
        instance = object.__new__(Instance)
        # The cached ranking starts empty.
        for name, value in zip(Instance.__slots__, (n, m, matrix, scales, meta, None)):
            object.__setattr__(instance, name, value)
        return instance

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Instance is immutable; cannot set {name!r}")

    def __reduce__(self):
        return Instance.from_scaled, (self.scaled_values.tolist(), self.scales, self.bivalued_meta)

    def _key(self) -> tuple:
        return (self.n, self.m, self.scales, self.bivalued_meta)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self is other or (
            self._key() == other._key()
            and np.array_equal(self.scaled_values, other.scaled_values)
        )

    def __hash__(self) -> int:
        return hash((self._key(), tuple(map(tuple, self.scaled_values.tolist()))))

    def __repr__(self) -> str:
        return (
            f"Instance.from_scaled({self.scaled_values.tolist()!r}, "
            f"{self.scales!r}, {self.bivalued_meta!r})"
        )

    @staticmethod
    def from_rows(
        rows: Sequence[Sequence[Fraction | int | float | str]],
        bivalued_meta: Optional[Sequence[tuple[Fraction, Fraction]]] = None,
    ) -> "Instance":
        """Rows of ints, ``Fraction``s, floats or rational text. Rows of plain
        ints are already the integer form (scale 1) and are stored as they are."""
        rows = [list(row) for row in rows]
        scales = (1,) * len(rows)
        if not all(set(map(type, row)) <= {int} for row in rows):
            values = [[_rational(v) for v in row] for row in rows]
            scaled = [
                _scale_row([v.numerator for v in r], [v.denominator for v in r]) for r in values
            ]
            rows, scales = [r for r, _ in scaled], tuple(s for _, s in scaled)
        return Instance._store(_int_matrix(rows), scales, bivalued_meta)

    def to_json(self) -> dict:
        out: dict = {
            "n": self.n,
            "m": self.m,
            "values": [
                list(map(str, row)) if scale == 1 else [_format_ratio(x, scale) for x in row]
                for row, scale in zip(self.scaled_values.tolist(), self.scales)
            ],
        }
        if self.bivalued_meta is not None:
            out["bivalued"] = [
                {"h": format_value(h), "l": format_value(low)}
                for h, low in self.bivalued_meta
            ]
        return out

    @staticmethod
    def from_json(data: dict) -> "Instance":
        """The instance of ``{"n", "m", "values", "bivalued"?}``: each value is
        read by :func:`parse_value`; rows of plain ``p`` or ``p/q`` text skip
        the ``Fraction``s."""
        try:
            rows = data["values"]
            if type(rows) is not list or not all(type(row) is list for row in rows):
                raise DomainError("instance JSON values must be an array of arrays")
            scaled = [_parse_row(row) for row in rows]
            meta = None
            if data.get("bivalued") is not None:
                meta = tuple(
                    (parse_value(e["h"]), parse_value(e["l"])) for e in data["bivalued"]
                )
            n, m = data["n"], data["m"]
        except KeyError as exc:
            raise DomainError(f"instance JSON lacks the key {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed instance JSON: {exc}") from None
        if not all(type(x) is int for x in (n, m)):
            raise DomainError(f"instance JSON needs integer n and m, got n={n!r}, m={m!r}")
        # Stored as from_scaled would, but checked against the JSON's n and m.
        matrix = _int_matrix([r for r, _ in scaled], (n, m))
        return Instance._store(matrix, tuple(s for _, s in scaled), meta)

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)

    @staticmethod
    def loads(text: str) -> "Instance":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise DomainError(f"instance is not JSON: {exc}") from None
        return Instance.from_json(data)


@dataclass(frozen=True)
class Allocation:
    """Bundles of good indices, one per agent, each an ascending tuple of
    distinct goods.

    Any collection of goods given for a bundle is stored in that one form,
    so equal allocations compare and hash equal; a good repeated within a
    bundle counts once. Run records keep their allocations, and a tuple
    costs 8 bytes a good where a set's hash table costs 35-70. A good that
    is not an int (a bool neither), or that has over 4,300 digits and so
    could not be written as JSON, is an :class:`InvalidAllocation`; whether
    the goods are the instance's, each in one bundle, is :func:`validate`'s
    check.
    """

    bundles: tuple[tuple[int, ...], ...]
    complete: bool

    def __post_init__(self) -> None:
        try:
            bundles = tuple(map(tuple, self.bundles))
        except TypeError:
            raise InvalidAllocation("bundles must be collections of goods") from None
        if not set(map(type, itertools.chain.from_iterable(bundles))) <= {int}:
            bad = next(g for bundle in bundles for g in bundle if type(g) is not int)
            raise InvalidAllocation(f"good {_shown(bad)} is not an integer")
        # Sorting first keeps the ascending runs a bundle picked by value
        # usually has; sorting a set would scramble them by hash.
        canonical = []
        for i, bundle in enumerate(map(sorted, bundles)):
            if bundle and (bundle[0] <= -_DIGIT_BOUND or bundle[-1] >= _DIGIT_BOUND):
                huge = max(bundle[0], bundle[-1], key=abs)
                raise InvalidAllocation(f"bundle {i} references unknown good {_shown(huge)}")
            if len(set(bundle)) < len(bundle):
                bundle = sorted(set(bundle))
            canonical.append(tuple(bundle))
        object.__setattr__(self, "bundles", tuple(canonical))

    @staticmethod
    def from_bundles(bundles: Sequence[Sequence[int]], complete: bool = True) -> "Allocation":
        return Allocation(bundles, complete)

    def to_json(self) -> dict:
        return {"bundles": list(map(list, self.bundles))}

    @staticmethod
    def from_json(data: dict, m: int) -> "Allocation":
        """Parse ``{"bundles": [[good, ...], ...]}`` for an instance with ``m``
        goods; goods are JSON integers (booleans are not) and each appears at
        most once. The allocation is complete when it covers all ``m`` goods."""
        raw = data.get("bundles") if isinstance(data, dict) else None
        if not isinstance(raw, list) or not all(isinstance(b, list) for b in raw):
            raise InvalidAllocation('expected {"bundles": [[good, ...], ...]}')
        seen: set[int] = set()
        for bundle in raw:
            for g in bundle:
                if type(g) is not int:
                    raise InvalidAllocation(f"good {_shown(g)} is not an integer")
                if g in seen:
                    raise OverlapError(f"good {_shown(g)} appears more than once")
                seen.add(g)
        return Allocation.from_bundles(raw, len(seen) == m)


@dataclass(frozen=True)
class FairnessReport:
    """Exact envy factors with the pair and removed good that attain them.

    ``alpha_efx`` uses the worst-case removal from the envied bundle,
    ``alpha_ef1`` the best-case one; both are capped at 1. Bindings are
    (envious agent, envied agent, removed good) or None when no pair
    constrains.
    """

    alpha_efx: Fraction
    alpha_ef1: Fraction
    efx_binding: Optional[tuple[int, int, int]] = None
    ef1_binding: Optional[tuple[int, int, int]] = None


def build_ranking(instance: Instance) -> tuple[tuple[int, ...], ...]:
    """Each agent's goods by value descending, ties by ascending index: one
    tuple of good indices per agent, best first.

    The rankings are built once per instance and then shared. They live as
    long as the instance, so every tuple holds the same int object for a
    good, one per good rather than one per entry. The stable sort runs on
    the matrix's own width, a radix sort for int8 and int16.
    """
    rankings = instance._ranking
    if rankings is None:
        order = np.argsort(-instance.scaled_values, axis=1, kind="stable")
        goods = np.arange(instance.m, dtype=object)
        rankings = tuple(map(tuple, goods[order].tolist()))
        object.__setattr__(instance, "_ranking", rankings)
    return rankings


def validate(instance: Instance, allocation: Allocation) -> None:
    """Raise a diagnostic error if the allocation is malformed for the instance.

    Of several unknown or repeated goods, the lowest is reported.
    """
    n, m = instance.n, instance.m
    bundles = allocation.bundles
    if len(bundles) != n:
        raise InvalidAllocation(f"expected {n} bundles, got {len(bundles)}")
    sizes = list(map(len, bundles))
    total = sum(sizes)
    try:
        goods = np.fromiter(itertools.chain.from_iterable(bundles), np.int64, total)
    except OverflowError:  # a good beyond int64 is unknown anyway
        goods = np.array(list(itertools.chain.from_iterable(bundles)), dtype=object)
    unknown = (goods < 0) | (goods >= m)
    if unknown.any():
        g = goods[unknown].min()
        i = np.repeat(np.arange(n), sizes)[unknown & (goods == g)][0]
        raise InvalidAllocation(f"bundle {i} references unknown good {_shown(int(g))}")
    repeated = np.flatnonzero(np.bincount(goods.astype(np.int64, copy=False), minlength=m) > 1)
    if repeated.size:
        raise OverlapError(f"good {repeated[0]} appears in more than one bundle")
    if allocation.complete and total != m:
        raise CompletenessError(
            f"allocation marked complete but covers {total} of {m} goods"
        )
    if not allocation.complete and total == m:
        raise CompletenessError("allocation covers all goods but is not marked complete")


def fairness_report(instance: Instance, allocation: Allocation) -> FairnessReport:
    """Compute exact EFX and EF1 envy factors for an allocation.

    For each ordered pair (i, j) with a nonempty envied bundle, the EFX
    factor contribution is min(1, v_i(X_i) / (v_i(X_j) - worst-removal)),
    and the EF1 one uses the best removal instead. Pairs whose denominator
    is zero impose no constraint; with no constraining pair both factors
    are 1. The removed good of a binding is the lowest-index one attaining
    the minimum (EFX) or maximum (EF1) of the envied bundle, and a binding
    moves only to a pair, taken in (i, j) order, with a strictly smaller
    factor.
    """
    validate(instance, allocation)
    n = instance.n
    values = instance.scaled_values
    bundles = allocation.bundles
    filled = [j for j, bundle in enumerate(bundles) if bundle]
    if not filled:  # no pair constrains
        return FairnessReport(Fraction(1), Fraction(1))
    # [viewer i][c]: v_i of the c-th nonempty bundle X_j (j = filled[c]), and
    # the least and greatest value v_i takes on it, from one pass over the
    # goods grouped by bundle.
    sizes = [len(bundles[j]) for j in filled]
    grouped = np.fromiter(itertools.chain.from_iterable(bundles), np.intp, sum(sizes))
    block = values[:, grouped]
    starts = np.cumsum([0] + sizes[:-1])
    sums, least, most = (
        ufunc.reduceat(block, starts, axis=1).tolist() for ufunc in (np.add, np.minimum, np.maximum)
    )
    own = [0] * n
    for c, j in enumerate(filled):
        own[j] = sums[j][c]

    # Factors as (numerator, denominator) pairs of one agent's scaled ints,
    # compared by cross-multiplication; both capped factors start at 1.
    efx, ef1 = (1, 1), (1, 1)
    efx_pair: Optional[tuple[int, int]] = None
    ef1_pair: Optional[tuple[int, int]] = None
    for i in range(n):
        mine = own[i]
        for c, j in enumerate(filled):
            if j == i:
                continue
            efx_den = sums[i][c] - least[i][c]
            if efx_den > 0 and mine * efx[1] < efx[0] * efx_den:
                efx, efx_pair = (mine, efx_den), (i, c)
            ef1_den = sums[i][c] - most[i][c]
            if ef1_den > 0 and mine * ef1[1] < ef1[0] * ef1_den:
                ef1, ef1_pair = (mine, ef1_den), (i, c)

    def binding(pair: Optional[tuple[int, int]], extreme: list) -> Optional[tuple[int, int, int]]:
        """(i, j, lowest-index good of X_j that v_i values at the extreme)."""
        if pair is None:
            return None
        i, c = pair
        goods = np.array(bundles[filled[c]])
        return i, filled[c], int(goods[(values[i, goods] == extreme[i][c]).argmax()])

    return FairnessReport(
        Fraction(*efx), Fraction(*ef1), binding(efx_pair, least), binding(ef1_pair, most)
    )


def pair_factor(instance: Instance, allocation: Allocation, i: int, j: int) -> Fraction:
    """Agent i's capped EFX factor towards bundle j, the pair term of
    :func:`fairness_report`: min(1, v_i(X_i) / (v_i(X_j) - min_{g in X_j} v_i(g))),
    or 1 when X_j is empty or that denominator is not positive. The allocation
    must already be valid for the instance (see :func:`validate`)."""
    bundle = allocation.bundles[j]
    if not bundle:
        return Fraction(1)
    row = instance.scaled_values[i]
    envied = row[list(bundle)]
    worst = int(envied.sum()) - int(envied.min())
    if worst <= 0:
        return Fraction(1)
    own = int(row[list(allocation.bundles[i])].sum())
    return min(Fraction(1), Fraction(own, worst))


def trivial_few_goods_allocation(n: int, m: int) -> Allocation:
    """One good per agent in ascending order; used whenever m < n.

    With at most one good per bundle the result is exactly EFX.
    """
    return Allocation.from_bundles([[g] if g < m else [] for g in range(n)])
