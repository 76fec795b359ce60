"""Domain types, ranking construction and exact fairness metrics.

Values are exact rationals (``fractions.Fraction``) at the boundary. Inside,
each instance keeps one integer matrix in which every agent's row is scaled
by the least common multiple of its denominators; rankings and envy ratios
are unchanged by a positive per-agent scale, so every decision is exact and
no floating point is involved.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

Value = Fraction


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


def parse_value(text: str | int) -> Value:
    """Parse "p/q", decimal, or integer text into an exact rational."""
    try:
        v = Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"not a rational value: {text!r}") from None
    if v < 0:
        raise DomainError(f"negative value not allowed: {text}")
    return v


def format_value(v: Value) -> str:
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def _scale_rows(
    values: Sequence[Sequence[Value]], m: int
) -> tuple[np.ndarray, list[int]]:
    """Each row times the least common multiple of its denominators, and
    those multipliers.

    The matrix is int64 when cross-multiplied bundle sums provably fit, and
    exact Python integers (object dtype) otherwise.
    """
    rows, scales = [], []
    for row in values:
        denominators = [v.denominator for v in row]
        scale = math.lcm(*denominators)
        if scale == 1:
            rows.append([v.numerator for v in row])
        else:
            factor = {d: scale // d for d in set(denominators)}
            rows.append([v.numerator * factor[d] for v, d in zip(row, denominators)])
        scales.append(scale)
    top = max(max(r) for r in rows)
    overflows = top and (top * m) ** 2 >= 2**62
    matrix = np.array(rows, dtype=object if overflows else np.int64)
    matrix.flags.writeable = False
    return matrix, scales


@dataclass(frozen=True)
class Instance:
    """An agents-by-goods matrix of exact non-negative values.

    ``bivalued_meta`` optionally records per-agent (high, low) value pairs;
    when present every entry of that agent's row must be one of the two.

    ``scaled_values`` is the read-only integer form of ``values`` that every
    ranking and envy comparison uses: row i is ``values[i]`` times the least
    common multiple of its denominators. Ratios of one agent's values, and
    so her ranking and all her envy ratios, are those of ``values``; values
    of different agents are on different scales and must not be compared.
    """

    n: int
    m: int
    values: tuple[tuple[Value, ...], ...]
    bivalued_meta: Optional[tuple[tuple[Value, Value], ...]] = None
    scaled_values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise DomainError(f"need n >= 1 and m >= 1, got n={self.n}, m={self.m}")
        if len(self.values) != self.n or any(len(row) != self.m for row in self.values):
            raise DomainError("values matrix must be n x m")
        scaled, scales = _scale_rows(self.values, self.m)
        object.__setattr__(self, "scaled_values", scaled)
        if scaled.min() < 0:
            raise DomainError("values must be non-negative")
        if self.bivalued_meta is not None:
            if len(self.bivalued_meta) != self.n:
                raise DomainError("bivalued_meta must have one (h, l) pair per agent")
            for i, (h, low) in enumerate(self.bivalued_meta):
                if not h > low >= 0:
                    raise DomainError(f"agent {i}: need h > l >= 0")
                # An entry equals h exactly when it equals h on the row's scale.
                allowed = np.zeros(self.m, dtype=bool)
                for v in (h * scales[i], low * scales[i]):
                    if v.denominator == 1:
                        allowed |= scaled[i] == v.numerator
                if not allowed.all():
                    v = next(v for v in self.values[i] if v != h and v != low)
                    raise DomainError(
                        f"agent {i}: value {v} is neither h={h} nor l={low}"
                    )

    @staticmethod
    def from_rows(
        rows: Sequence[Sequence[Value | int | str]],
        bivalued_meta: Optional[Sequence[tuple[Value, Value]]] = None,
    ) -> "Instance":
        values = tuple(tuple(Fraction(v) for v in row) for row in rows)
        meta = None
        if bivalued_meta is not None:
            meta = tuple((Fraction(h), Fraction(low)) for h, low in bivalued_meta)
        if not values:
            raise DomainError("need n >= 1 and m >= 1, got no rows")
        return Instance(len(values), len(values[0]), values, meta)

    def to_json(self) -> dict:
        out: dict = {
            "n": self.n,
            "m": self.m,
            "values": [[format_value(v) for v in row] for row in self.values],
        }
        if self.bivalued_meta is not None:
            out["bivalued"] = [
                {"h": format_value(h), "l": format_value(low)}
                for h, low in self.bivalued_meta
            ]
        return out

    @staticmethod
    def from_json(data: dict) -> "Instance":
        try:
            values = tuple(
                tuple(parse_value(v) for v in row) for row in data["values"]
            )
            meta = None
            if data.get("bivalued") is not None:
                meta = tuple(
                    (parse_value(e["h"]), parse_value(e["l"])) for e in data["bivalued"]
                )
            n, m = int(data["n"]), int(data["m"])
        except KeyError as exc:
            raise DomainError(f"instance JSON lacks the key {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise DomainError(f"malformed instance JSON: {exc}") from None
        return Instance(n, m, values, meta)

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
class PreferenceProfile:
    """Per-agent permutation of good indices, best first."""

    rankings: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        m = len(self.rankings[0]) if self.rankings else 0
        goods = set(range(m))
        for r in self.rankings:
            if len(r) != m or set(r) != goods:
                raise DomainError("each ranking must be a permutation of 0..m-1")

    @property
    def n(self) -> int:
        return len(self.rankings)

    @property
    def m(self) -> int:
        return len(self.rankings[0])


@dataclass(frozen=True)
class Allocation:
    """Disjoint bundles of good indices, one per agent."""

    bundles: tuple[frozenset[int], ...]
    complete: bool

    @staticmethod
    def from_bundles(bundles: Sequence[Sequence[int]], complete: bool = True) -> "Allocation":
        return Allocation(tuple(frozenset(b) for b in bundles), complete)

    def to_json(self) -> dict:
        return {"bundles": [sorted(b) for b in self.bundles]}

    @staticmethod
    def from_json(data: dict, m: Optional[int] = None) -> "Allocation":
        """Parse ``{"bundles": [[good, ...], ...]}``; goods are JSON integers
        (booleans are not) and each appears at most once."""
        raw = data.get("bundles") if isinstance(data, dict) else None
        if not isinstance(raw, list) or not all(isinstance(b, list) for b in raw):
            raise InvalidAllocation('expected {"bundles": [[good, ...], ...]}')
        seen: set[int] = set()
        for bundle in raw:
            for g in bundle:
                if isinstance(g, bool) or not isinstance(g, int):
                    raise InvalidAllocation(f"good {g!r} is not an integer")
                if g in seen:
                    raise OverlapError(f"good {g} appears more than once")
                seen.add(g)
        complete = m is not None and len(seen) == m
        return Allocation(tuple(frozenset(b) for b in raw), complete)


@dataclass(frozen=True)
class FairnessReport:
    """Exact envy factors with the pair and removed good that attain them.

    ``alpha_efx`` uses the worst-case removal from the envied bundle,
    ``alpha_ef1`` the best-case one; both are capped at 1. Bindings are
    (envious agent, envied agent, removed good) or None when no pair
    constrains.
    """

    alpha_efx: Value
    alpha_ef1: Value
    efx_binding: Optional[tuple[int, int, int]] = None
    ef1_binding: Optional[tuple[int, int, int]] = None
    raw_efx_ratio: Optional[Value] = None


def build_ranking(instance: Instance) -> PreferenceProfile:
    """Rank each agent's goods by value descending, ties by ascending index."""
    order = np.argsort(-instance.scaled_values, axis=1, kind="stable")
    return PreferenceProfile(tuple(map(tuple, order.tolist())))


def validate(instance: Instance, allocation: Allocation) -> None:
    """Raise a diagnostic error if the allocation is malformed for the instance."""
    if len(allocation.bundles) != instance.n:
        raise InvalidAllocation(
            f"expected {instance.n} bundles, got {len(allocation.bundles)}"
        )
    seen: set[int] = set()
    for i, bundle in enumerate(allocation.bundles):
        for g in bundle:
            if not 0 <= g < instance.m:
                raise InvalidAllocation(f"bundle {i} references unknown good {g}")
            if g in seen:
                raise OverlapError(f"good {g} appears in more than one bundle")
            seen.add(g)
    if allocation.complete and len(seen) != instance.m:
        raise CompletenessError(
            f"allocation marked complete but covers {len(seen)} of {instance.m} goods"
        )
    if not allocation.complete and len(seen) == instance.m:
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
    n, m = instance.n, instance.m
    values = instance.scaled_values
    owner = np.full(m, -1)
    for j, bundle in enumerate(allocation.bundles):
        owner[list(bundle)] = j

    # [viewer i][bundle j]: v_i(X_j), and the lowest-index least and most
    # valuable good of X_j under v_i (unset for empty bundles).
    sums = np.zeros((n, n), dtype=values.dtype)
    min_good = np.zeros((n, n), dtype=np.int64)
    max_good = np.zeros((n, n), dtype=np.int64)
    for j, bundle in enumerate(allocation.bundles):
        if bundle:
            goods = np.flatnonzero(owner == j)
            block = values[:, goods]
            sums[:, j] = block.sum(axis=1)
            min_good[:, j] = goods[block.argmin(axis=1)]
            max_good[:, j] = goods[block.argmax(axis=1)]
    min_value = np.take_along_axis(values, min_good, axis=1).tolist()
    max_value = np.take_along_axis(values, max_good, axis=1).tolist()
    sums_l, min_good_l, max_good_l = sums.tolist(), min_good.tolist(), max_good.tolist()

    # Factors as (numerator, denominator) pairs of one agent's scaled ints,
    # compared by cross-multiplication; both capped factors start at 1.
    efx, ef1 = (1, 1), (1, 1)
    raw_efx: Optional[tuple[int, int]] = None
    efx_binding: Optional[tuple[int, int, int]] = None
    ef1_binding: Optional[tuple[int, int, int]] = None
    for i in range(n):
        own = sums_l[i][i]
        for j in range(n):
            if j == i or not allocation.bundles[j]:
                continue
            efx_den = sums_l[i][j] - min_value[i][j]
            if efx_den > 0:
                if raw_efx is None or own * raw_efx[1] < raw_efx[0] * efx_den:
                    raw_efx = (own, efx_den)
                if own * efx[1] < efx[0] * efx_den:
                    efx = (own, efx_den)
                    efx_binding = (i, j, min_good_l[i][j])
            ef1_den = sums_l[i][j] - max_value[i][j]
            if ef1_den > 0 and own * ef1[1] < ef1[0] * ef1_den:
                ef1 = (own, ef1_den)
                ef1_binding = (i, j, max_good_l[i][j])

    return FairnessReport(
        Fraction(*efx),
        Fraction(*ef1),
        efx_binding,
        ef1_binding,
        Fraction(*raw_efx) if raw_efx is not None else None,
    )


def alpha_efx(instance: Instance, allocation: Allocation) -> FairnessReport:
    return fairness_report(instance, allocation)


def alpha_ef1(instance: Instance, allocation: Allocation) -> FairnessReport:
    return fairness_report(instance, allocation)


def trivial_few_goods_allocation(n: int, m: int) -> Allocation:
    """One good per agent in ascending order; used whenever m < n.

    With at most one good per bundle the result is exactly EFX.
    """
    bundles = [frozenset([g]) if g < m else frozenset() for g in range(n)]
    return Allocation(tuple(bundles[:n]), complete=True)
