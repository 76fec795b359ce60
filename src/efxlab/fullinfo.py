"""Full-information allocators: exhaustive oracles and an envy-cycle heuristic.

The exhaustive search enumerates all n**m complete allocations (good j is
the j-th base-n digit, good 0 most significant) with exact integer
arithmetic on the instance's per-agent scaled integer rows, which leave
every envy ratio unchanged.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from .core import (
    Allocation,
    FairDivisionError,
    Instance,
    Value,
    fairness_report,
)

ENUMERATION_GUARD = 10**8
_CHUNK = 1 << 16


class TooLarge(FairDivisionError):
    """Exhaustive enumeration would exceed the guard."""


def assignment_chunks(n: int, m: int, chunk: int = _CHUNK) -> Iterator[np.ndarray]:
    """Yield (rows, m) arrays of owner digits covering all n**m assignments in order."""
    total = n**m
    pows = np.array([n ** (m - 1 - j) for j in range(m)], dtype=np.int64)
    start = 0
    while start < total:
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        yield (idx[:, None] // pows) % n
        start += chunk


def _pair_tables(values: np.ndarray, digits: np.ndarray, n: int):
    """Bundle sums and minima per (viewer, bundle) for a chunk of assignments."""
    dtype = values.dtype
    # Sentinel above any possible bundle sum; marks empty bundles in mins.
    big = int(values.max()) * values.shape[1] + 1 if values.size else 1
    if dtype == np.int64:
        big = np.int64(big)
    sums = np.empty((n, n, digits.shape[0]), dtype=dtype)
    mins = np.empty((n, n, digits.shape[0]), dtype=dtype)
    for j in range(n):
        mask = digits == j
        for i in range(n):
            sums[i, j] = np.where(mask, values[i][None, :], 0).sum(axis=1)
            mins[i, j] = np.where(mask, values[i][None, :], big).min(axis=1)
    return sums, mins, big


def _guard(instance: Instance) -> None:
    if instance.n**instance.m > ENUMERATION_GUARD:
        raise TooLarge(
            f"{instance.n}**{instance.m} allocations exceed the {ENUMERATION_GUARD} guard"
        )


def _allocation_from_digits(digits: np.ndarray, n: int) -> Allocation:
    bundles: list[set[int]] = [set() for _ in range(n)]
    for g, j in enumerate(digits.tolist()):
        bundles[j].add(g)
    return Allocation(tuple(frozenset(b) for b in bundles), complete=True)


def exact_efx_bruteforce(instance: Instance) -> Optional[Allocation]:
    """First complete allocation in enumeration order that is exactly EFX, if any."""
    _guard(instance)
    values = instance.scaled_values
    n = instance.n
    for digits in assignment_chunks(n, instance.m):
        sums, mins, big = _pair_tables(values, digits, n)
        ok = np.ones(digits.shape[0], dtype=bool)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                nonempty = mins[i, j] < big
                # v_i(X_i) >= v_i(X_j) - worst good; empty bundles never constrain.
                ok &= ~nonempty | (sums[i, i] >= sums[i, j] - mins[i, j])
        hits = np.flatnonzero(ok)
        if hits.size:
            return _allocation_from_digits(digits[hits[0]], n)
    return None


def best_alpha_bruteforce(instance: Instance) -> tuple[Value, Allocation]:
    """Maximum EFX factor over all complete allocations, with the first witness."""
    _guard(instance)
    values = instance.scaled_values
    n = instance.n
    best_num, best_den = -1, 1  # below any real alpha, so the first assignment wins
    best_digits: Optional[np.ndarray] = None
    for digits in assignment_chunks(n, instance.m):
        sums, mins, big = _pair_tables(values, digits, n)
        # Per-assignment capped alpha as an integer ratio, starting at 1/1.
        num = np.ones(digits.shape[0], dtype=values.dtype)
        den = np.ones(digits.shape[0], dtype=values.dtype)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                d = sums[i, j] - mins[i, j]
                active = (mins[i, j] < big) & (d > 0)
                smaller = active & (sums[i, i] * den < num * d)
                num = np.where(smaller, sums[i, i], num)
                den = np.where(smaller, d, den)
        num = np.minimum(num, den)  # cap at 1
        while True:
            better = num * best_den > best_num * den
            hits = np.flatnonzero(better)
            if not hits.size:
                break
            first = hits[0]
            best_num, best_den = int(num[first]), int(den[first])
            best_digits = digits[first].copy()
            if best_num >= best_den:
                break
        if best_num >= best_den and best_digits is not None:
            # Alpha 1 cannot be beaten; keep the first witness.
            break
    assert best_digits is not None
    return Fraction(best_num, best_den), _allocation_from_digits(best_digits, n)


def _common_scale(instance: Instance) -> np.ndarray:
    """The value matrix with every agent's row on one common integer scale.

    ``scaled_values`` scales each row by its own factor, so values of
    different agents can be compared only after bringing the rows to the
    least common multiple of those factors.
    """
    scaled = instance.scaled_values
    factors = []
    for i, top in enumerate(scaled.argmax(axis=1).tolist()):
        v = instance.values[i][top]
        # Row i was multiplied by scaled/v; an all-zero row needs no factor.
        factors.append(int(scaled[i, top]) * v.denominator // v.numerator if v else 1)
    common = math.lcm(*factors)
    if common == 1:
        return scaled
    multipliers = np.array([common // f for f in factors], dtype=object)
    return scaled.astype(object) * multipliers[:, None]


def envy_cycle_heuristic(instance: Instance) -> Allocation:
    """Assign goods to unenvied agents, rotating bundles along envy cycles.

    Goods are processed in nonincreasing order of their maximum value over
    agents (ties by index); the lowest-index unenvied agent receives, and
    when everyone is envied the cycle reachable from the lowest-index agent
    is rotated. The output is always complete.
    """
    n = instance.n
    order = np.argsort(-_common_scale(instance).max(axis=0), kind="stable").tolist()
    rows = instance.scaled_values.tolist()
    bundles: list[set[int]] = [set() for _ in range(n)]
    # worth[i][j] = v_i(X_j) on agent i's own integer scale, kept incrementally.
    worth = [[0] * n for _ in range(n)]

    def envies(i: int, j: int) -> bool:
        return worth[i][i] < worth[i][j]

    def count_enviers(j: int) -> int:
        # No agent envies herself, so the sum needs no i != j filter.
        return sum(worth[i][i] < worth[i][j] for i in range(n))

    # enviers[j] = number of agents envying agent j, kept in step with worth.
    enviers = [0] * n
    for g in order:
        target = next((j for j in range(n) if not enviers[j]), None)
        while target is None:
            # Every agent is envied, so every node has an incoming envy edge;
            # walking those edges backwards from agent 0 must revisit a node,
            # closing a cycle. The cycle list is ordered along envy direction.
            path = [0]
            pos = {0: 0}
            while True:
                cur = path[-1]
                prev = next(i for i in range(n) if i != cur and envies(i, cur))
                if prev in pos:
                    cycle = [prev] + path[: pos[prev] : -1]
                    break
                pos[prev] = len(path)
                path.append(prev)
            rotated = [bundles[cycle[(t + 1) % len(cycle)]] for t in range(len(cycle))]
            for t, agent in enumerate(cycle):
                bundles[agent] = rotated[t]
            for i in range(n):
                new_worth = [worth[i][j] for j in range(n)]
                for t, agent in enumerate(cycle):
                    new_worth[agent] = worth[i][cycle[(t + 1) % len(cycle)]]
                worth[i] = new_worth
            enviers = [count_enviers(j) for j in range(n)]
            target = next((j for j in range(n) if not enviers[j]), None)
        # The good changes column ``target`` of worth: the target's own
        # worth can only end her envy of others, and others may start to
        # envy her.
        own = worth[target][target]
        envied_by_target = [j for j, w in enumerate(worth[target]) if own < w]
        bundles[target].add(g)
        for i in range(n):
            worth[i][target] += rows[i][g]
        for j in envied_by_target:
            if not envies(target, j):
                enviers[j] -= 1
        enviers[target] = count_enviers(target)

    return Allocation(tuple(frozenset(b) for b in bundles), complete=True)


def measured_alpha(instance: Instance, allocation: Allocation) -> Value:
    """Convenience: exact EFX factor of an allocation under an instance."""
    return fairness_report(instance, allocation).alpha_efx
