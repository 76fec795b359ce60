"""Full-information allocators: exhaustive oracles and an envy-cycle heuristic.

The exhaustive search enumerates all n**m complete allocations (good j is
the j-th base-n digit, good 0 most significant) with exact integer
arithmetic on the instance's per-agent scaled integer rows, which leave
every envy ratio unchanged. The goods are split into a prefix (the high
digits) and a suffix, and every block of consecutive assignments pairs
prefixes with suffixes, so its bundle sums and minima are sums and minima
of entries of two precomputed tables.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from operator import add, lt
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import Allocation, FairDivisionError, Instance

ENUMERATION_GUARD = 10**8
# Most assignments in one block: the length of every per-block array.
_BLOCK = 1 << 12


class TooLarge(FairDivisionError):
    """Exhaustive enumeration would exceed the guard."""


def _guard(instance: Instance) -> None:
    if instance.n**instance.m > ENUMERATION_GUARD:
        raise TooLarge(
            f"{instance.n}**{instance.m} allocations exceed the {ENUMERATION_GUARD} guard"
        )


def _bundle_tables(
    values: np.ndarray, goods: Sequence[int], n: int, big: int
) -> tuple[np.ndarray, np.ndarray]:
    """Bundle sums and minima for every assignment of ``goods``, in enumeration order.

    Entry ``[i, j, t]`` is viewer i's sum (and least value) over the goods
    that assignment t gives to agent j, where t's base-n digits are the
    owners of ``goods``, the first good most significant. An empty bundle
    has sum 0 and minimum ``big``.
    """
    sums = np.zeros((n, n, 1), dtype=values.dtype)
    mins = np.full((n, n, 1), big, dtype=values.dtype)
    # gets[0, j, o, 0]: the good goes to agent j when its owner is o.
    gets = np.eye(n, dtype=bool)[None, :, :, None]
    for g in reversed(goods):
        v = values[:, g, None, None, None]
        # Good g becomes the most significant digit: new index = owner * len + old.
        sums = (sums[:, :, None, :] + np.where(gets, v, 0)).reshape(n, n, -1)
        mins = np.minimum(mins[:, :, None, :], np.where(gets, v, big)).reshape(n, n, -1)
    return sums, mins


def _envy_blocks(instance: Instance) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield ``(start, own, envy)`` for consecutive blocks of all n**m assignments.

    For the assignments ``start, start + 1, ...`` of the block, ``own[i]`` is
    v_i(X_i) and ``envy[i]`` the largest v_i(X_j) - min_{g in X_j} v_i(g)
    over the other agents j, negative when every other bundle is empty.
    Sums and minima are int64 when they fit, exact Python integers otherwise.
    """
    n, m = instance.n, instance.m
    values = instance.scaled_values
    top = int(values.max())
    if top * m < 2**62:
        values = values.astype(np.int64, copy=False)
    # Sentinel above any possible bundle sum; marks empty bundles in mins.
    big = top * m + 1
    # Split the goods in half, so both tables are about sqrt(n**m) long.
    width = (m + 1) // 2
    pre_sums, pre_mins = _bundle_tables(values, range(m - width), n, big)
    suf_sums, suf_mins = _bundle_tables(values, range(m - width, m), n, big)
    suffixes = suf_sums.shape[2]
    # A block is a range of prefixes times all suffixes, or one prefix times
    # a range of suffixes; either way its assignments are consecutive.
    step, rows = max(1, _BLOCK // suffixes), min(suffixes, _BLOCK)
    for lo in range(0, pre_sums.shape[2], step):
        pre = slice(lo, lo + step)
        for first in range(0, suffixes, rows):
            suf = slice(first, first + rows)
            own, envy = [], []
            for i in range(n):
                sums = pre_sums[i, :, pre, None] + suf_sums[i, :, None, suf]
                rivals = np.minimum(pre_mins[i, :, pre, None], suf_mins[i, :, None, suf])
                np.subtract(sums, rivals, out=rivals)
                rivals[i] = -big  # one's own bundle is no rival
                own.append(sums[i].ravel())
                envy.append(rivals.max(axis=0).ravel())
            yield lo * suffixes + first, np.array(own), np.array(envy)


def _allocation_at(index: int, n: int, m: int) -> Allocation:
    bundles: list[list[int]] = [[] for _ in range(n)]
    for g in range(m - 1, -1, -1):
        index, owner = divmod(index, n)
        bundles[owner].append(g)
    return Allocation.from_bundles(bundles)


def exact_efx_bruteforce(instance: Instance) -> Optional[Allocation]:
    """First complete allocation in enumeration order that is exactly EFX, if any."""
    _guard(instance)
    for start, own, envy in _envy_blocks(instance):
        # v_i(X_i) >= v_i(X_j) - worst good for all j; empty bundles never constrain.
        hits = np.flatnonzero((own >= envy).all(axis=0))
        if hits.size:
            return _allocation_at(start + int(hits[0]), instance.n, instance.m)
    return None


def _ratio_keys(nums: np.ndarray, dens: np.ndarray, bits: int) -> np.ndarray:
    """``floor(num * 2**(2*bits) / den)`` elementwise, for ``0 <= num <= den < 2**bits``.

    Two different fractions with denominators below ``2**bits`` differ by
    more than ``2**(-2*bits)``, so the keys order the ratios exactly and tie
    only on equal ones. Up to ``bits = 31`` the key is an int64 long
    division in two steps of ``bits`` bits; beyond, a Python integer.
    """
    if 2 * bits > 62:
        return (nums.astype(object) << 2 * bits) // dens
    high, rest = np.divmod(nums << bits, dens)
    return (high << bits) + (rest << bits) // dens


def best_alpha_bruteforce(instance: Instance) -> tuple[Fraction, Allocation]:
    """Maximum EFX factor over all complete allocations, with the first witness."""
    _guard(instance)
    n, m = instance.n, instance.m
    bits = (int(instance.scaled_values.max()) * m).bit_length()
    best_key, best, best_at = -1, Fraction(0), 0
    for start, own, envy in _envy_blocks(instance):
        efx = np.flatnonzero((own >= envy).all(axis=0))
        if efx.size:
            # Factor 1 cannot be beaten, and no earlier assignment reached it.
            return Fraction(1), _allocation_at(start + int(efx[0]), n, m)
        # Viewer i's factor is the least v_i(X_i) / envy_ij over j, capped at
        # 1 (and below 1 for some viewer here). Those ratios share the
        # numerator, so it is v_i(X_i) / envy_i when that is below 1.
        envious = envy > own
        nums = np.where(envious, own, 1)
        dens = np.where(envious, envy, 1)
        keys = _ratio_keys(nums, dens, bits).min(axis=0)
        first = int(keys.argmax())  # argmax returns the first maximum
        if keys[first] > best_key:
            best_key, best_at = keys[first], start + first
            best = min(Fraction(int(a), int(b)) for a, b in zip(nums[:, first], dens[:, first]))
    return best, _allocation_at(best_at, n, m)


def _top_values(instance: Instance) -> list[int]:
    """Each good's greatest value over the agents, as ints on one common scale.

    ``scaled_values`` scales each row by its own factor ``scales[i]``, so
    values of different agents compare only on the least common multiple of
    those factors. Rows that share a scale compare directly: each such group
    is reduced first, and only the group maxima are brought to the common
    scale.
    """
    scaled = instance.scaled_values
    groups: dict[int, list[int]] = {}
    for i, scale in enumerate(instance.scales):
        groups.setdefault(scale, []).append(i)
    if len(groups) == 1:
        return scaled.max(axis=0).tolist()
    common = math.lcm(*groups)
    tops = [scaled[rows].max(axis=0).astype(object) * (common // s) for s, rows in groups.items()]
    return np.maximum.reduce(tops).tolist()


def envy_cycle_heuristic(instance: Instance) -> Allocation:
    """Assign goods to unenvied agents, rotating bundles along envy cycles.

    Goods are processed in nonincreasing order of their maximum value over
    agents (ties by index); the lowest-index unenvied agent receives, and
    when everyone is envied the cycle reachable from the lowest-index agent
    is rotated. The output is always complete.

    Worths are exact Python ints kept column by column: ``cols[j][i]`` is
    v_i(X_j) on agent i's own integer scale and ``diag[i]`` is v_i(X_i), so a
    good is added to a bundle by one list-wide sum and the agents envying a
    bundle are one comparison against the diagonal.
    """
    n, m = instance.n, instance.m
    # A stable sort keeps tied goods in index order, reversed or not.
    order = sorted(range(m), key=_top_values(instance).__getitem__, reverse=True)
    goods = instance.scaled_values.T.tolist()
    agents = range(n)
    bundles: list[list[int]] = [[] for _ in agents]
    cols = [[0] * n for _ in agents]
    diag = [0] * n
    # envy[i]: the agents i envies; enviers[j]: how many agents envy j.
    envy: list[set[int]] = [set() for _ in agents]
    enviers = [0] * n

    def rotate_until_unenvied() -> int:
        """Rotate envy cycles until some agent is unenvied; the lowest such."""
        while 0 not in enviers:
            # Every agent is envied, so every node has an incoming envy edge;
            # walking to the lowest-index envier from agent 0 must revisit a
            # node, closing a cycle. The cycle list is ordered along envy
            # direction: cycle[t] envies cycle[t + 1].
            path = [0]
            pos = {0: 0}
            while True:
                prev = next(compress(agents, map(lt, diag, cols[path[-1]])))
                if prev in pos:
                    cycle = [prev] + path[: pos[prev] : -1]
                    break
                pos[prev] = len(path)
                path.append(prev)
            # cycle[t] takes the bundle, and so the worth column, of cycle[t + 1].
            takes = cycle[1:] + cycle[:1]
            moved = [(cols[j], bundles[j]) for j in takes]
            for agent, (col, bundle) in zip(cycle, moved):
                cols[agent], bundles[agent] = col, bundle
            diag[:] = [col[i] for i, col in enumerate(cols)]
            for mine in envy:
                mine.clear()
            for j, col in enumerate(cols):
                rivals = list(compress(agents, map(lt, diag, col)))
                enviers[j] = len(rivals)
                for i in rivals:
                    envy[i].add(j)
        return enviers.index(0)

    for g in order:
        try:
            target = enviers.index(0)
        except ValueError:
            target = rotate_until_unenvied()
        bundles[target].append(g)
        col = cols[target] = list(map(add, cols[target], goods[g]))
        # The target's own worth can only end her envy of others, and
        # others may start to envy her.
        own = diag[target] = col[target]
        mine = envy[target]
        for j in [j for j in mine if cols[j][target] <= own]:
            mine.discard(j)
            enviers[j] -= 1
        rivals = list(compress(agents, map(lt, diag, col)))
        enviers[target] = len(rivals)
        for i in rivals:
            envy[i].add(target)

    return Allocation.from_bundles(bundles)
