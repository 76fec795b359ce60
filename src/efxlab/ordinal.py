"""Zero-query allocation algorithms driven by the rankings alone."""

from __future__ import annotations

from typing import Optional, Sequence

from .core import Allocation, DomainError
from .elicitation import QueryOracle


def _pick_top(ranking: Sequence[int], taken: list[bool], cursor: list[int], i: int) -> int:
    """Advance agent i's cursor past taken goods and return her top pick."""
    pos = cursor[i]
    while taken[ranking[pos]]:
        pos += 1
    cursor[i] = pos + 1
    return ranking[pos]


def round_robin(
    oracle: QueryOracle,
    participants: Optional[Sequence[int]] = None,
    pool: Optional[Sequence[int]] = None,
) -> Allocation:
    """Agents, in ascending index order, repeatedly pick their top-ranked
    remaining good.

    ``participants`` and ``pool`` restrict the run to a subset of agents and
    goods (used when this serves as a subroutine).
    """
    rankings = oracle.rankings
    n, m = oracle.n, oracle.m
    agents = list(participants) if participants is not None else list(range(n))
    if not agents:
        raise DomainError("participants must be nonempty")

    taken = [True] * m
    for g in pool if pool is not None else range(m):
        taken[g] = False
    remaining = pool_size = taken.count(False)
    bundles: list[list[int]] = [[] for _ in range(n)]
    cursor = [0] * n
    while remaining > 0:
        for i in agents:
            if remaining == 0:
                break
            g = _pick_top(rankings[i], taken, cursor, i)
            taken[g] = True
            remaining -= 1
            bundles[i].append(g)
    return Allocation.from_bundles(bundles, complete=pool_size == m)


def rrla(oracle: QueryOracle) -> Allocation:
    """One pick each for the first n-1 agents, the rest to the last agent."""
    rankings = oracle.rankings
    n, m = oracle.n, oracle.m
    taken = [False] * m
    bundles: list[list[int]] = [[] for _ in range(n)]
    cursor = [0] * n
    remaining = m
    for i in range(n - 1):
        if remaining == 0:
            break
        g = _pick_top(rankings[i], taken, cursor, i)
        taken[g] = True
        remaining -= 1
        bundles[i].append(g)
    bundles[n - 1] = [g for g in range(m) if not taken[g]]
    return Allocation.from_bundles(bundles)
