"""Zero-query allocation algorithms driven by the rankings alone."""

from __future__ import annotations

from itertools import cycle, filterfalse, islice
from typing import Optional, Sequence

from .core import Allocation, DomainError
from .elicitation import QueryOracle


def round_robin(
    oracle: QueryOracle,
    participants: Optional[Sequence[int]] = None,
    pool: Optional[Sequence[int]] = None,
) -> Allocation:
    """Agents, in ascending index order, repeatedly pick their top-ranked
    remaining good.

    ``participants`` and ``pool`` restrict the run to a subset of agents and
    goods (used when this serves as a subroutine). Each agent walks her
    ranking once, lazily, past the goods taken so far.
    """
    rankings = oracle.rankings
    n, m = oracle.n, oracle.m
    agents = list(participants) if participants is not None else list(range(n))
    if not agents:
        raise DomainError("participants must be nonempty")

    taken = [True] * m
    for g in pool if pool is not None else range(m):
        taken[g] = False
    pool_size = taken.count(False)
    bundles: list[list[int]] = [[] for _ in range(n)]
    walks = [filterfalse(taken.__getitem__, rankings[i]) for i in agents]
    for walk, i in islice(cycle(zip(walks, agents)), pool_size):
        g = next(walk)
        taken[g] = True
        bundles[i].append(g)
    return Allocation.from_bundles(bundles, complete=pool_size == m)


def rrla(oracle: QueryOracle) -> Allocation:
    """One pick each for the first n-1 agents, the rest to the last agent."""
    rankings = oracle.rankings
    n, m = oracle.n, oracle.m
    taken = [False] * m
    bundles: list[list[int]] = [[] for _ in range(n)]
    for i in range(min(n - 1, m)):
        g = next(filterfalse(taken.__getitem__, rankings[i]))
        taken[g] = True
        bundles[i].append(g)
    bundles[n - 1] = list(filterfalse(taken.__getitem__, range(m)))
    return Allocation.from_bundles(bundles)
