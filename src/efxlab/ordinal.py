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

    ``participants`` (an agent listed twice picks twice a round) and ``pool``
    restrict the run to agents and goods, when this serves as a subroutine.
    Each agent walks her ranking once, lazily, past the goods taken so far.
    """
    rankings = oracle.rankings
    n, m = oracle.n, oracle.m
    agents = list(participants) if participants is not None else list(range(n))
    # A bool or float would pass the range checks; indices are ints alone.
    if not set(map(type, agents)) <= {int}:
        raise DomainError("participants must be int agent indices")
    if pool is not None and not set(map(type, pool)) <= {int}:
        raise DomainError("pool goods must be int indices")
    if not agents or not 0 <= min(agents) <= max(agents) < n:
        raise DomainError(f"participants must be nonempty, among agents 0..{n - 1}")
    if pool is not None and len(pool) and not 0 <= min(pool) <= max(pool) < m:
        raise DomainError(f"pool goods must lie in 0..{m - 1}")

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
