"""Algorithms for instances where each agent has one high and one low value.

The full-information routine matches unfrozen agents to high-valued goods
each round and freezes agents who take a high good someone else wanted;
the query version first uncovers each agent's valuation (or learns it is
flat near the top) with a short binary search, then interleaves matching
rounds with round-robin picks.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .core import (
    Allocation,
    DomainError,
    FairDivisionError,
    Instance,
    trivial_few_goods_allocation,
)
from .elicitation import QueryOracle
from .query_enhanced import PRRParams, prr


class NotBivalued(FairDivisionError):
    """Instance is not (or not declared) bivalued."""


class ZeroLowValue(FairDivisionError):
    """A zero low value makes the freeze duration undefined."""


@dataclass
class MatchFreezeState:
    """Mutable per-run bookkeeping for the matching rounds.

    ``priority`` lists the participants in matching order, ``high_goods``
    each one's high-valued goods in ascending order and ``duration`` how many
    rounds a high good she lost freezes its taker. The pool only shrinks, so
    goods taken in earlier rounds are dropped from the front of a list
    lazily, and the matching skips the rest. ``bundles`` lists each agent's
    goods in the order she took them.
    """

    priority: list[int]
    high_goods: dict[int, list[int]]
    duration: dict[int, int]
    freeze_counters: list[int]
    pool: set[int]
    bundles: list[list[int]]
    frozen_events: list[int] = field(default_factory=list)

    @classmethod
    def start(
        cls,
        n: int,
        m: int,
        meta: dict[int, tuple[Fraction, Fraction]],
        high_goods: dict[int, list[int]],
    ) -> "MatchFreezeState":
        """The state before the first round of n agents over m goods; ``meta``
        maps each participant to her (h, l), with l > 0, and ``high_goods``
        to her goods worth h, ascending."""
        return cls(
            # Higher high-to-low ratio first, ties by agent index.
            priority=sorted(meta, key=lambda i: (-(meta[i][0] / meta[i][1]), i)),
            high_goods=high_goods,
            # ceil(h/l) - 1 low goods are needed to catch up to a lost high
            # good; the floor variant undercompensates whenever l does not
            # divide h, and measurably breaks exact EFX.
            duration={i: math.ceil(h / low) - 1 for i, (h, low) in meta.items()},
            freeze_counters=[0] * n,
            pool=set(range(m)),
            bundles=[[] for _ in range(n)],
        )


def prioritized_max_matching(
    agents: Sequence[int],
    high_edges: dict[int, Sequence[int]],
    pool: set[int],
) -> dict[int, int]:
    """Maximum matching whose matched-agent set is lexicographically optimal
    with respect to the given priority order.

    Standard augmenting-path construction: agents are tried in order, and an
    agent joins the matching exactly when an augmenting path exists; earlier
    commitments are never undone. The depth-first search keeps an explicit
    stack, so long augmenting paths need no recursion; edges outside the
    pool are skipped.
    """
    match_of_good: dict[int, int] = {}
    match_of_agent: dict[int, int] = {}

    for root in agents:
        visited: set[int] = set()
        # The path so far: agents, each with her untried edges, and the good
        # each agent but the last would take if the path reaches a free good.
        path_agents = [root]
        edges = [iter(high_edges.get(root, ()))]
        path_goods: list[int] = []
        while edges:
            for g in edges[-1]:
                if g in pool and g not in visited:
                    break
            else:
                # No augmenting path through this agent: back up one step.
                edges.pop()
                path_agents.pop()
                if path_goods:
                    path_goods.pop()
                continue
            visited.add(g)
            path_goods.append(g)
            holder = match_of_good.get(g)
            if holder is None:
                for agent, good in zip(path_agents, path_goods):
                    match_of_good[good] = agent
                    match_of_agent[agent] = good
                break
            path_agents.append(holder)
            edges.append(iter(high_edges.get(holder, ())))
    return match_of_agent


def _high_goods(instance: Instance, agent: int, high: Fraction) -> list[int]:
    """The agent's goods worth ``high``, her high value, ascending."""
    row = instance.scaled_values[agent]
    top = int(row[row.argmax()])
    # The row's largest entry is worth ``high`` when it equals high on the row's scale.
    if top * high.denominator != high.numerator * instance.scales[agent]:
        return []
    return np.flatnonzero(row == top).tolist()


def match_freeze_round(state: MatchFreezeState) -> None:
    """One matching round: matched agents take high goods, the rest take the
    lowest-index available good, and freeze counters are updated in place."""
    priority = []
    for i in state.priority:
        if state.freeze_counters[i] > 0:
            state.freeze_counters[i] -= 1
        else:
            priority.append(i)
    for i in priority:
        goods = state.high_goods[i]
        taken = 0
        while taken < len(goods) and goods[taken] not in state.pool:
            taken += 1
        del goods[:taken]
    matching = prioritized_max_matching(priority, state.high_goods, state.pool)
    for i, g in matching.items():
        state.bundles[i].append(g)
        state.pool.discard(g)
    matched_this_round = list(matching.items())
    # Unmatched agents pick lowest-index goods, the agent with the smallest
    # bundle first: when the pool runs dry mid-round, the leftover must go
    # to whoever is behind, or exact EFX is lost.
    unmatched = sorted(
        set(priority) - set(matching), key=lambda i: (len(state.bundles[i]), i)
    )
    for i in unmatched:
        if not state.pool:
            break
        g = min(state.pool)
        state.bundles[i].append(g)
        state.pool.discard(g)
        duration = state.duration[i]
        # Goods taken this round are still in the sorted high lists.
        high_i = state.high_goods[i]
        for j, gj in matched_this_round:
            pos = bisect_left(high_i, gj)
            if pos < len(high_i) and high_i[pos] == gj:
                if state.freeze_counters[j] == 0 and duration > 0:
                    state.frozen_events.append(j)
                state.freeze_counters[j] = duration


def _match_freeze_run(
    state: MatchFreezeState,
    flat: Sequence[int] = (),
    rankings: Sequence[Sequence[int]] = (),
) -> Allocation:
    """Allocate every good in rounds: one :func:`match_freeze_round` for the
    state's participants, then one pick of her top remaining good (along
    ``rankings``) for each ``flat`` agent in turn, her ranking walked once,
    lazily, past the goods gone from the pool."""
    walks = [(filter(state.pool.__contains__, rankings[i]), i) for i in flat]
    while state.pool:
        if state.priority:
            match_freeze_round(state)
        for walk, i in walks:
            if not state.pool:
                break
            g = next(walk)
            state.bundles[i].append(g)
            state.pool.discard(g)
    return Allocation.from_bundles(state.bundles)


def match_and_freeze(instance: Instance) -> Allocation:
    """Full run of the matching-with-freezing procedure over all goods."""
    if instance.bivalued_meta is None:
        raise NotBivalued("instance has no bivalued metadata")
    for i, (_, low) in enumerate(instance.bivalued_meta):
        if low == 0:
            raise ZeroLowValue(f"agent {i} has low value 0")
    meta = dict(enumerate(instance.bivalued_meta))
    high_goods = {i: _high_goods(instance, i, h) for i, (h, _) in meta.items()}
    return _match_freeze_run(MatchFreezeState.start(instance.n, instance.m, meta, high_goods))


@dataclass(frozen=True)
class TransitionInfo:
    """Uncovered valuation of an agent with a high-to-low drop in her top-n."""

    high: Fraction
    low: Fraction
    transition_rank: int  # 1-based rank of the first low-valued good


def discover_transition(
    oracle: QueryOracle, agent: int
) -> Optional[TransitionInfo]:
    """Binary-search the agent's top-n ranks for the high-to-low drop.

    Returns None when all top-n values are equal (nothing uncovered).
    Spends at most 1 + ceil(log2 n) queries. Raises NotBivalued if a third
    distinct value shows up among the probes.
    """
    n = oracle.n
    if oracle.m < n:
        raise DomainError("discover_transition requires m >= n")
    ranking = oracle.rankings[agent]
    top_value = oracle.query(agent, ranking[0])
    observed = {top_value}
    # First 1-based rank r in [2, n] whose value is below the top, if any.
    lo, hi = 2, n
    first_low = None
    while lo <= hi:
        mid = (lo + hi) // 2
        v = oracle.query(agent, ranking[mid - 1])
        observed.add(v)
        if len(observed) > 2:
            raise NotBivalued(f"agent {agent}: three distinct values observed")
        if v < top_value:
            first_low = mid
            hi = mid - 1
        else:
            lo = mid + 1
    if first_low is None:
        return None
    low = next(v for v in observed if v != top_value)
    return TransitionInfo(high=top_value, low=low, transition_rank=first_low)


def mfrr(oracle: QueryOracle) -> Allocation:
    """Uncover transitions, then alternate one matching round for the
    uncovered agents with one round-robin pick for the flat-top agents."""
    n, m = oracle.n, oracle.m
    if m < n:
        return trivial_few_goods_allocation(n, m)
    rankings = oracle.rankings
    meta: dict[int, tuple[Fraction, Fraction]] = {}
    high_goods: dict[int, list[int]] = {}
    flat: list[int] = []
    for i in range(n):
        info = discover_transition(oracle, i)
        if info is not None:
            if info.low == 0:
                raise ZeroLowValue(f"agent {i} has low value 0")
            meta[i] = (info.high, info.low)
            # Her top transition_rank - 1 goods are worth h, the rest l.
            high_goods[i] = sorted(rankings[i][: info.transition_rank - 1])
        else:
            flat.append(i)
    return _match_freeze_run(MatchFreezeState.start(n, m, meta, high_goods), flat, rankings)


def two_query_bivalued(oracle: QueryOracle) -> Allocation:
    """Two queries per agent: a singleton filter with one cut of size n-1
    and threshold m/2, then round-robin for everyone else."""
    n, m = oracle.n, oracle.m
    if m < 2 * n:
        raise DomainError("two-query variant requires m >= 2n")
    return prr(oracle, PRRParams(alpha=(n - 1,), beta=(Fraction(m, 2),)))
