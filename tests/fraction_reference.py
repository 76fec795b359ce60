"""Reference copies of replaced implementations: the ``Fraction`` rows of an
instance (its former ``values`` view), the pure-``Fraction`` ranking,
fairness report, match-freeze rounds and envy-cycle heuristic, the
integer envy cycle with its row-major worth table, the
exhaustive oracles' per-call row scaling and their chunked enumeration, the
``Fraction``-row builds of the ``virtual_efx`` proxy and mfrr's uncovered
instance, the match-freeze and mfrr drivers with their own round loops, the
grouped ``prr`` round loop with its segment-top walk, round robin and ``rrla``
with their per-agent cursors, the recursive matching, the root enclosure bisected in
``Fraction`` arithmetic with ``theorem5_params``' segment-size refine loop on top,
the harness's per-algorithm dispatch chains and the
query adversary over ``Fraction`` rows, with its ``Fraction`` tier values and its
ranking-only consistency check. The differential tests run the library against these
and require identical outputs; nothing outside the tests imports this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace
from typing import Iterator, Optional, Sequence

import numpy as np

from efxlab.core import (
    Allocation,
    CompletenessError,
    DomainError,
    FairnessReport,
    Instance,
    InvalidAllocation,
    OverlapError,
    format_value,
    parse_value,
)
from efxlab import adversarial, bivalued, core, elicitation, harness, query_enhanced
from efxlab.enclosures import integer_nth_root as library_integer_nth_root


def fraction_rows(instance: Instance) -> tuple[tuple[Fraction, ...], ...]:
    """The instance's values as ``Fraction`` rows: agent i values good g at
    ``scaled_values[i, g] / scales[i]``."""
    return tuple(
        tuple(Fraction(x, scale) for x in row)
        for row, scale in zip(instance.scaled_values.tolist(), instance.scales)
    )


def instance_from_json(data: dict) -> Instance:
    """``Instance.from_json`` parsing every value into a ``Fraction``; ``n``
    and ``m`` must be JSON integers (not booleans) and the rows' shape, and
    ``values`` and each row JSON arrays."""
    try:
        if type(data["values"]) is not list or not all(type(r) is list for r in data["values"]):
            raise DomainError("instance JSON values must be an array of arrays")
        values = tuple(tuple(parse_value(v) for v in row) for row in data["values"])
        meta = None
        if data.get("bivalued") is not None:
            meta = tuple((parse_value(e["h"]), parse_value(e["l"])) for e in data["bivalued"])
        n, m = data["n"], data["m"]
    except KeyError as exc:
        raise DomainError(f"instance JSON lacks the key {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed instance JSON: {exc}") from None
    if type(n) is not int or type(m) is not int:
        raise DomainError(f"n and m must be integers, got n={n!r}, m={m!r}")
    instance = Instance.from_rows(values, meta)
    if (instance.n, instance.m) != (n, m):
        raise DomainError("values matrix must be n x m")
    return instance


def instance_to_json(instance: Instance) -> dict:
    """``Instance.to_json`` formatting the ``Fraction`` view."""
    out: dict = {
        "n": instance.n,
        "m": instance.m,
        "values": [[format_value(v) for v in row] for row in fraction_rows(instance)],
    }
    if instance.bivalued_meta is not None:
        out["bivalued"] = [
            {"h": format_value(h), "l": format_value(low)} for h, low in instance.bivalued_meta
        ]
    return out


def validate(instance: Instance, allocation: Allocation) -> None:
    """Per-good validation in Python; reports the first bad good it meets."""
    if len(allocation.bundles) != instance.n:
        raise InvalidAllocation(f"expected {instance.n} bundles, got {len(allocation.bundles)}")
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


def ordinal_lb_cases(n: int, m: int) -> tuple[Instance, Instance]:
    """The two valuations of ``ordinal_lb_build`` from ``Fraction`` rows."""
    one, zero = Fraction(1), Fraction(0)
    case1_row = tuple(one if g < n - 1 else zero for g in range(m))
    case1 = Instance.from_rows([case1_row] * n)
    case2 = Instance.from_rows([[one] * m] * n)
    return case1, case2


def query_lb_revealed(n: int, k: int, t: int, sqrt_lo: Fraction) -> Instance:
    """The revealed instance of ``query_lb_build`` from ``Fraction`` rows."""
    m = t ** (2 * k - 1)
    sizes = tuple(t ** (2 * level - 1) for level in range(1, k))
    row: list[Fraction] = [sqrt_lo] * (n - 1)
    for level, size in enumerate(sizes, start=1):
        row.extend([Fraction(1, t ** (2 * level))] * size)
    row.extend([Fraction(0)] * (m - (n - 1) - sum(sizes)))
    return Instance.from_rows([row] * n)


def build_ranking(instance: Instance) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(sorted(range(instance.m), key=lambda g: (-row[g], g)))
        for row in fraction_rows(instance)
    )


def fairness_report(instance: Instance, allocation: Allocation) -> FairnessReport:
    validate(instance, allocation)
    n, m = instance.n, instance.m
    owner = [-1] * m
    for j, bundle in enumerate(allocation.bundles):
        for g in bundle:
            owner[g] = j

    one = Fraction(1)
    alpha_efx = one
    alpha_ef1 = one
    efx_binding = None
    ef1_binding = None

    for i, row in enumerate(fraction_rows(instance)):
        sums = [Fraction(0)] * n
        min_good = [-1] * n
        max_good = [-1] * n
        for g in range(m):
            j = owner[g]
            if j < 0:
                continue
            v = row[g]
            sums[j] += v
            if min_good[j] < 0 or v < row[min_good[j]]:
                min_good[j] = g
            if max_good[j] < 0 or v > row[max_good[j]]:
                max_good[j] = g
        own = sums[i]
        for j in range(n):
            if j == i or not allocation.bundles[j]:
                continue
            efx_den = sums[j] - row[min_good[j]]
            if efx_den > 0:
                capped = min(one, own / efx_den)
                if capped < alpha_efx:
                    alpha_efx = capped
                    efx_binding = (i, j, min_good[j])
            ef1_den = sums[j] - row[max_good[j]]
            if ef1_den > 0:
                capped = min(one, own / ef1_den)
                if capped < alpha_ef1:
                    alpha_ef1 = capped
                    ef1_binding = (i, j, max_good[j])

    return FairnessReport(alpha_efx, alpha_ef1, efx_binding, ef1_binding)


def prioritized_max_matching(
    agents: Sequence[int], high_edges: dict, pool: set
) -> dict[int, int]:
    """The recursive augmenting-path matching."""
    match_of_good: dict[int, int] = {}
    match_of_agent: dict[int, int] = {}

    def augment(agent: int, visited: set[int]) -> bool:
        for g in high_edges.get(agent, ()):
            if g not in pool or g in visited:
                continue
            visited.add(g)
            holder = match_of_good.get(g)
            if holder is None or augment(holder, visited):
                match_of_good[g] = agent
                match_of_agent[agent] = g
                return True
        return False

    for agent in agents:
        augment(agent, set())
    return match_of_agent


def round_state(n: int, m: int) -> SimpleNamespace:
    """The bookkeeping :func:`match_freeze_round` updates, before the first round."""
    return SimpleNamespace(
        freeze_counters=[0] * n,
        pool=set(range(m)),
        bundles=[set() for _ in range(n)],
        frozen_events=[],
    )


def match_freeze_round(instance: Instance, participants: Sequence[int], state) -> None:
    """One round, with the priority and the high edges rebuilt from the
    instance and the sorted pool."""
    meta = instance.bivalued_meta
    values = fraction_rows(instance)
    unfrozen = []
    for i in participants:
        if state.freeze_counters[i] > 0:
            state.freeze_counters[i] -= 1
        else:
            unfrozen.append(i)
    priority = sorted(unfrozen, key=lambda i: (-(meta[i][0] / meta[i][1]), i))
    high_edges = {
        i: [g for g in sorted(state.pool) if values[i][g] == meta[i][0]]
        for i in unfrozen
    }
    matching = prioritized_max_matching(priority, high_edges, state.pool)
    for i, g in matching.items():
        state.bundles[i].add(g)
        state.pool.discard(g)
    matched_this_round = list(matching.items())
    unmatched = sorted(
        set(unfrozen) - set(matching), key=lambda i: (len(state.bundles[i]), i)
    )
    for i in unmatched:
        if not state.pool:
            break
        g = min(state.pool)
        state.bundles[i].add(g)
        state.pool.discard(g)
        h_i, l_i = meta[i]
        for j, gj in matched_this_round:
            if values[i][gj] == h_i:
                duration = math.ceil(h_i / l_i) - 1
                if state.freeze_counters[j] == 0 and duration > 0:
                    state.frozen_events.append(j)
                state.freeze_counters[j] = duration


# Bundle rotations made by the last call of envy_cycle_heuristic below.
rotations = 0


def envy_cycle_heuristic(instance: Instance) -> Allocation:
    global rotations
    rotations = 0
    n, m = instance.n, instance.m
    values = fraction_rows(instance)
    order = sorted(range(m), key=lambda g: (min(-values[i][g] for i in range(n)), g))
    bundles: list[set[int]] = [set() for _ in range(n)]
    worth = [[Fraction(0)] * n for _ in range(n)]

    def envies(i: int, j: int) -> bool:
        return worth[i][i] < worth[i][j]

    def unenvied_agent() -> Optional[int]:
        for j in range(n):
            if not any(envies(i, j) for i in range(n) if i != j):
                return j
        return None

    for g in order:
        target = unenvied_agent()
        while target is None:
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
            rotations += 1
            rotated = [bundles[cycle[(t + 1) % len(cycle)]] for t in range(len(cycle))]
            for t, agent in enumerate(cycle):
                bundles[agent] = rotated[t]
            for i in range(n):
                new_worth = [worth[i][j] for j in range(n)]
                for t, agent in enumerate(cycle):
                    new_worth[agent] = worth[i][cycle[(t + 1) % len(cycle)]]
                worth[i] = new_worth
            target = unenvied_agent()
        bundles[target].add(g)
        for i in range(n):
            worth[i][target] += values[i][g]

    return Allocation(tuple(frozenset(b) for b in bundles), complete=True)


def common_scale(instance: Instance) -> np.ndarray:
    """The value matrix with every agent's row on one common integer scale.

    ``scaled_values`` scales each row by its own factor ``scales[i]``, so
    values of different agents can be compared only after bringing the rows
    to the least common multiple of those factors.
    """
    scaled = instance.scaled_values
    common = math.lcm(*instance.scales)
    if common == 1:
        return scaled
    multipliers = np.array([common // s for s in instance.scales], dtype=object)
    return scaled.astype(object) * multipliers[:, None]


def envy_cycle_integer(instance: Instance) -> Allocation:
    """The former integer envy cycle: an n x n row-major worth table on each
    agent's own scale, envier counts rebuilt by Python scans, and the goods
    order from the whole matrix brought to one common scale."""
    n = instance.n
    order = np.argsort(-common_scale(instance).max(axis=0), kind="stable").tolist()
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


def scaled_rows(instance: Instance) -> np.ndarray:
    """The exhaustive oracles' former per-call integer scaling."""
    rows = []
    for row in fraction_rows(instance):
        denlcm = 1
        for v in row:
            denlcm = denlcm * v.denominator // math.gcd(denlcm, v.denominator)
        rows.append([int(v * denlcm) for v in row])
    top = max((max(r) for r in rows), default=0)
    if top and (top * instance.m) ** 2 >= 2**62:
        return np.array(rows, dtype=object)
    # The narrowest signed width that holds the largest entry.
    dtype = np.int8 if top < 2**7 else np.int16 if top < 2**15 else np.int32
    return np.array(rows, dtype=dtype)


def virtual_row(vv, ranking: Sequence[int], m: int) -> tuple[Fraction, ...]:
    """The former ``AgentVirtualValuation.virtual_row``: one agent's proxy row."""
    anchor = vv.top_values[-1] if vv.top_values else Fraction(0)
    row = [Fraction(0)] * m
    for pos, v in enumerate(vv.top_values):
        row[ranking[pos]] = v
    start = len(vv.top_values)
    thresholds = query_enhanced.bucket_thresholds(m, len(vv.bucket_bounds))
    for level, bound in enumerate(vv.bucket_bounds):
        level_value = anchor * thresholds[level]
        for pos in range(start, bound + 1):
            row[ranking[pos]] = level_value
        start = max(start, bound + 1)
    return tuple(row)


def virtual_instance(oracle, virtuals) -> Instance:
    """The former ``Fraction``-row build of the ``virtual_efx`` proxy."""
    rankings = oracle.rankings
    rows = tuple(
        virtual_row(virtuals[i], rankings[i], oracle.m) for i in range(oracle.n)
    )
    return Instance.from_rows(rows)


def uncovered_instance(oracle, transitions) -> Instance:
    """The former ``Fraction``-row build of mfrr's uncovered instance."""
    rankings = oracle.rankings
    n, m = oracle.n, oracle.m
    rows = []
    meta = []
    for i in range(n):
        info = transitions.get(i)
        if info is None:
            rows.append([Fraction(0)] * m)
            meta.append((Fraction(1), Fraction(0)))
            continue
        row = [Fraction(0)] * m
        for pos, g in enumerate(rankings[i]):
            row[g] = info.high if pos < info.transition_rank - 1 else info.low
        rows.append(row)
        meta.append((info.high, info.low))
    return Instance.from_rows(rows, meta)


# The drivers before the shared match-freeze loop and the flat prr loop.


def match_and_freeze(instance: Instance) -> Allocation:
    """The former ``bivalued.match_and_freeze``: its own round loop."""
    if instance.bivalued_meta is None:
        raise bivalued.NotBivalued("instance has no bivalued metadata")
    for i, (_, low) in enumerate(instance.bivalued_meta):
        if low == 0:
            raise bivalued.ZeroLowValue(f"agent {i} has low value 0")
    agents = list(range(instance.n))
    state = round_state(instance.n, instance.m)
    while state.pool:
        match_freeze_round(instance, agents, state)
    return Allocation(tuple(frozenset(b) for b in state.bundles), complete=True)


def mfrr(oracle) -> Allocation:
    """The former ``bivalued.mfrr``: its own loop of matching rounds and
    round-robin picks, over the ``Fraction``-row uncovered instance."""
    n, m = oracle.n, oracle.m
    if m < n:
        return core.trivial_few_goods_allocation(n, m)
    rankings = oracle.rankings
    transitions = {}
    flat = []
    for i in range(n):
        info = bivalued.discover_transition(oracle, i)
        if info is not None:
            if info.low == 0:
                raise bivalued.ZeroLowValue(f"agent {i} has low value 0")
            transitions[i] = info
        else:
            flat.append(i)
    uncovered = uncovered_instance(oracle, transitions)
    matched_agents = sorted(transitions)
    state = round_state(n, m)
    cursor = [0] * n
    while state.pool:
        if matched_agents:
            match_freeze_round(uncovered, matched_agents, state)
        for i in flat:
            if not state.pool:
                break
            pos = cursor[i]
            ranking = rankings[i]
            while ranking[pos] not in state.pool:
                pos += 1
            cursor[i] = pos + 1
            state.bundles[i].add(ranking[pos])
            state.pool.discard(ranking[pos])
    return Allocation(tuple(frozenset(b) for b in state.bundles), complete=True)


def _pick_top(ranking: Sequence[int], taken: list[bool], cursor: list[int], i: int) -> int:
    """Advance agent i's cursor past taken goods and return her top pick."""
    pos = cursor[i]
    while taken[ranking[pos]]:
        pos += 1
    cursor[i] = pos + 1
    return ranking[pos]


def round_robin(oracle, participants=None, pool=None) -> Allocation:
    """The former ``ordinal.round_robin``: one cursor per agent and one
    ``remaining`` test per pick."""
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


def rrla(oracle) -> Allocation:
    """The former ``ordinal.rrla``, with the cursors of :func:`round_robin`."""
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


def two_query_bivalued(oracle) -> Allocation:
    """``bivalued.two_query_bivalued`` over the reference :func:`prr`."""
    n, m = oracle.n, oracle.m
    if m < 2 * n:
        raise DomainError("two-query variant requires m >= 2n")
    return prr(oracle, query_enhanced.PRRParams(alpha=(n - 1,), beta=(Fraction(m, 2),)))


def _segment_tops(
    ranking: Sequence[int], taken: Sequence[bool], alpha: Sequence[int], k: int
) -> list[int]:
    """First available good of each of the k rank segments (sizes alpha + rest)."""
    available = [g for g in ranking if not taken[g]]
    tops = []
    start = 0
    for level in range(k):
        if start >= len(available):
            break
        tops.append(available[start])
        size = alpha[level] if level < k - 1 else len(available) - start
        start += size
    return tops


def prr(oracle, params) -> Allocation:
    """The former ``query_enhanced.prr``: rounds over the agents grouped by
    top good, with its guards and progress flag, and its former segment-top
    walk ``_segment_tops``."""
    n, m = oracle.n, oracle.m
    if m < n:
        return core.trivial_few_goods_allocation(n, m)
    rankings = oracle.rankings
    k = len(params.alpha) + 1
    active = set(range(n))
    singled: dict[int, int] = {}
    rr_agents = set(range(n))
    taken = [False] * m

    while active and len(singled) < n - 1:
        tops = {}
        for i in sorted(active):
            tops[i] = next(g for g in rankings[i] if not taken[g])
        top_goods = sorted(set(tops.values()))
        progressed = False
        for g in top_goods:
            if taken[g]:
                continue
            for i in sorted(i for i in active if tops[i] == g):
                if i not in active:
                    continue
                segment_tops = _segment_tops(rankings[i], taken, params.alpha, k)
                seg_values = [oracle.query(i, sg) for sg in segment_tops]
                active.discard(i)
                progressed = True
                top_value = seg_values[0]
                if all(
                    top_value >= params.beta[level - 1] * seg_values[level]
                    for level in range(1, len(seg_values))
                ):
                    singled[i] = segment_tops[0]
                    taken[segment_tops[0]] = True
                    rr_agents.discard(i)
                    break
                if len(singled) >= n - 1:
                    break
            if len(singled) >= n - 1:
                break
        if not progressed:
            break

    bundles: list[set[int]] = [set() for _ in range(n)]
    for i, g in singled.items():
        bundles[i].add(g)
    remaining = [g for g in range(m) if not taken[g]]
    if remaining:
        rr = round_robin(oracle, participants=sorted(rr_agents), pool=remaining)
        for i in range(n):
            bundles[i] |= set(rr.bundles[i])
    return Allocation(tuple(frozenset(b) for b in bundles), complete=True)


def integer_nth_root(x: int, q: int) -> int:
    """Float-seeded floor root; overflows beyond the float range."""
    if q == 1 or x in (0, 1):
        return x
    r = int(round(x ** (1.0 / q)))
    while r > 0 and r**q > x:
        r -= 1
    while (r + 1) ** q <= x:
        r += 1
    return r


def _exact_nth_root(t: Fraction, q: int) -> Fraction | None:
    """Return t**(1/q) if it is rational, else None."""
    rn = library_integer_nth_root(t.numerator, q)
    if rn**q != t.numerator:
        return None
    rd = library_integer_nth_root(t.denominator, q)
    if rd**q != t.denominator:
        return None
    return Fraction(rn, rd)


def _root_guess(t: Fraction, q: int) -> Fraction:
    e = 64 - (t.numerator.bit_length() - t.denominator.bit_length()) // q
    scaled = t * Fraction(2) ** (q * e)
    return library_integer_nth_root(math.floor(scaled), q) / Fraction(2) ** e


def nth_root_enclosure(t: Fraction, q: int, rel_width: Fraction) -> tuple[Fraction, Fraction]:
    """Float-seeded enclosure bisected in ``Fraction`` arithmetic, with the
    integer 64-bit guess beyond the float range; loops forever when
    ``rel_width <= 0``."""
    if t == 0:
        return Fraction(0), Fraction(0)
    exact = _exact_nth_root(t, q)
    if exact is not None:
        return exact, exact
    try:
        guess = Fraction(float(t) ** (1.0 / q))
    except OverflowError:
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
    while hi - lo > hi * rel_width:
        mid = (lo + hi) / 2
        if mid**q <= t:
            lo = mid
        else:
            hi = mid
    return lo, hi


def theorem5_segment_sizes(m: int, k: int, lam: Fraction) -> tuple[int, ...]:
    """``theorem5_params``' sizes ceil(lam * m**((2l-1)/(2k-1))) as its refine
    loop found them: the ceiling of lam times the upper endpoint, once both
    endpoints give the same ceiling, narrowing the width from 1e-12 by 1e-6
    until it drops below 1e-40."""
    sizes = []
    for level in range(1, k):
        g = math.gcd(2 * level - 1, 2 * k - 1)
        t, q = Fraction(m) ** ((2 * level - 1) // g), (2 * k - 1) // g
        rel = Fraction(1, 10**12)
        while True:
            lo, hi = nth_root_enclosure(t, q, rel)
            if math.ceil(lam * lo) == math.ceil(lam * hi) or rel < Fraction(1, 10**40):
                break
            rel /= 10**6
        sizes.append(math.ceil(lam * hi))
    return tuple(sizes)


# The exhaustive oracles as they were before the prefix x suffix tables:
# every chunk of 65,536 assignments recomputes all (viewer, bundle) sums and
# minima from its owner digits.
_CHUNK = 1 << 16


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


def _allocation_from_digits(digits: np.ndarray, n: int) -> Allocation:
    bundles: list[set[int]] = [set() for _ in range(n)]
    for g, j in enumerate(digits.tolist()):
        bundles[j].add(g)
    return Allocation(tuple(frozenset(b) for b in bundles), complete=True)


def _wide_values(instance: Instance) -> np.ndarray:
    """The scaled matrix with room for bundle sums: int64 unless it holds
    Python ints, since sums of a narrow width would wrap."""
    values = instance.scaled_values
    return values if values.dtype == object else values.astype(np.int64)


def exact_efx_bruteforce(instance: Instance) -> Optional[Allocation]:
    values = _wide_values(instance)
    n = instance.n
    for digits in assignment_chunks(n, instance.m):
        sums, mins, big = _pair_tables(values, digits, n)
        ok = np.ones(digits.shape[0], dtype=bool)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                nonempty = mins[i, j] < big
                ok &= ~nonempty | (sums[i, i] >= sums[i, j] - mins[i, j])
        hits = np.flatnonzero(ok)
        if hits.size:
            return _allocation_from_digits(digits[hits[0]], n)
    return None


def best_alpha_bruteforce(instance: Instance) -> tuple[Fraction, Allocation]:
    values = _wide_values(instance)
    n = instance.n
    best_num, best_den = -1, 1
    best_digits: Optional[np.ndarray] = None
    for digits in assignment_chunks(n, instance.m):
        sums, mins, big = _pair_tables(values, digits, n)
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
        num = np.minimum(num, den)
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
            break
    assert best_digits is not None
    return Fraction(best_num, best_den), _allocation_from_digits(best_digits, n)


# The harness as it was before the algorithm table: the ``if/elif`` chains of
# ``execute`` and ``adversary_query``, and the query adversary over the
# ``Fraction`` view with its ``Fraction`` pair cap.


def execute(
    instance: Instance,
    algorithm: str,
    *,
    k: Optional[int] = None,
    lam: Optional[Fraction] = None,
    blackbox: str = "envy_cycle",
    budget: Optional[int] = None,
    instance_id: str = "",
):
    if algorithm not in harness.ALGORITHMS:
        raise DomainError(f"unknown algorithm {algorithm!r}")
    if algorithm in ("match_freeze", "mfrr", "two_query") and instance.bivalued_meta is None:
        raise bivalued.NotBivalued(f"{algorithm} requires a bivalued instance")
    n, m = instance.n, instance.m
    params: dict = {}
    extras: dict = {}
    oracle = elicitation.QueryOracle(instance, budget=budget)

    if algorithm == "round_robin":
        allocation = round_robin(oracle)
        bound, bound_kind = Fraction(1), "ef1"
    elif algorithm == "rrla":
        allocation = rrla(oracle)
        bound = Fraction(1, m - n) if m > n else Fraction(1)
        bound_kind = "efx"
    elif algorithm == "virtual_efx":
        kk = k if k is not None else 1
        params["k"] = kk
        params["blackbox"] = blackbox
        if blackbox not in harness.BLACKBOXES:
            raise DomainError(f"unknown blackbox {blackbox!r}")
        black_box = harness.BLACKBOXES[blackbox]
        allocation, _, measured_rho = query_enhanced.virtual_efx(oracle, kk, black_box)
        extras["measured_rho"] = measured_rho
        bound, bound_kind = query_enhanced.virtual_efx_bound(m, kk, measured_rho), "efx"
    elif algorithm == "prr":
        kk = k if k is not None else 2
        lamv = lam if lam is not None else harness.default_lambda(n, m, kk)
        params["k"] = kk
        params["lam"] = lamv
        params5 = query_enhanced.theorem5_params(n, m, kk, lamv)
        allocation = prr(oracle, params5)
        bound, bound_kind = query_enhanced.theorem5_bound(n, m, kk, lamv), "efx"
    elif algorithm == "match_freeze":
        allocation = bivalued.match_and_freeze(instance)
        bound, bound_kind = Fraction(1), "efx"
    elif algorithm == "mfrr":
        allocation = mfrr(oracle)
        bound, bound_kind = Fraction(1, 2), "efx"
    else:  # two_query
        allocation = two_query_bivalued(oracle)
        bound, bound_kind = Fraction(1, n), "efx"

    report = core.fairness_report(instance, allocation)
    metric = report.alpha_efx if bound_kind == "efx" else report.alpha_ef1
    counts = [oracle.snapshot_counts()[i] for i in range(n)]
    return harness.RunRecord(
        instance_id=instance_id,
        algorithm=algorithm,
        params=params,
        query_counts=counts,
        alpha_efx=report.alpha_efx,
        alpha_ef1=report.alpha_ef1,
        bound=bound,
        bound_kind=bound_kind,
        bound_satisfied=metric >= bound,
        wall_time=0.0,
        allocation=allocation,
        rankings=oracle.rankings,
        transcript=oracle.transcript(),
        extras=extras,
    )


def pair_cap(instance: Instance, allocation: Allocation, i: int, j: int) -> Fraction:
    """Capped EFX contribution of the ordered pair (i, j); 1 if unconstrained."""
    row = fraction_rows(instance)[i]
    own = sum((row[g] for g in allocation.bundles[i]), Fraction(0))
    bundle = allocation.bundles[j]
    if not bundle:
        return Fraction(1)
    worst = sum((row[g] for g in bundle), Fraction(0)) - min(row[g] for g in bundle)
    if worst <= 0:
        return Fraction(1)
    return min(Fraction(1), own / worst)


def _good_block(family, good: int) -> tuple[str, int]:
    """Classify a good index: ("top", pos), ("seg", level) or ("block", 0)."""
    if good < family.n - 1:
        return "top", good
    offset = good - (family.n - 1)
    for level, size in enumerate(family.segment_sizes, start=1):
        if offset < size:
            return "seg", level
        offset -= size
    return "block", 0


def _with_row(base: Instance, agent: int, row: tuple[Fraction, ...]) -> Instance:
    rows = list(fraction_rows(base))
    rows[agent] = row
    return Instance.from_rows(rows)


def segment_value(family, level: int) -> Fraction:
    """The family's value of the goods in middle segment ``level`` (1-based)."""
    return Fraction(1, family.t ** (2 * level))


def consistent_with_ranking(instance: Instance, reference: Instance) -> bool:
    """True if the instance's values are nonincreasing along the reference's rankings."""
    rows = fraction_rows(instance)
    return all(
        all(row[a] >= row[b] for a, b in zip(ranking, ranking[1:]))
        for row, ranking in zip(rows, build_ranking(reference))
    )


def query_adversary_complete(family, transcript, allocation: Allocation):
    revealed = family.revealed
    core.validate(revealed, allocation)
    if not allocation.complete:
        raise DomainError("adversary requires a complete allocation")
    revealed_rows = fraction_rows(revealed)
    queried: dict[int, set[int]] = {i: set() for i in range(family.n)}
    for agent, good, value in transcript:
        if revealed_rows[agent][good] != value:
            raise adversarial.InconsistentTranscript(
                f"transcript says v_{agent}(g{good}) = {value}, family reveals "
                f"{revealed_rows[agent][good]}"
            )
        queried[agent].add(good)

    n = family.n
    top = set(range(n - 1))
    owner = {g: j for j, b in enumerate(allocation.bundles) for g in b}
    unserved = next(i for i in range(n) if top.isdisjoint(allocation.bundles[i]))

    for g in sorted(top):
        holder = owner[g]
        if len(allocation.bundles[holder]) >= 2:
            return revealed, pair_cap(revealed, allocation, unserved, holder)

    last_top = n - 2
    holder = owner[last_top]
    ranking_row = list(revealed_rows[holder])

    if last_top not in queried[holder]:
        next_value = segment_value(family, 1) if family.k >= 2 else Fraction(0)
        ranking_row[last_top] = next_value
        completed = _with_row(revealed, holder, tuple(ranking_row))
        return completed, pair_cap(completed, allocation, holder, unserved)

    tiers: list[tuple[str, int]] = [("seg", level) for level in range(1, family.k)]
    tiers.append(("block", 0))
    for kind, level in tiers:
        members = [g for g in range(family.m) if _good_block(family, g) == (kind, level)]
        if any(g in queried[holder] for g in members):
            continue
        if kind == "seg":
            raised = family.top_value if level == 1 else segment_value(family, level - 1)
        else:
            raised = segment_value(family, family.k - 1) if family.k >= 2 else family.top_value
        for g in members:
            ranking_row[g] = raised
        completed = _with_row(revealed, holder, tuple(ranking_row))
        return completed, pair_cap(completed, allocation, holder, unserved)

    raise DomainError(
        "no entirely-unqueried tier exists; transcript exceeds the family's budget"
    )


def adversary_query(n: int, k: int, t: int, algorithm: str, budget: int) -> dict:
    if k < 2:
        raise DomainError("the query family adversary needs k >= 2")
    family = adversarial.query_lb_build(n, k, t)
    lam = harness.default_lambda(n, family.m, budget) if algorithm == "prr" else None
    run_oracle = elicitation.QueryOracle(family.revealed, budget=budget)
    if algorithm == "round_robin":
        allocation = round_robin(run_oracle)
    elif algorithm == "rrla":
        allocation = rrla(run_oracle)
    elif algorithm == "prr":
        params5 = query_enhanced.theorem5_params(n, family.m, budget, lam or Fraction(1))
        allocation = prr(run_oracle, params5)
    else:
        raise DomainError(f"algorithm {algorithm!r} not supported against the query family")
    picked, pair_bound = query_adversary_complete(family, run_oracle.transcript(), allocation)
    measured = core.fairness_report(picked, allocation).alpha_efx
    cap = harness.query_family_cap(family)
    consistent = consistent_with_ranking(picked, family.revealed)
    return {
        "family": "query",
        "n": n,
        "k": k,
        "t": t,
        "m": family.m,
        "algorithm": algorithm,
        "budget": budget,
        "instance": picked.to_json(),
        "pair_bound": format_value(pair_bound),
        "cap": format_value(cap),
        "measured_alpha": format_value(measured),
        "consistent": consistent,
        "pass": consistent and measured <= cap,
    }
