"""Query-budgeted algorithms: threshold bucketing with a full-information
black box, and the partition-then-round-robin singleton filter.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, filterfalse, islice
from typing import Callable, Sequence

import numpy as np

from .core import (
    Allocation,
    DomainError,
    FairDivisionError,
    Instance,
    InvalidAllocation,
    _matrix_dtype,
    fairness_report,
    trivial_few_goods_allocation,
)
from .elicitation import QueryOracle
from .enclosures import integer_nth_root, pow_enclosure, sqrt_enclosure
from .ordinal import round_robin

class BlackboxInvalid(FairDivisionError):
    """The full-information allocator returned a malformed allocation."""


class ParamDomainError(DomainError):
    """Algorithm parameters outside their admissible range."""


@dataclass(frozen=True)
class AgentVirtualValuation:
    """One agent's lower-bounding proxy valuation.

    ``top_values`` are the queried values of her first n-1 ranked goods.
    ``bucket_bounds`` lists, per threshold level, the last ranking position
    (0-based, inclusive) whose value clears that level; positions past the
    final bound get virtual value 0.
    """

    top_values: tuple[Fraction, ...]
    thresholds: tuple[Fraction, ...]
    bucket_bounds: tuple[int, ...]


@functools.lru_cache(maxsize=256)
def bucket_thresholds(m: int, k: int) -> tuple[Fraction, ...]:
    """Lower rational enclosures of m**(-level/(k+1)) for level 1..k.

    Using the lower endpoint both for the search predicate and for the
    virtual values keeps every virtual value at most the true one. The
    tuple depends on (m, k) alone, so recent pairs are kept and shared.
    """
    return tuple(pow_enclosure(m, -level, k + 1)[0] for level in range(1, k + 1))


def _last_position_at_least(
    oracle: QueryOracle, agent: int, threshold: Fraction, lo: int, hi: int
) -> int:
    """Largest ranking position in [lo, hi] whose value >= threshold, or lo-1.

    Values along the ranking are nonincreasing, so the predicate is monotone
    and binary search applies; repeated probes are free via deduplication.
    """
    ranking = oracle.rankings[agent]
    answer = lo - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        if oracle.query(agent, ranking[mid]) >= threshold:
            answer = mid
            lo = mid + 1
        else:
            hi = mid - 1
    return answer


def bucketize(oracle: QueryOracle, agent: int, k: int) -> AgentVirtualValuation:
    """Learn one agent's top n-1 values, then cut the tail into value buckets.

    Spends at most (n-1) + k * ceil(log2 m) queries for the agent.
    """
    if k < 1:
        raise ParamDomainError("k must be >= 1")
    n, m = oracle.n, oracle.m
    if m < n:
        raise DomainError("bucketize requires m >= n")
    ranking = oracle.rankings[agent]
    top_values = tuple(oracle.query(agent, ranking[pos]) for pos in range(n - 1))
    thresholds = bucket_thresholds(m, k)
    anchor = top_values[-1] if top_values else Fraction(0)
    bounds = []
    prev = n - 2
    for level_value in thresholds:
        if anchor != 0:
            prev = _last_position_at_least(oracle, agent, anchor * level_value, prev + 1, m - 1)
        bounds.append(prev)
    return AgentVirtualValuation(top_values, thresholds, tuple(bounds))


def virtual_instance(
    oracle: QueryOracle, virtuals: Sequence[AgentVirtualValuation]
) -> Instance:
    """The proxy instance: along each agent's ranking, her queried top values,
    then each bucket at its level's fraction of the anchor (her last top
    value), then zeros.

    A row takes at most n-1+k values besides 0, as runs of equal values. It
    is put on the least common multiple of those values' denominators, and
    every value but 0 occurs in it, so the row is in lowest terms. The dtype
    follows from the largest run value, and every row's runs are scattered
    along its ranking into one matrix of zeros.
    """
    rankings, n, m = oracle.rankings, oracle.n, oracle.m
    xs, counts, lengths, scales = [], [], [], []
    for vv in virtuals:
        anchor = vv.top_values[-1] if vv.top_values else Fraction(0)
        runs = [(v, 1) for v in vv.top_values]
        start = len(vv.top_values)
        for level, bound in enumerate(vv.bucket_bounds):
            if bound >= start:
                runs.append((anchor * vv.thresholds[level], bound + 1 - start))
                start = bound + 1
        scale = math.lcm(*(v.denominator for v, _ in runs))
        xs += [v.numerator * (scale // v.denominator) for v, _ in runs]
        counts += [count for _, count in runs]
        lengths.append(start)
        scales.append(scale)
    dtype = _matrix_dtype(max(xs, default=0), m)
    ranked = chain.from_iterable(r[:length] for r, length in zip(rankings, lengths, strict=True))
    goods = np.fromiter(ranked, np.intp, sum(lengths))
    matrix = np.zeros((n, m), dtype)
    matrix[np.repeat(np.arange(n), lengths), goods] = np.repeat(np.array(xs, dtype), counts)
    return Instance._store(matrix, tuple(scales), None)


def virtual_efx(
    oracle: QueryOracle, k: int, blackbox: Callable[[Instance], Allocation]
) -> tuple[Allocation, list[AgentVirtualValuation], Fraction]:
    """Build virtual valuations, delegate to a full-information allocator.

    Returns the allocation, the per-agent virtual valuations, and the EFX
    factor the allocation achieves under the virtual valuations (the
    quantity the transferred guarantee depends on).
    """
    if k < 1:
        raise ParamDomainError("k must be >= 1")
    n, m = oracle.n, oracle.m
    if m < n:
        return trivial_few_goods_allocation(n, m), [], Fraction(1)
    virtuals = [bucketize(oracle, i, k) for i in range(n)]
    proxy = virtual_instance(oracle, virtuals)
    allocation = blackbox(proxy)
    try:
        measured_rho = fairness_report(proxy, allocation).alpha_efx
    except InvalidAllocation as exc:
        raise BlackboxInvalid(str(exc)) from exc
    if not allocation.complete:
        raise BlackboxInvalid("black box returned a partial allocation")
    return allocation, virtuals, measured_rho


def virtual_efx_bound(m: int, k: int, measured_rho: Fraction) -> Fraction:
    """Guaranteed EFX floor rho' / (2 m**(1/(k+1))), rounded down to stay fair."""
    if k < 1 or m < 1:
        raise ParamDomainError(f"need k >= 1 and m >= 1, got k={k}, m={m}")
    root_hi = pow_enclosure(m, 1, k + 1)[1]
    return measured_rho / (2 * root_hi)


@dataclass(frozen=True)
class PRRParams:
    """Segment sizes and value-gap thresholds, k-1 of each, for k rank segments."""

    alpha: tuple[int, ...]
    beta: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.alpha) != len(self.beta):
            raise ParamDomainError("need one threshold per segment size")
        if any(a < 1 for a in self.alpha):
            raise ParamDomainError("segment sizes must be >= 1")
        if any(b <= 0 for b in self.beta):
            raise ParamDomainError("thresholds must be positive")


def check_segment_room(m: int, k: int) -> None:
    """Reject in O(1) a k whose theorem 5 segment sizes surely sum past m >= 1:
    for 2k-1 >= 4 * m.bit_length(), r = m**(-2/(2k-1)) > 2**(-1/2), and for any
    lam >= 1 the last two sizes alone are at least m*(r + r*r) > m."""
    if 2 * k - 1 >= 4 * m.bit_length():
        raise ParamDomainError("segment sizes must leave goods for the final segment")


def _theorem5_lam(n: int, m: int, k: int, lam: Fraction) -> Fraction:
    """``lam`` as a ``Fraction`` once theorem 5's domain is checked exactly:
    k, m, n >= 1 and lam >= max(1, n / m**(1/(2k-1))), that is lam >= 1 and
    lam**(2k-1) * m >= n**(2k-1)."""
    if min(k, m, n) < 1:
        raise ParamDomainError(f"need k >= 1 and m >= 1 and n >= 1, got k={k}, m={m}, n={n}")
    lam = Fraction(lam)
    q = 2 * k - 1
    if lam < 1 or lam**q * m < n**q:
        raise ParamDomainError("lam must be at least max(1, n / m**(1/(2k-1)))")
    return lam


def theorem5_params(n: int, m: int, k: int, lam: Fraction) -> PRRParams:
    """Parameterization achieving the query/EFX tradeoff guarantee.

    Sizes are exactly ceil(lam * m**((2l-1)/(2k-1))); thresholds are upper
    rational enclosures of sqrt(k) * m**(2l/(2k-1)). The sizes are rejected
    as soon as their running sum reaches m, before any threshold is built.
    """
    if min(k, m, n) >= 1:  # otherwise _theorem5_lam names the bad argument
        check_segment_room(m, k)
    lam = _theorem5_lam(n, m, k, lam)
    q = 2 * k - 1
    lam_num, lam_den = lam.numerator**q, lam.denominator**q
    alphas: list[int] = []
    for level in range(1, k):
        # The least a with a**q >= lam**q * m**(2l-1), which is also the least
        # a with a**q >= the ceiling of that rational.
        ceiling = -(-lam_num * m ** (2 * level - 1) // lam_den)
        alphas.append(integer_nth_root(ceiling - 1, q) + 1)
        if sum(alphas) >= m:
            raise ParamDomainError("segment sizes must leave goods for the final segment")
    sqrt_k_hi = sqrt_enclosure(k)[1]
    betas = tuple(sqrt_k_hi * pow_enclosure(m, 2 * level, q)[1] for level in range(1, k))
    return PRRParams(alpha=tuple(alphas), beta=betas)


def theorem5_bound(n: int, m: int, k: int, lam: Fraction) -> Fraction:
    """Lower endpoint of the guaranteed EFX floor for theorem5 parameters."""
    lam = _theorem5_lam(n, m, k, lam)
    sqrt_k_hi = sqrt_enclosure(k)[1]
    root_hi = pow_enclosure(m, 1, 2 * k - 1)[1]
    first = 1 / ((sqrt_k_hi + 1) * lam * root_hi)
    second = 1 / (1 + sqrt_k_hi * Fraction(n) / lam * root_hi)
    return min(first, second)


def prr(oracle: QueryOracle, params: PRRParams) -> Allocation:
    """Give a singleton to each agent whose top good dwarfs her segment tops,
    then round-robin the remaining goods among everyone else.

    Each agent is considered at most once and queried for at most k goods,
    the first available good of each rank segment.
    """
    n, m = oracle.n, oracle.m
    if m < n:
        return trivial_few_goods_allocation(n, m)
    rankings = oracle.rankings
    starts = tuple(accumulate(params.alpha, initial=0))
    active = set(range(n))
    singled: dict[int, int] = {}
    taken = [False] * m

    # Each round visits the active agents by (top good, index); once one of
    # the agents sharing a top good is accepted, the others wait a round.
    # A visit walks the ranking past taken goods only to the last segment top.
    while active and len(singled) < n - 1:
        tops = {i: next(filterfalse(taken.__getitem__, rankings[i])) for i in active}
        for i in sorted(active, key=lambda i: (tops[i], i)):
            if taken[tops[i]]:
                continue
            head = list(islice(filterfalse(taken.__getitem__, rankings[i]), starts[-1] + 1))
            segment_tops = [head[s] for s in starts if s < len(head)]
            top_value, *seg_values = [oracle.query(i, g) for g in segment_tops]
            active.discard(i)
            if all(top_value >= b * v for b, v in zip(params.beta, seg_values)):
                singled[i] = segment_tops[0]
                taken[segment_tops[0]] = True
                if len(singled) == n - 1:
                    break

    # m >= n > len(singled) leaves a pool; singled agents get no round-robin goods.
    rr_agents = [i for i in range(n) if i not in singled]
    rr = round_robin(oracle, rr_agents, [g for g in range(m) if not taken[g]])
    bundles = [[singled[i]] if i in singled else rr.bundles[i] for i in range(n)]
    return Allocation.from_bundles(bundles)
