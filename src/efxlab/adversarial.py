"""Hard instance families with identical rankings, plus the adversary that
picks a consistent valuation after seeing an algorithm's queries and output.

Both families hide the valuation behind a shared ranking; the adversary
responds to a (transcript, allocation) pair with a completion that agrees
with every answered query and with the ranking, chosen to make the
achieved EFX factor as small as the construction allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Allocation, DomainError, FairDivisionError, Instance, _scale_row, pair_factor, validate
)
from .elicitation import first_disagreement
from .enclosures import sqrt_enclosure

# The most values (n * m) a lower-bound family or a generated instance is built
# with; a bigger one would not fit in memory.
MAX_FAMILY_VALUES = 10**7


class InconsistentTranscript(FairDivisionError):
    """Transcript answers disagree with the family's revealed values."""


@dataclass(frozen=True)
class OrdinalLBFamily:
    """Identical rankings; two consistent valuations an ordinal algorithm
    cannot tell apart: top n-1 goods worth 1 and the rest 0, or all ones."""

    n: int
    m: int
    case1: Instance
    case2: Instance


def ordinal_lb_build(n: int, m: int) -> OrdinalLBFamily:
    if n < 2:
        raise DomainError("need n >= 2")
    if m <= n + 2:
        raise DomainError("family requires m > n + 2")
    if n * m > MAX_FAMILY_VALUES:
        raise DomainError(f"family of {n} x {m} values exceeds {MAX_FAMILY_VALUES}")
    case1_row = [1] * (n - 1) + [0] * (m - n + 1)
    case1 = Instance.from_scaled([case1_row] * n, (1,) * n)
    case2 = Instance.from_scaled([[1] * m] * n, (1,) * n)
    return OrdinalLBFamily(n, m, case1, case2)


def ordinal_adversary_pick(
    family: OrdinalLBFamily, allocation: Allocation
) -> tuple[Instance, Fraction]:
    """Choose the consistent valuation under which the allocation fares worst.

    If some top-(n-1) good sits in a bundle of size >= 2 the sparse
    valuation gives factor 0; otherwise the top goods are singletons and
    the all-ones valuation caps the factor at 1/(m-n).
    """
    validate(family.case1, allocation)
    if not allocation.complete:
        raise DomainError("adversary requires a complete allocation")
    top = set(range(family.n - 1))
    for bundle in allocation.bundles:
        if len(bundle) >= 2 and not top.isdisjoint(bundle):
            return family.case1, Fraction(0)
    return family.case2, Fraction(1, family.m - family.n)


@dataclass(frozen=True)
class QueryLBFamily:
    """Shared ranking: n-1 top goods, then k-1 segments of sharply decaying
    value, then a large zero-valued block; m = t**(2k-1)."""

    n: int
    k: int
    t: int
    m: int
    segment_sizes: tuple[int, ...]  # sizes of the k-1 middle segments
    block_size: int  # size of the trailing zero block
    top_value: Fraction  # rational stand-in for sqrt(k) (lower enclosure)
    top_value_hi: Fraction  # matching upper enclosure
    revealed: Instance  # every agent at the revealed values


def query_lb_build(n: int, k: int, t: int) -> QueryLBFamily:
    """Build the family for m = t**(2k-1) goods.

    Requires m > n + 2 and a trailing block of at least m/4 goods, which
    rules out degenerate sizes where the target factor is unattainable.
    """
    if n < 2 or k < 1 or t < 2:
        raise DomainError("need n >= 2, k >= 1, t >= 2")
    # m >= 2**(2k-1), so the first test spares computing a huge m.
    if 2 * k - 1 > MAX_FAMILY_VALUES.bit_length() or n * t ** (2 * k - 1) > MAX_FAMILY_VALUES:
        raise DomainError(f"family of {n} x {t}**{2 * k - 1} values exceeds {MAX_FAMILY_VALUES}")
    m = t ** (2 * k - 1)
    if m <= n + 2:
        raise DomainError("family requires m > n + 2")
    sizes = tuple(t ** (2 * level - 1) for level in range(1, k))
    block = m - (n - 1) - sum(sizes)
    if 4 * block < m:
        raise DomainError("trailing zero block must hold at least a quarter of the goods")
    sqrt_lo, sqrt_hi = sqrt_enclosure(k)
    # One row for every agent, on the scale of its deepest segment and sqrt_lo.
    scale = math.lcm(sqrt_lo.denominator, t ** (2 * len(sizes)))
    row = [sqrt_lo.numerator * (scale // sqrt_lo.denominator)] * (n - 1)
    for level, size in enumerate(sizes, start=1):
        row += [scale // t ** (2 * level)] * size
    row += [0] * block
    revealed = Instance.from_scaled([row] * n, (scale,) * n)
    return QueryLBFamily(
        n=n,
        k=k,
        t=t,
        m=m,
        segment_sizes=sizes,
        block_size=block,
        top_value=sqrt_lo,
        top_value_hi=sqrt_hi,
        revealed=revealed,
    )


def query_adversary_complete(
    family: QueryLBFamily, transcript: tuple, allocation: Allocation
) -> tuple[Instance, Fraction]:
    """Pick a consistent completion minimizing the achieved EFX factor.

    Mirrors the family's case analysis: a top good in a bundle of size two
    or more already sinks the unserved agent under the revealed values;
    otherwise the top goods are singletons, and the valuation of the agent
    holding the last top good is bent on whatever she left unqueried (her
    own good dropped a tier, or an untouched segment raised a tier).

    ``transcript`` holds the answered queries as (agent, good, value).
    Returns the completion and the exact capped envy factor of the pair the
    construction targets (an upper bound on the allocation's EFX factor).
    The completion only copies values within the holder's revealed integer
    row, so it keeps the ranking and every answer.
    """
    revealed = family.revealed
    validate(revealed, allocation)
    if not allocation.complete:
        raise DomainError("adversary requires a complete allocation")
    wrong = first_disagreement(revealed, transcript)
    if wrong is not None:
        agent, good, value = wrong
        if not (0 <= agent < family.n and 0 <= good < family.m):
            raise DomainError(
                f"transcript asks v_{agent}(g{good}), outside the family's "
                f"{family.n} agents and {family.m} goods"
            )
        raise InconsistentTranscript(
            f"transcript says v_{agent}(g{good}) = {value}, family reveals "
            f"{Fraction(int(revealed.scaled_values[agent, good]), revealed.scales[agent])}"
        )

    n = family.n
    top = set(range(n - 1))
    owner = {g: j for j, b in enumerate(allocation.bundles) for g in b}
    unserved = next(i for i in range(n) if top.isdisjoint(allocation.bundles[i]))

    for g in sorted(top):
        holder = owner[g]
        if len(allocation.bundles[holder]) >= 2:
            return revealed, pair_factor(revealed, allocation, unserved, holder)

    # All top goods are singleton bundles; the remaining agent holds the rest.
    last_top = n - 2
    holder = owner[last_top]
    queried = {g for agent, g, _ in transcript if agent == holder}
    row = revealed.scaled_values[holder].tolist()

    if last_top not in queried:
        # Drop the unqueried own good to the next tier's value.
        row[last_top] = row[n - 1]
    else:
        # Otherwise raise the lowest entirely-unqueried tier (a middle
        # segment, then the zero block) to the value just above it.
        start = n - 1
        for size in (*family.segment_sizes, family.block_size):
            if queried.isdisjoint(range(start, start + size)):
                row[start : start + size] = [row[start - 1]] * size
                break
            start += size
        else:
            raise DomainError(
                "no entirely-unqueried tier exists; transcript exceeds the family's budget"
            )

    rows, scales = revealed.scaled_values.tolist(), list(revealed.scales)
    rows[holder], scales[holder] = _scale_row(row, [scales[holder]] * family.m)
    completed = Instance.from_scaled(rows, scales)
    return completed, pair_factor(completed, allocation, holder, unserved)
