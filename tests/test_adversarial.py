import random
from fractions import Fraction

import pytest

from fraction_reference import fraction_rows
from efxlab import (
    Allocation,
    DomainError,
    InconsistentTranscript,
    QueryOracle,
    build_ranking,
    fairness_report,
    ordinal_adversary_pick,
    ordinal_lb_build,
    query_adversary_complete,
    query_lb_build,
    round_robin,
    rrla,
)
from efxlab import adversarial
from efxlab.enclosures import pow_enclosure, sqrt_enclosure
from efxlab.harness import query_family_cap
from helpers import time_limit


# ---- ordinal family ---------------------------------------------------


def test_ordinal_family_values():
    fam = ordinal_lb_build(2, 6)
    assert fraction_rows(fam.case1)[0] == (1, 0, 0, 0, 0, 0)
    assert fraction_rows(fam.case2)[0] == (1, 1, 1, 1, 1, 1)
    assert build_ranking(fam.case1) == build_ranking(fam.case2)


def test_ordinal_family_domain():
    with pytest.raises(DomainError):
        ordinal_lb_build(3, 5)  # m must exceed n + 2
    for n in (1, 0, -1):  # no top good to withhold
        with pytest.raises(DomainError, match="n >= 2"):
            ordinal_lb_build(n, 12)


def test_rrla_on_all_ones_hits_bound():
    fam = ordinal_lb_build(3, 6)
    a = rrla(QueryOracle(fam.case2))
    assert fairness_report(fam.case2, a).alpha_efx == Fraction(1, 3)


def test_ordinal_adversary_case1():
    fam = ordinal_lb_build(2, 6)
    a = Allocation.from_bundles([[0, 1], [2, 3, 4, 5]])
    picked, bound = ordinal_adversary_pick(fam, a)
    assert picked is fam.case1 and bound == 0
    assert fairness_report(picked, a).alpha_efx <= bound


def test_ordinal_adversary_case2():
    fam = ordinal_lb_build(2, 6)
    a = Allocation.from_bundles([[0], [1, 2, 3, 4, 5]])
    picked, bound = ordinal_adversary_pick(fam, a)
    assert picked is fam.case2 and bound == Fraction(1, 4)
    assert fairness_report(picked, a).alpha_efx <= bound


def test_ordinal_adversary_total_and_sound():
    rng = random.Random(79)
    fam = ordinal_lb_build(3, 9)
    for _ in range(100):
        owners = [rng.randrange(3) for _ in range(9)]
        bundles = [set() for _ in range(3)]
        for g, o in enumerate(owners):
            bundles[o].add(g)
        a = Allocation.from_bundles(bundles)
        picked, bound = ordinal_adversary_pick(fam, a)
        assert fairness_report(picked, a).alpha_efx <= bound


# ---- query family -----------------------------------------------------


def test_query_family_structure():
    fam = query_lb_build(2, 2, 2)
    assert fam.m == 8
    assert fam.segment_sizes == (2,)
    assert fam.block_size == 5
    lo, hi = fam.top_value, fam.top_value_hi
    assert lo**2 <= 2 <= hi**2
    row = fraction_rows(fam.revealed)[0]
    assert row[1] == row[2] == Fraction(1, 4)
    assert all(v == 0 for v in row[3:])
    # Revealed values are nonincreasing along the shared ranking.
    assert all(a >= b for a, b in zip(row, row[1:]))


def test_query_family_k1_no_segments():
    fam = query_lb_build(2, 1, 7)
    assert fam.segment_sizes == ()
    assert fam.block_size == 6
    assert fam.top_value == 1  # sqrt(1) is exact


def test_query_family_domain():
    with pytest.raises(DomainError):
        query_lb_build(2, 1, 2)  # m = 2 <= n + 2
    with pytest.raises(DomainError):
        query_lb_build(2, 1, 1)


def test_families_beyond_the_size_limit_are_domain_errors():
    # n * m above the limit, or so many goods that t**(2k-1) is never computed.
    with time_limit(5):
        with pytest.raises(DomainError, match="exceeds"):
            ordinal_lb_build(2, 10**11)
        for n, k, t in ((2, 16, 3), (2, 40, 2), (2, 10**4, 10**9), (2, 1, 10**7), (10**6, 2, 3)):
            with pytest.raises(DomainError, match="exceeds"):
                query_lb_build(n, k, t)


def test_size_limit_admits_exactly_the_limit(monkeypatch):
    monkeypatch.setattr(adversarial, "MAX_FAMILY_VALUES", 16)
    assert ordinal_lb_build(2, 8).case1.m == 8
    assert query_lb_build(2, 2, 2).m == 8
    with pytest.raises(DomainError, match="2 x 9 values exceeds 16"):
        ordinal_lb_build(2, 9)
    for n, k in ((3, 2), (2, 3), (2, 4)):  # 3 x 8, 2 x 32 and 2 x 2**7 values
        with pytest.raises(DomainError, match="exceeds 16"):
            query_lb_build(n, k, 2)


def test_adversary_case1_top_good_in_big_bundle():
    fam = query_lb_build(2, 2, 2)
    a = Allocation.from_bundles([[0, 1], [2, 3, 4, 5, 6, 7]])
    picked, bound = query_adversary_complete(fam, (), a)
    assert picked is fam.revealed
    assert fairness_report(picked, a).alpha_efx <= bound


def test_adversary_case2_unqueried_own_good_dropped():
    fam = query_lb_build(2, 2, 2)
    # Singleton for the top good's holder; she never queried it.
    a = Allocation.from_bundles([[0], [1, 2, 3, 4, 5, 6, 7]])
    picked, bound = query_adversary_complete(fam, (), a)
    holder_row, other_row = fraction_rows(picked)
    assert holder_row[0] == Fraction(1, 4)  # dropped to the next tier
    assert other_row == fraction_rows(fam.revealed)[1]  # only her row changed
    assert fairness_report(picked, a).alpha_efx <= bound


def test_adversary_case2_unqueried_tier_raised():
    fam = query_lb_build(2, 2, 2)
    a = Allocation.from_bundles([[0], [1, 2, 3, 4, 5, 6, 7]])
    # The holder queried her own good, so an untouched tier gets raised.
    transcript = ((0, 0, fam.top_value),)
    picked, bound = query_adversary_complete(fam, transcript, a)
    row = fraction_rows(picked)[0]
    assert row[0] == fam.top_value
    # Lowest entirely-unqueried tier is S_1: raised to the top value.
    assert row[1] == row[2] == fam.top_value
    assert fairness_report(picked, a).alpha_efx <= bound


def test_adversary_rejects_inconsistent_transcript():
    fam = query_lb_build(2, 2, 2)
    a = Allocation.from_bundles([[0], [1, 2, 3, 4, 5, 6, 7]])
    bad = ((0, 0, Fraction(5)),)
    with pytest.raises(InconsistentTranscript):
        query_adversary_complete(fam, bad, a)


@pytest.mark.parametrize("agent,good", [(-1, 0), (2, 0), (0, 8), (0, -1), (0, 99)])
def test_adversary_rejects_transcript_outside_the_family(agent, good):
    fam = query_lb_build(2, 2, 2)  # n = 2, m = 8
    a = Allocation.from_bundles([[0], [1, 2, 3, 4, 5, 6, 7]])
    bad = ((agent, good, Fraction(0)),)
    with pytest.raises(DomainError, match="outside the family"):
        query_adversary_complete(fam, bad, a)


def _ranking_consistent(instance, reference):
    for r, row in zip(build_ranking(reference), fraction_rows(instance)):
        if any(row[a] < row[b] for a, b in zip(r, r[1:])):
            return False
    return True


def _transcript_respected(instance, transcript):
    rows = fraction_rows(instance)
    return all(rows[a][g] == v for a, g, v in transcript)


@pytest.mark.parametrize("n,k,t", [(2, 2, 2), (3, 2, 2), (2, 2, 3), (2, 3, 2)])
@pytest.mark.parametrize("alg", [round_robin, rrla])
def test_adversary_bound_for_budgeted_algorithms(n, k, t, alg):
    fam = query_lb_build(n, k, t)
    oracle = QueryOracle(fam.revealed, budget=k)
    allocation = alg(oracle)
    picked, bound = query_adversary_complete(fam, oracle.transcript(), allocation)
    assert _ranking_consistent(picked, fam.revealed)
    assert _transcript_respected(picked, oracle.transcript())
    measured = fairness_report(picked, allocation).alpha_efx
    assert measured <= bound
    assert measured <= query_family_cap(fam)


def test_query_family_cap_value():
    fam = query_lb_build(2, 2, 3)  # m = 27
    cap = query_family_cap(fam)
    sqrt2_hi = sqrt_enclosure(2)[1]
    assert cap == 2 * sqrt2_hi * Fraction(1, 3)
