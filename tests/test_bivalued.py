import math
import random
from fractions import Fraction

import pytest

from fraction_reference import fraction_rows
from efxlab import (
    DomainError,
    Instance,
    NotBivalued,
    QueryOracle,
    ZeroLowValue,
    exact_efx_bruteforce,
    fairness_report,
    match_and_freeze,
    mfrr,
    round_robin,
    two_query_bivalued,
)
from efxlab.bivalued import (
    MatchFreezeState,
    discover_transition,
    match_freeze_round,
    prioritized_max_matching,
)


def bivalued_instance(rows, pairs):
    meta = [(Fraction(h), Fraction(low)) for h, low in pairs]
    return Instance.from_rows(rows, meta)


def random_bivalued(rng, n, m):
    rows = []
    meta = []
    for _ in range(n):
        h = rng.randint(2, 9)
        low = rng.randint(1, h - 1)
        rows.append([Fraction(h if rng.random() < 0.5 else low) for _ in range(m)])
        meta.append((Fraction(h), Fraction(low)))
    return Instance.from_rows(rows, meta)


# ---- prioritized matching --------------------------------------------


def test_matching_tie_break_single_good():
    match = prioritized_max_matching([0, 1], {0: [0], 1: [0]}, {0})
    assert match == {0: 0}


def test_matching_augmenting_path():
    match = prioritized_max_matching([0, 1], {0: [0, 1], 1: [0]}, {0, 1})
    assert match == {0: 1, 1: 0}


def test_matching_no_edges():
    assert prioritized_max_matching([0, 1], {}, {0, 1}) == {}


def test_matching_priority_is_lexicographic():
    # Good 0 is contested; priority agent 0 keeps it even though matching
    # only agent 1 would have the same cardinality.
    match = prioritized_max_matching([0, 1], {0: [0], 1: [0]}, {0})
    assert 0 in match and 1 not in match


# ---- match_and_freeze --------------------------------------------------


def test_match_freeze_trace():
    rows = [[3, 1, 1, 1], [3, 1, 1, 1]]
    inst = bivalued_instance(rows, [(3, 1), (3, 1)])
    a = match_and_freeze(inst)
    assert sorted(a.bundles[0]) == [0]
    assert sorted(a.bundles[1]) == [1, 2, 3]
    assert fairness_report(inst, a).alpha_efx == 1


def test_match_freeze_uniform_no_high_goods():
    rows = [[1, 1, 1, 1, 1], [1, 1, 1, 1, 1]]
    inst = bivalued_instance(rows, [(2, 1), (2, 1)])
    a = match_and_freeze(inst)
    sizes = sorted(len(b) for b in a.bundles)
    assert sizes == [2, 3]
    assert fairness_report(inst, a).alpha_efx >= Fraction(1, 2)


def test_match_freeze_exact_efx_random():
    rng = random.Random(61)
    for _ in range(100):
        n = rng.randint(2, 3)
        m = rng.randint(2, 8)
        inst = random_bivalued(rng, n, m)
        a = match_and_freeze(inst)
        assert a.complete
        assert fairness_report(inst, a).alpha_efx == 1
        assert exact_efx_bruteforce(inst) is not None


def test_freeze_at_most_once_per_run():
    rng = random.Random(67)
    for _ in range(100):
        n = rng.randint(2, 5)
        m = rng.randint(2, 25)
        inst = random_bivalued(rng, n, m)
        meta = dict(enumerate(inst.bivalued_meta))
        rows = fraction_rows(inst)
        high_goods = {i: [g for g, v in enumerate(rows[i]) if v == h] for i, (h, _) in meta.items()}
        state = MatchFreezeState.start(n, m, meta, high_goods)
        while state.pool:
            match_freeze_round(state)
        assert len(state.frozen_events) == len(set(state.frozen_events))


def test_match_freeze_errors():
    plain = Instance.from_rows([[1, 2], [1, 2]])
    with pytest.raises(NotBivalued):
        match_and_freeze(plain)
    zero_low = Instance.from_rows(
        [[1, 0], [1, 0]], [(Fraction(1), Fraction(0)), (Fraction(1), Fraction(0))]
    )
    with pytest.raises(ZeroLowValue):
        match_and_freeze(zero_low)


# ---- discover_transition ----------------------------------------------


def test_discover_transition_example():
    rows = [[5, 5, 2, 2], [5, 5, 2, 2], [5, 5, 2, 2], [5, 5, 2, 2]]
    o = QueryOracle(Instance.from_rows(rows))
    info = discover_transition(o, 0)
    assert info is not None
    assert (info.high, info.low, info.transition_rank) == (5, 2, 3)
    assert o.snapshot_counts()[0] <= 1 + math.ceil(math.log2(4))


def test_discover_transition_uniform():
    rows = [[3, 3, 3, 3]] * 4
    o = QueryOracle(Instance.from_rows(rows))
    assert discover_transition(o, 0) is None


def test_discover_transition_two_agents():
    rows = [[5, 2, 2], [5, 5, 1]]
    o = QueryOracle(Instance.from_rows(rows))
    info = discover_transition(o, 0)
    assert info is not None and info.transition_rank == 2
    assert o.snapshot_counts()[0] <= 2


def test_discover_transition_three_values():
    # The search probes ranks 1, 3 and 2, observing 5, 1 and 3.
    rows = [[5, 3, 1, 1]] * 4
    o = QueryOracle(Instance.from_rows(rows))
    with pytest.raises(NotBivalued):
        discover_transition(o, 0)


# ---- mfrr --------------------------------------------------------------


def test_mfrr_all_uniform_equals_round_robin():
    rows = [[2, 2, 2, 2, 2]] * 3
    inst = bivalued_instance(rows, [(3, 2)] * 3)
    a = mfrr(QueryOracle(inst))
    b = round_robin(QueryOracle(inst))
    assert a.bundles == b.bundles


def test_mfrr_all_transition_equals_match_and_freeze():
    rows = [[5, 1, 1, 1], [5, 5, 1, 1]]
    inst = bivalued_instance(rows, [(5, 1), (5, 1)])
    a = mfrr(QueryOracle(inst))
    b = match_and_freeze(inst)
    assert a.bundles == b.bundles


def test_mfrr_guarantee_random():
    rng = random.Random(71)
    ceiling = lambda n: 1 + math.ceil(math.log2(n))
    for _ in range(200):
        n = rng.randint(2, 5)
        m = rng.randint(n, 25)
        inst = random_bivalued(rng, n, m)
        o = QueryOracle(inst)
        a = mfrr(o)
        assert a.complete
        assert fairness_report(inst, a).alpha_efx >= Fraction(1, 2)
        assert all(c <= ceiling(n) for c in o.snapshot_counts().values())


def test_mfrr_m_phase_precedes_r_phase():
    # One transition agent and one uniform agent: in each phase the
    # transition agent's pick happens before the uniform agent's.
    rows = [[5, 5, 1, 1], [2, 2, 2, 2]]
    inst = bivalued_instance(rows, [(5, 1), (2, 1)])
    o = QueryOracle(inst)
    a = mfrr(o)
    assert a.complete
    # Agent 0 is matched first each phase, so she takes g0 in phase one.
    assert 0 in a.bundles[0]


# ---- two_query ---------------------------------------------------------


def test_two_query_requires_enough_goods():
    inst = random_bivalued(random.Random(1), 3, 5)
    with pytest.raises(DomainError):
        two_query_bivalued(QueryOracle(inst))


def test_two_query_guarantee_random():
    rng = random.Random(73)
    for _ in range(200):
        n = rng.randint(2, 5)
        m = rng.randint(2 * n, 25)
        inst = random_bivalued(rng, n, m)
        o = QueryOracle(inst, budget=2)
        a = two_query_bivalued(o)
        assert a.complete
        assert fairness_report(inst, a).alpha_efx >= Fraction(1, n)
        assert all(c <= 2 for c in o.snapshot_counts().values())


def test_two_query_uniform_falls_back_to_round_robin():
    rows = [[2] * 8, [2] * 8]
    inst = bivalued_instance(rows, [(3, 2), (3, 2)])
    a = two_query_bivalued(QueryOracle(inst))
    b = round_robin(QueryOracle(inst))
    assert a.bundles == b.bundles
    assert fairness_report(inst, a).alpha_efx >= Fraction(1, 2)
