import random
from fractions import Fraction

import pytest

from fraction_reference import fraction_rows
from efxlab import (
    DomainError,
    Instance,
    QueryOracle,
    fairness_report,
    round_robin,
    rrla,
)


def oracle_for(rows):
    return QueryOracle(Instance.from_rows(rows))


def random_instance(rng, n, m, top=20):
    return Instance.from_rows(
        [[Fraction(rng.randint(0, top)) for _ in range(m)] for _ in range(n)]
    )


def test_round_robin_one_round():
    a = round_robin(oracle_for([[2, 1], [2, 1]]))
    assert [sorted(b) for b in a.bundles] == [[0], [1]]


def test_round_robin_alternation():
    a = round_robin(oracle_for([[4, 3, 2, 1], [4, 3, 2, 1]]))
    assert [sorted(b) for b in a.bundles] == [[0, 2], [1, 3]]


def test_round_robin_zero_queries_and_complete():
    o = oracle_for([[1, 5, 2], [3, 3, 3]])
    a = round_robin(o)
    assert a.complete
    assert o.snapshot_counts() == {0: 0, 1: 0}


def test_round_robin_subset_pool_and_participants():
    o = oracle_for([[4, 3, 2, 1], [4, 3, 2, 1], [4, 3, 2, 1]])
    a = round_robin(o, participants=[1, 2], pool=[1, 3])
    assert [sorted(b) for b in a.bundles] == [[], [1], [3]]
    assert not a.complete


def test_round_robin_empty_participants():
    with pytest.raises(DomainError):
        round_robin(oracle_for([[1], [1]]), participants=[])


def test_rrla_trace():
    a = rrla(oracle_for([[4, 3, 2, 1], [4, 3, 2, 1]]))
    assert [sorted(b) for b in a.bundles] == [[0], [1, 2, 3]]


def test_rrla_all_ones_tight():
    n, m = 3, 6
    o = oracle_for([[1] * m] * n)
    a = rrla(o)
    assert fairness_report(o.hidden_instance(), a).alpha_efx == Fraction(1, m - n)
    assert o.snapshot_counts() == {i: 0 for i in range(n)}


def test_rrla_m_equals_n_singletons():
    o = oracle_for([[3, 2, 1]] * 3)
    a = rrla(o)
    assert all(len(b) == 1 for b in a.bundles)
    assert fairness_report(o.hidden_instance(), a).alpha_efx == 1


def test_round_robin_always_ef1_random():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(2, 5)
        m = rng.randint(2, 20)
        inst = random_instance(rng, n, m)
        o = QueryOracle(inst)
        a = round_robin(o)
        assert fairness_report(inst, a).alpha_ef1 == 1
        assert all(c == 0 for c in o.snapshot_counts().values())


def test_rrla_bound_random():
    rng = random.Random(13)
    for _ in range(200):
        n = rng.randint(2, 5)
        m = rng.randint(n + 1, 20)
        inst = random_instance(rng, n, m)
        a = rrla(QueryOracle(inst))
        assert fairness_report(inst, a).alpha_efx >= Fraction(1, m - n)


def test_rrla_pick_before_property():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(2, 4)
        m = rng.randint(n, 12)
        inst = random_instance(rng, n, m)
        a = rrla(QueryOracle(inst))
        rows = fraction_rows(inst)
        for i in range(n - 1):
            (g,) = a.bundles[i]
            for other in a.bundles[n - 1]:
                assert rows[i][g] >= rows[i][other]
