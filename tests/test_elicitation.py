from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from efxlab import (
    BudgetExceeded,
    DomainError,
    Instance,
    QueryOracle,
    build_ranking,
    mfrr,
    prr,
    round_robin,
    rrla,
    theorem5_params,
    two_query_bivalued,
    virtual_efx,
)
from efxlab.fullinfo import envy_cycle_heuristic


def make_oracle(rows, budget=None, meta=None):
    return QueryOracle(Instance.from_rows(rows, meta), budget=budget)


def test_query_returns_hidden_value_and_counts():
    o = make_oracle([[1, 2], [3, 4]])
    assert o.query(1, 0) == 3
    assert o.snapshot_counts() == {0: 0, 1: 1}


def test_dedup_repeat_is_free():
    o = make_oracle([[1, 2], [3, 4]])
    assert o.query(1, 0) == 3
    assert o.query(1, 0) == 3
    assert o.snapshot_counts()[1] == 1
    assert len(o.transcript()) == 1


def test_budget_fail_fast():
    o = make_oracle([[1, 2], [3, 4]], budget=1)
    o.query(1, 0)
    with pytest.raises(BudgetExceeded):
        o.query(1, 1)
    # The failed query is not charged and dedup still answers the first.
    assert o.snapshot_counts()[1] == 1
    assert o.query(1, 0) == 3


def test_negative_budget_rejected():
    with pytest.raises(DomainError, match="budget must be >= 0, got -1"):
        make_oracle([[1, 2], [3, 4]], budget=-1)
    o = make_oracle([[1, 2], [3, 4]], budget=0)
    with pytest.raises(BudgetExceeded):
        o.query(0, 0)


def test_rankings_free_and_stable():
    o = make_oracle([[1, 3, 2], [2, 2, 2]])
    assert o.rankings is build_ranking(o.hidden_instance())
    assert o.snapshot_counts() == {0: 0, 1: 0}
    assert o.rankings == ((1, 2, 0), (0, 1, 2))


def test_fresh_oracle_counts_zero():
    assert make_oracle([[1], [1]]).snapshot_counts() == {0: 0, 1: 0}


def test_transcript_records_entries():
    o = make_oracle([[1, Fraction(1, 2)], [3, 4]])
    o.query(0, 1)
    o.query(1, 0)
    o.query(0, 1)  # a repeat is answered from the transcript
    assert o.transcript() == ((0, 1, Fraction(1, 2)), (1, 0, Fraction(3)))
    assert o.snapshot_counts() == {0: 1, 1: 1}


def test_index_bounds_checked():
    o = make_oracle([[1], [1]])
    with pytest.raises(Exception):
        o.query(2, 0)
    with pytest.raises(Exception):
        o.query(0, 5)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 3)), min_size=1, max_size=20
    )
)
def test_dedup_idempotence_any_order(pairs):
    rows = [[Fraction(i * 10 + g) for g in range(4)] for i in range(3)]
    o1 = make_oracle(rows)
    o2 = make_oracle(rows)
    for a, g in pairs:
        o1.query(a, g)
    for a, g in reversed(pairs):
        o2.query(a, g)
    assert o1.snapshot_counts() == o2.snapshot_counts()
    assert sorted(o1.transcript()) == sorted(o2.transcript())


# Every attribute through which an instance gives away its values.
HIDDEN_VALUE_ATTRIBUTES = ("scaled_values", "scales")


class _WatchedInstance:
    """Stands in for the hidden instance and logs each read of a value attribute."""

    def __init__(self, instance, accesses):
        self._instance = instance
        self._accesses = accesses

    def __getattr__(self, name):
        if name in HIDDEN_VALUE_ATTRIBUTES:
            self._accesses.append(name)
        return getattr(self._instance, name)


class _SpyOracle(QueryOracle):
    """Oracle whose hidden instance logs every read of its values."""

    def __init__(self, instance):
        super().__init__(instance)
        self.accesses = []
        self._hidden = _WatchedInstance(self._hidden, self.accesses)

    def query(self, agent, good):
        before = len(self.accesses)
        value = super().query(agent, good)
        # Forget accesses made through the sanctioned path.
        del self.accesses[before:]
        return value


def _spy_rows():
    rows = [
        [5, 5, 1, 1, 1, 1, 1, 1],
        [5, 1, 5, 1, 1, 1, 1, 1],
        [5, 1, 1, 5, 1, 1, 1, 1],
    ]
    return Instance.from_rows(rows, [(Fraction(5), Fraction(1))] * 3)


@pytest.mark.parametrize("attribute", HIDDEN_VALUE_ATTRIBUTES)
def test_spy_sees_reads_outside_query(attribute):
    oracle = _SpyOracle(_spy_rows())
    assert oracle.query(0, 1) == 5
    assert oracle.accesses == []
    getattr(oracle._hidden, attribute)
    assert oracle.accesses == [attribute]


@pytest.mark.parametrize(
    "run",
    [
        lambda o: round_robin(o),
        lambda o: rrla(o),
        lambda o: virtual_efx(o, 2, envy_cycle_heuristic),
        lambda o: prr(o, theorem5_params(o.n, o.m, 2, Fraction(3, 2))),
        lambda o: mfrr(o),
        lambda o: two_query_bivalued(o),
    ],
    ids=["round_robin", "rrla", "virtual_efx", "prr", "mfrr", "two_query"],
)
def test_algorithms_never_touch_hidden_values_directly(run):
    oracle = _SpyOracle(_spy_rows())
    run(oracle)
    assert oracle.accesses == []
