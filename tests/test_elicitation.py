import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from efxlab import (
    BudgetExceeded,
    DomainError,
    FairDivisionError,
    InconsistentTranscript,
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
from efxlab.harness import ALGORITHM_SPECS, ALGORITHMS, execute, generate_instance
from helpers import time_limit


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
    inst = Instance.from_rows([[1, 3, 2], [2, 2, 2]])
    o = QueryOracle(inst)
    assert o.rankings is build_ranking(inst)
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


@pytest.mark.parametrize("agent,good", [(0.5, 0), (0, 1.0), (True, 0), (0, False)])
def test_an_index_that_is_not_an_int_is_rejected(agent, good):
    o = make_oracle([[1, 2], [3, 4]])
    with pytest.raises(FairDivisionError, match="index .* out of range"):
        o.query(agent, good)
    assert o.transcript() == ()


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


def _bivalued_instance():
    rows = [
        [5, 5, 1, 1, 1, 1, 1, 1],
        [5, 1, 5, 1, 1, 1, 1, 1],
        [5, 1, 1, 5, 1, 1, 1, 1],
    ]
    return Instance.from_rows(rows, [(Fraction(5), Fraction(1))] * 3)


def test_oracle_holds_no_instance():
    oracle = QueryOracle(_bivalued_instance())
    assert not any(isinstance(value, Instance) for value in vars(oracle).values())


def test_replay_answers_only_from_the_transcript():
    o = make_oracle([[1, Fraction(1, 2)], [3, 4]])
    o.query(0, 1)
    o.query(1, 0)
    replayed = QueryOracle.replay(o.rankings, o.transcript())
    assert (replayed.n, replayed.m, replayed.rankings) == (2, 2, o.rankings)
    assert replayed.query(1, 0) == 3 and replayed.query(1, 0) == 3
    assert replayed.transcript() == ((1, 0, Fraction(3)),)
    assert replayed.snapshot_counts() == {0: 0, 1: 1}
    with pytest.raises(InconsistentTranscript, match=r"v_1\(g1\) is not in the transcript"):
        replayed.query(1, 1)
    # The failed query is neither recorded nor charged.
    assert replayed.snapshot_counts() == {0: 0, 1: 1}
    assert replayed.query(0, 1) == Fraction(1, 2)


@pytest.mark.parametrize(
    "run",
    [
        lambda o: round_robin(o),
        lambda o: rrla(o),
        lambda o: virtual_efx(o, 2, envy_cycle_heuristic)[0],
        lambda o: prr(o, theorem5_params(o.n, o.m, 2, Fraction(3, 2))),
        lambda o: mfrr(o),
        lambda o: two_query_bivalued(o),
    ],
    ids=["round_robin", "rrla", "virtual_efx", "prr", "mfrr", "two_query"],
)
def test_algorithms_never_touch_hidden_values_directly(run):
    """Each algorithm, re-run on its own view (rankings and answers, no
    instance), asks the same queries and returns the same allocation."""
    oracle = QueryOracle(_bivalued_instance())
    allocation = run(oracle)
    replayed = QueryOracle.replay(oracle.rankings, oracle.transcript())
    assert run(replayed) == allocation
    assert replayed.transcript() == oracle.transcript()


# The (k, blackbox) pairs replayed for the specs that take them.
K_AND_BLACKBOX = {
    "virtual_efx": [(1, "envy_cycle"), (2, "envy_cycle"), (1, "exact"), (2, "exact")],
    "prr": [(2, "envy_cycle"), (3, "envy_cycle")],
}
# Every spec an oracle drives, as (algorithm, k, blackbox) settings to replay.
REPLAY_SETTINGS = [
    (algorithm, k, blackbox)
    for algorithm in ALGORITHMS
    if not ALGORITHM_SPECS[algorithm].full_information
    for k, blackbox in K_AND_BLACKBOX.get(algorithm, [(None, "envy_cycle")])
]


def test_every_run_replays_from_its_rankings_and_transcript():
    """Every run of a spec that is not full-information is a function of its
    view: re-run on :meth:`QueryOracle.replay` of its record's rankings and
    transcript, it asks the same queries in the same order and returns the
    same allocation. n = 2..5, m <= 16, uniform and bivalued instances; the
    exact black box runs where n**m <= 65,536."""
    rng = random.Random(43)
    replayed = dict.fromkeys(REPLAY_SETTINGS, 0)
    with time_limit(10):  # about 1.8 s on 2 vCPUs
        for seed in range(200):
            kind = rng.choice(("uniform", "bivalued"))
            n = rng.randint(2, 5)
            instance = generate_instance(kind, n, rng.randint(1, 16), seed=seed)
            for setting in REPLAY_SETTINGS:
                algorithm, k, blackbox = setting
                spec = ALGORITHM_SPECS[algorithm]
                if spec.bivalued and kind != "bivalued":
                    continue
                if blackbox == "exact" and n**instance.m > 65536:
                    continue
                try:
                    record = execute(instance, algorithm, k=k, blackbox=blackbox)
                except FairDivisionError:
                    continue
                oracle = QueryOracle.replay(record.rankings, record.transcript)
                allocation = spec.run(oracle, k, None, blackbox)[0]
                assert allocation == record.allocation, (setting, seed)
                assert oracle.transcript() == record.transcript, (setting, seed)
                assert list(oracle.snapshot_counts().values()) == record.query_counts
                replayed[setting] += 1
    assert min(replayed.values()) > 0 and sum(replayed.values()) >= 1000, replayed
