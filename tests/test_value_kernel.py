"""Differential tests of the integer value kernel against the pure-Fraction
reference in ``fraction_reference``: rankings, fairness reports, every
algorithm's run record, match-freeze rounds and the matching itself must be
identical, on both the int64 and the object-dtype paths."""

import dataclasses
import random
import sys
from contextlib import ExitStack
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fraction_reference as ref
from efxlab import (
    Allocation,
    FairDivisionError,
    Instance,
    build_ranking,
    envy_cycle_heuristic,
    fairness_report,
    match_freeze_round,
    prioritized_max_matching,
)
from efxlab import bivalued, elicitation, harness, query_enhanced
from efxlab.bivalued import MatchFreezeState

# Values whose scaled rows overflow the int64 rule and take the object path.
BIG = 10**12


@st.composite
def values(draw, big: bool):
    """A non-negative rational, with denominators that differ within a row."""
    top = BIG if big else 12
    return Fraction(draw(st.integers(0, top)), draw(st.sampled_from((1, 1, 2, 3, 7, 10**13))))


@st.composite
def instances(draw, bivalued_meta: bool = False):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 10))
    big = draw(st.booleans())
    rows, meta = [], []
    for _ in range(n):
        if draw(st.integers(0, 9)) == 0 and not bivalued_meta:
            rows.append([Fraction(0)] * m)
            continue
        if bivalued_meta:
            low = draw(values(big).filter(lambda v: v > 0))
            high = low + draw(values(big).filter(lambda v: v > 0))
            rows.append([draw(st.sampled_from((high, low))) for _ in range(m)])
            meta.append((high, low))
        else:
            rows.append([draw(values(big)) for _ in range(m)])
    return Instance.from_rows(rows, meta if bivalued_meta else None)


@st.composite
def allocations(draw, n: int, m: int):
    """Possibly incomplete, possibly with empty bundles."""
    owners = [draw(st.integers(-1, n - 1)) for _ in range(m)]
    bundles = [[g for g in range(m) if owners[g] == j] for j in range(n)]
    return Allocation.from_bundles(bundles, complete=-1 not in owners)


def reference_code() -> ExitStack:
    """Swap the kernel's hot paths for the reference wherever they are called."""
    stack = ExitStack()
    stack.enter_context(mock.patch.object(elicitation, "build_ranking", ref.build_ranking))
    stack.enter_context(mock.patch.object(harness, "fairness_report", ref.fairness_report))
    stack.enter_context(
        mock.patch.object(query_enhanced, "fairness_report", ref.fairness_report)
    )
    stack.enter_context(
        mock.patch.object(bivalued, "match_freeze_round", ref.match_freeze_round)
    )
    stack.enter_context(
        mock.patch.dict(harness.BLACKBOXES, {"envy_cycle": ref.envy_cycle_heuristic})
    )
    return stack


def outcome(instance: Instance, algorithm: str, blackbox: str):
    """Run record without its wall time, or the error raised."""
    try:
        record = harness.execute(instance, algorithm, blackbox=blackbox)
    except FairDivisionError as exc:
        return type(exc), str(exc)
    return dataclasses.replace(record, wall_time=0.0)


def check_instance(instance: Instance) -> None:
    expected = ref.scaled_rows(instance)
    assert instance.scaled_values.dtype == expected.dtype
    assert np.array_equal(instance.scaled_values, expected)
    assert build_ranking(instance) == ref.build_ranking(instance)
    blackbox = "exact" if instance.n**instance.m <= 4096 else "envy_cycle"
    for algorithm in harness.ALGORITHMS:
        new = outcome(instance, algorithm, blackbox)
        with reference_code():
            old = outcome(instance, algorithm, blackbox)
        assert new == old, algorithm
        if isinstance(new, harness.RunRecord):
            assert fairness_report(instance, new.allocation) == ref.fairness_report(
                instance, new.allocation
            )


@settings(max_examples=150, deadline=None)
@given(instances())
def test_algorithms_match_reference(instance):
    check_instance(instance)


@settings(max_examples=150, deadline=None)
@given(instances(bivalued_meta=True))
def test_bivalued_algorithms_match_reference(instance):
    check_instance(instance)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fairness_report_matches_reference(data):
    instance = data.draw(instances())
    allocation = data.draw(allocations(instance.n, instance.m))
    assert fairness_report(instance, allocation) == ref.fairness_report(instance, allocation)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_envy_cycle_matches_reference(instance):
    assert envy_cycle_heuristic(instance) == ref.envy_cycle_heuristic(instance)


@settings(max_examples=150, deadline=None)
@given(instances(bivalued_meta=True))
def test_match_freeze_rounds_match_reference(instance):
    def fresh():
        return MatchFreezeState(
            freeze_counters=[0] * instance.n,
            pool=set(range(instance.m)),
            bundles=[set() for _ in range(instance.n)],
        )

    agents = list(range(instance.n))
    new, old = fresh(), fresh()
    while new.pool:
        match_freeze_round(instance, agents, new)
        ref.match_freeze_round(instance, agents, old)
        assert (new.pool, new.bundles, new.freeze_counters, new.frozen_events) == (
            old.pool,
            old.bundles,
            old.freeze_counters,
            old.frozen_events,
        )


def test_both_dtype_paths_are_exercised():
    small = Instance.from_rows([[1, Fraction(1, 2)], [3, 0]])
    large = Instance.from_rows([[BIG, Fraction(1, 3)], [0, 0]])
    assert small.scaled_values.dtype == np.int64
    assert large.scaled_values.dtype == object
    for instance in (small, large):
        check_instance(instance)


def test_matching_matches_recursive_reference():
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(1, 8)
        m = rng.randint(1, 10)
        edges = {i: sorted(rng.sample(range(m), rng.randint(0, m))) for i in range(n)}
        pool = set(rng.sample(range(m), rng.randint(0, m)))
        agents = rng.sample(range(n), n)
        new = prioritized_max_matching(agents, edges, pool)
        old = ref.prioritized_max_matching(agents, edges, pool)
        assert list(new.items()) == list(old.items())


def test_matching_long_augmenting_chain():
    # Agent i holds good i after the first pass; the last agent's only edge
    # is good 0, so her augmenting path shifts every agent by one good.
    chain = 1100
    assert chain > sys.getrecursionlimit()
    edges = {i: [i, i + 1] for i in range(chain)}
    edges[chain] = [0]
    args = (list(range(chain + 1)), edges, set(range(chain + 1)))
    with pytest.raises(RecursionError):
        ref.prioritized_max_matching(*args)
    match = prioritized_max_matching(*args)
    assert match == {**{i: i + 1 for i in range(chain)}, chain: 0}
