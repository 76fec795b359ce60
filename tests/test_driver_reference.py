"""Differential tests of the shared match-freeze driver, the flat ``prr``
loop and the lazy ranking walks against the loops and cursors they
replaced, kept in ``fraction_reference``: on seeded random instances, with
ties, n = 1, m < n, k = 1..4, flat-top agents and instances with no
transition, the allocations, the transcripts (query order included) and the
errors must be identical."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import fraction_reference as ref
from efxlab import (
    FairDivisionError,
    Instance,
    PRRParams,
    QueryOracle,
    match_and_freeze,
    mfrr,
    prr,
    round_robin,
    rrla,
    theorem5_params,
    two_query_bivalued,
)
from efxlab.harness import default_lambda, generate_instance


def outcome(algorithm, instance, *args):
    """(allocation, transcript entries) of one run, or the error's class and message."""
    oracle = QueryOracle(instance)
    try:
        allocation = algorithm(oracle, *args)
    except FairDivisionError as exc:
        return type(exc), str(exc)
    return allocation, oracle.transcript()


def tied_instance(rng: random.Random) -> Instance:
    """Values from a small range, so rankings and top goods tie often."""
    n = rng.randint(1, 7)
    m = rng.randint(1, 30)
    top = rng.choice((1, 3, 20))
    return Instance.from_rows([[rng.randint(0, top) for _ in range(m)] for _ in range(n)])


def random_params(rng: random.Random, m: int) -> PRRParams:
    k = rng.randint(1, 4)
    alpha = tuple(rng.randint(1, max(1, m // 3)) for _ in range(k - 1))
    beta = tuple(Fraction(rng.randint(1, 40), rng.randint(1, 8)) for _ in range(k - 1))
    return PRRParams(alpha=alpha, beta=beta)


@pytest.mark.parametrize("seed", range(8))
def test_prr_flat_loop_matches_grouped_rounds(seed):
    rng = random.Random(seed)
    ks, singles = set(), 0
    for _ in range(250):
        instance = tied_instance(rng)
        params = random_params(rng, instance.m)
        new = outcome(prr, instance, params)
        assert new == outcome(ref.prr, instance, params)
        ks.add(len(params.alpha) + 1)
        if not isinstance(new[0], type):
            singles += sum(len(b) == 1 for b in new[0].bundles)
    assert ks == {1, 2, 3, 4} and singles


def bivalued_instance(rng: random.Random, zero_low: bool = False) -> Instance:
    """Each agent's row takes her h and l; some rows are flat (one value
    throughout), and with ``zero_low`` some low values are 0."""
    n = rng.randint(1, 7)
    m = rng.randint(1, 30)
    rows, meta = [], []
    for _ in range(n):
        h = rng.randint(2, 9)
        low = 0 if zero_low and rng.random() < 0.5 else rng.randint(1, h - 1)
        shape = rng.random()
        if shape < 0.15:
            row = [h] * m
        elif shape < 0.3:
            row = [low] * m
        else:
            row = [h if rng.random() < rng.random() else low for _ in range(m)]
        rows.append(row)
        meta.append((Fraction(h), Fraction(low)))
    return Instance.from_rows(rows, meta)


def has_transition(instance: Instance, agent: int) -> bool:
    """Whether the agent's top-n values hold both of her values."""
    top_n = sorted(instance.scaled_values[agent].tolist(), reverse=True)[: instance.n]
    return len(set(top_n)) == 2


@pytest.mark.parametrize("seed", range(6))
def test_match_freeze_driver_matches_its_own_loop(seed):
    rng = random.Random(100 + seed)
    errors = 0
    for _ in range(150):
        instance = bivalued_instance(rng, zero_low=rng.random() < 0.2)
        new = outcome(lambda oracle: match_and_freeze(oracle.hidden_instance()), instance)
        old = outcome(lambda oracle: ref.match_and_freeze(oracle.hidden_instance()), instance)
        assert new == old
        errors += isinstance(new[0], type)
    assert errors


def test_match_and_freeze_needs_bivalued_metadata():
    instance = Instance.from_rows([[2, 1], [1, 2]])
    assert outcome(lambda o: match_and_freeze(o.hidden_instance()), instance) == outcome(
        lambda o: ref.match_and_freeze(o.hidden_instance()), instance
    )


def test_mfrr_driver_matches_its_own_loop():
    rng = random.Random(200)
    seen = set()
    for _ in range(900):
        instance = bivalued_instance(rng, zero_low=rng.random() < 0.2)
        new = outcome(mfrr, instance)
        assert new == outcome(ref.mfrr, instance)
        n = instance.n
        if isinstance(new[0], type):
            seen.add("error")
        elif instance.m < n:
            seen.add("m < n")
        else:
            flat = [i for i in range(n) if not has_transition(instance, i)]
            seen.add("no transition" if len(flat) == n else "flat-top" if flat else "all matched")
    assert seen == {"error", "m < n", "no transition", "flat-top", "all matched"}


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(("uniform", "bivalued")),
    n=st.integers(1, 7),
    m=st.integers(1, 50),
    seed=st.integers(0, 10**6),
)
def test_ranking_walks_match_cursor_reference(data, kind, n, m, seed):
    instance = generate_instance(kind, n, m, seed=seed)
    participants = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    pool = data.draw(st.lists(st.integers(0, m - 1), unique=True))
    assert outcome(round_robin, instance, participants, pool) == outcome(
        ref.round_robin, instance, participants, pool
    )
    assert outcome(round_robin, instance) == outcome(ref.round_robin, instance)
    assert outcome(rrla, instance) == outcome(ref.rrla, instance)
    for k in (2, 3, 4):
        lam = data.draw(st.sampled_from((None, Fraction(1), Fraction(3, 2), Fraction(40))))
        try:
            params = theorem5_params(n, m, k, lam if lam is not None else default_lambda(n, m, k))
        except FairDivisionError:
            continue
        assert outcome(prr, instance, params) == outcome(ref.prr, instance, params)
    if kind == "bivalued":
        assert outcome(two_query_bivalued, instance) == outcome(ref.two_query_bivalued, instance)
        assert outcome(mfrr, instance) == outcome(ref.mfrr, instance)
