"""The harness's algorithm table and the integer query adversary, checked
differentially against the dispatch chains and ``Fraction`` code they
replaced (kept in ``fraction_reference``)."""

import dataclasses
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import fraction_reference as ref
from efxlab import (
    Allocation,
    DomainError,
    Instance,
    QueryOracle,
    cli,
    fairness_report,
    harness,
    query_adversary_complete,
    query_lb_build,
    rrla,
)
from efxlab.core import pair_factor
from efxlab.elicitation import first_disagreement
from efxlab.harness import ALGORITHM_SPECS, ALGORITHMS, BLACKBOXES

NAMES = ALGORITHMS + ("nope",)


def outcome(call):
    """A result with any run record's wall time dropped, or the error raised."""
    try:
        result = call()
    except Exception as exc:  # any error: class and message are compared
        return type(exc), str(exc)
    if isinstance(result, harness.RunRecord):
        result = result.to_json()
        del result["wall_time"]
    return result


def test_table_order_and_flags():
    assert ALGORITHMS == (
        "round_robin", "rrla", "virtual_efx", "prr", "match_freeze", "mfrr", "two_query"
    )
    assert ALGORITHMS == tuple(ALGORITHM_SPECS)
    assert [a for a in ALGORITHMS if ALGORITHM_SPECS[a].query_family] == [
        "round_robin", "rrla", "prr"
    ]
    assert [a for a in ALGORITHMS if ALGORITHM_SPECS[a].bivalued] == [
        "match_freeze", "mfrr", "two_query"
    ]
    assert {a: ALGORITHM_SPECS[a].bound_kind for a in ALGORITHMS} == {
        a: "ef1" if a == "round_robin" else "efx" for a in ALGORITHMS
    }


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(("uniform", "bivalued")),
    n=st.integers(1, 3),
    m=st.integers(1, 7),
    seed=st.integers(0, 10**6),
    algorithm=st.sampled_from(NAMES + (["rrla"],)),
    k=st.sampled_from((None, 0, 1, 2, 3)),
    lam=st.sampled_from((None, Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(40))),
    blackbox=st.sampled_from(("exact", "envy_cycle", "nope")),
    budget=st.sampled_from((None, 0, 1, 2, 4)),
)
def test_execute_matches_dispatch_chain(kind, n, m, seed, algorithm, k, lam, blackbox, budget):
    instance = harness.generate_instance(kind, n, m, seed=seed)
    options = dict(k=k, lam=lam, blackbox=blackbox, budget=budget, instance_id="x")
    new = outcome(lambda: harness.execute(instance, algorithm, **options))
    old = outcome(lambda: ref.execute(instance, algorithm, **options))
    assert new == old


@pytest.mark.parametrize("n,k,t,budget", [(2, 2, 2, 2), (3, 2, 3, 2), (2, 3, 2, 3), (3, 2, 3, 0)])
@pytest.mark.parametrize("algorithm", NAMES)
def test_adversary_query_matches_dispatch_chain(algorithm, n, k, t, budget):
    new = outcome(lambda: harness.adversary_query(n, k, t, algorithm, budget))
    assert new == outcome(lambda: ref.adversary_query(n, k, t, algorithm, budget))
    if algorithm in ("round_robin", "rrla") or (algorithm == "prr" and budget):
        assert new["pass"]


@settings(max_examples=150, deadline=None)
@given(
    algorithm=st.sampled_from(NAMES),
    n=st.integers(1, 4),
    k=st.integers(1, 3),
    t=st.integers(2, 4),
    budget=st.integers(0, 4),
)
def test_adversary_query_matches_dispatch_chain_random(algorithm, n, k, t, budget):
    if k == 3:
        t = min(t, 3)
    new = outcome(lambda: harness.adversary_query(n, k, t, algorithm, budget))
    assert new == outcome(lambda: ref.adversary_query(n, k, t, algorithm, budget))


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 4),
    k=st.integers(1, 3),
    t=st.integers(2, 9),
    seed=st.integers(0, 10**6),
    spread=st.sampled_from((0, 1, 3)),
    queries=st.integers(0, 12),
    lie=st.sampled_from((False, False, False, True)),
)
def test_query_adversary_matches_fraction_completion(n, k, t, seed, spread, queries, lie):
    """Random complete allocations (top goods as singletons unless ``spread``
    moves some) and transcripts of true, or sometimes one false, answers."""
    try:
        family = query_lb_build(n, k, min(t, {1: 9, 2: 4, 3: 3}[k]))
    except DomainError:
        return
    rng = random.Random(seed)
    m = family.m
    owners = list(range(n - 1)) + [n - 1] * (m - n + 1)
    for _ in range(spread):
        g = rng.randrange(m)
        owners[g] = rng.randrange(n)
    bundles = [[g for g in range(m) if owners[g] == j] for j in range(n)]
    allocation = Allocation.from_bundles(bundles)
    revealed = ref.fraction_rows(family.revealed)
    entries = []
    for _ in range(queries):
        # Half the queries ask for a top good, so every case is reached.
        agent, good = rng.randrange(n), rng.randrange(n - 1 if rng.random() < 0.5 else m)
        entries.append((agent, good, revealed[agent][good]))
    if lie and entries:
        agent, good, value = entries[-1]
        entries[-1] = (agent, good, value + Fraction(1, 7))
    transcript = tuple(entries)
    new = outcome(lambda: query_adversary_complete(family, transcript, allocation))
    old = outcome(lambda: ref.query_adversary_complete(family, transcript, allocation))
    assert new == old
    if isinstance(new, tuple) and isinstance(new[0], Instance):
        assert new[0].scaled_values.dtype == old[0].scaled_values.dtype
        assert new[0].scales == old[0].scales


@pytest.mark.parametrize(
    "queried,raised",
    [((0,), {1: "top", 2: "top"}),
     ((0, 1), {3: Fraction(1, 4), 10: Fraction(1, 4)}),
     ((0, 2, 4), {11: Fraction(1, 16), 31: Fraction(1, 16)}),
     ((0, 1, 3, 11), None)],
    ids=["segment-1", "segment-2", "block", "none-left"],
)
def test_query_adversary_raises_each_tier(queried, raised):
    """k = 3, t = 2: goods 1-2 form segment 1, 3-10 segment 2, 11-31 the block."""
    family = query_lb_build(2, 3, 2)
    allocation = Allocation.from_bundles([[0], range(1, 32)])
    row = ref.fraction_rows(family.revealed)[0]
    transcript = tuple((0, g, row[g]) for g in queried)
    new = outcome(lambda: query_adversary_complete(family, transcript, allocation))
    assert new == outcome(lambda: ref.query_adversary_complete(family, transcript, allocation))
    if raised is None:
        assert new[0] is DomainError
    else:
        expected = {g: family.top_value if v == "top" else v for g, v in raised.items()}
        assert {g: ref.fraction_rows(new[0])[0][g] for g in raised} == expected


@pytest.mark.parametrize(
    "transcript,holder_row",
    [((), [1, 1, 1, 0, 0, 0, 0, 0]), (((0, 0, Fraction(2)),), [2, 2, 2, 0, 0, 0, 0, 0])],
    ids=["own-good-dropped", "segment-raised"],
)
def test_query_adversary_completes_a_coarse_scale_from_revealed_values(transcript, holder_row):
    family = query_lb_build(2, 2, 2)
    # Same ranking, but on scale 1, where the family's tier value 1/4 is not an
    # integer: the completion copies values the row already holds.
    row = [2, 1, 1, 0, 0, 0, 0, 0]
    coarse = Instance.from_scaled([row, row], (1, 1))
    family = dataclasses.replace(family, revealed=coarse)
    allocation = rrla(QueryOracle(coarse))
    picked, bound = query_adversary_complete(family, transcript, allocation)
    assert picked.scaled_values.tolist() == [holder_row, row] and picked.scales == (1, 1)
    assert ref.consistent_with_ranking(picked, coarse)
    assert first_disagreement(picked, transcript) is None
    assert bound == pair_factor(picked, allocation, 0, 1)


def _double_a_queried_row(rows, transcript):
    agent = next(a for a, _, value in transcript if value > 0)
    rows[agent] = [2 * v for v in rows[agent]]


def _raise_an_unqueried_good(rows, transcript):
    agent = transcript[0][0]
    asked = {g for a, g, _ in transcript if a == agent}
    good = max(g for g in range(len(rows[agent])) if g not in asked)
    rows[agent][good] = 2 * max(rows[agent])


@pytest.mark.parametrize(
    "bend", [_double_a_queried_row, _raise_an_unqueried_good],
    ids=["answer-changed", "ranking-broken"],
)
def test_adversary_query_flags_an_inconsistent_completion(capsys, bend):
    """A completion that doubles one queried agent's values keeps every
    ranking but changes her answers; one that raises an unqueried bottom good
    keeps every answer but breaks her ranking. Either way the check fails and
    the CLI exits 3."""
    argv = ["adversary", "--family", "query", "--n", "2", "--k", "2", "--t", "3", "--alg", "prr"]
    assert harness.adversary_query(2, 2, 3, "prr", 2)["pass"]
    real = harness.query_adversary_complete

    def complete(family, transcript, allocation):
        picked, bound = real(family, transcript, allocation)
        rows = [list(row) for row in ref.fraction_rows(picked)]
        bend(rows, transcript)
        bent = Instance.from_rows(rows)
        # Exactly one half of the check fails.
        kept = first_disagreement(bent, transcript) is None
        assert ref.consistent_with_ranking(bent, family.revealed) != kept
        return bent, bound

    with mock.patch.object(harness, "query_adversary_complete", complete):
        result = harness.adversary_query(2, 2, 3, "prr", 2)
        assert cli.main(argv) == cli.EXIT_GUARANTEE
    assert result["consistent"] is False and result["pass"] is False
    assert '"consistent": false' in capsys.readouterr().out


@st.composite
def instances_and_allocations(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    big = draw(st.booleans())
    top = 10**12 if big else 9
    denominators = (1, 2, 3, 10**13) if big else (1, 2, 3)
    rows = [
        [Fraction(draw(st.integers(0, top)), draw(st.sampled_from(denominators))) for _ in range(m)]
        for _ in range(n)
    ]
    owners = [draw(st.integers(-1, n - 1)) for _ in range(m)]
    bundles = [[g for g in range(m) if owners[g] == j] for j in range(n)]
    return Instance.from_rows(rows), Allocation.from_bundles(bundles, complete=-1 not in owners)


@settings(max_examples=300, deadline=None)
@given(instances_and_allocations())
def test_pair_factor_matches_fraction_pair_cap_and_fairness_report(drawn):
    instance, allocation = drawn
    pairs = [(i, j) for i in range(instance.n) for j in range(instance.n)]
    factors = {(i, j): pair_factor(instance, allocation, i, j) for i, j in pairs}
    assert factors == {(i, j): ref.pair_cap(instance, allocation, i, j) for i, j in pairs}
    assert all(type(f) is Fraction for f in factors.values())
    off_diagonal = [f for (i, j), f in factors.items() if i != j]
    assert min(off_diagonal, default=Fraction(1)) == fairness_report(instance, allocation).alpha_efx


def subcommand_option(command: str, dest: str):
    parser = cli._parser()
    subparsers = next(a for a in parser._actions if a.dest == "command")
    return next(a for a in subparsers.choices[command]._actions if a.dest == dest)


def test_cli_choices_come_from_the_table():
    assert tuple(subcommand_option("run", "alg").choices) == ALGORITHMS
    assert tuple(subcommand_option("adversary", "alg").choices) == ALGORITHMS
    assert tuple(subcommand_option("run", "blackbox").choices) == tuple(BLACKBOXES)


# Each algorithm's function, as bound in the harness module.
FUNCTIONS = {
    "round_robin": "round_robin",
    "rrla": "rrla",
    "virtual_efx": "virtual_efx",
    "prr": "prr",
    "match_freeze": "match_and_freeze",
    "mfrr": "mfrr",
    "two_query": "two_query_bivalued",
}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_runners_call_module_globals(algorithm):
    """Patching a harness global (as a tracer does) reaches every run."""
    instance = harness.generate_instance("bivalued", 3, 8, seed=2)
    name = FUNCTIONS[algorithm]
    with mock.patch.object(harness, name, wraps=getattr(harness, name)) as spy:
        harness.execute(instance, algorithm)
        if ALGORITHM_SPECS[algorithm].query_family:
            harness.adversary_query(2, 2, 3, algorithm, 2)
    assert spy.call_count == (2 if ALGORITHM_SPECS[algorithm].query_family else 1)


def test_blackboxes_are_looked_up_at_call_time():
    instance = harness.generate_instance("uniform", 3, 8, seed=2)
    spy = mock.Mock(wraps=BLACKBOXES["envy_cycle"])
    with mock.patch.dict(BLACKBOXES, {"envy_cycle": spy}):
        harness.execute(instance, "virtual_efx")
    assert spy.call_count == 1
