"""Metamorphic checks over every algorithm in the harness's table.

EFX and EF1 are unchanged when one agent's values are multiplied by c > 0,
and the paper's algorithms read only rankings and each agent's own answers.
So scaling one agent's row must leave the allocation, the (agent, good)
query sequence and the envy factors as they are, and scale that agent's
answers by c. Relabelling the goods of rows with distinct values must
relabel the allocation and the queried goods, wherever no tie-break reads a
good's index. No reference implementation is needed: these catch
comparisons across agents' scales and decisions that read good indices.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fraction_reference import fraction_rows
from efxlab import Allocation, FairDivisionError, Instance
from efxlab.harness import ALGORITHM_SPECS, RunRecord, execute

# Every algorithm with the options it is run under.
RUNS = [
    ("round_robin", {}),
    ("rrla", {}),
    ("virtual_efx", {"k": 1, "blackbox": "exact"}),
    ("virtual_efx", {"k": 2, "blackbox": "exact"}),
    ("virtual_efx", {"k": 1, "blackbox": "envy_cycle"}),
    ("virtual_efx", {"k": 2, "blackbox": "envy_cycle"}),
    ("prr", {"k": 1}),
    ("prr", {"k": 2}),
    ("prr", {"k": 3}),
    ("match_freeze", {}),
    ("mfrr", {}),
    ("two_query", {}),
]

# Runs that may change under a transformation, each with its cause.
SCALE_EXCEPTIONS = {
    ("virtual_efx", "envy_cycle"): "the black box orders goods by their largest value over all "
    "agents, a comparison across agents' scales",
}
RELABEL_EXCEPTIONS = {
    "prr": "a round visits the active agents by (index of their top good, agent index)",
    "virtual_efx": "the proxy's values tie within buckets and at zero, and ties break by good index",
}


def _id(run) -> str:
    algorithm, options = run
    return "-".join([algorithm, *map(str, options.values())])


def observe(instance: Instance, algorithm: str, options: dict):
    """The run record, or the class and message of the error it raised."""
    try:
        return execute(instance, algorithm, **options)
    except FairDivisionError as exc:
        return type(exc), str(exc)


@st.composite
def instances(draw, bivalued: bool, distinct: bool = False, max_m: int = 7):
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, max_m))
    if not bivalued:
        entry = st.integers(0, 60 if distinct else 20)
        rows = [draw(st.lists(entry, min_size=m, max_size=m, unique=distinct)) for _ in range(n)]
        return Instance.from_rows(rows)
    meta, rows = [], []
    for _ in range(n):
        h = draw(st.integers(2, 9))
        low = draw(st.integers(0, h - 1))
        meta.append((h, low))
        rows.append([h if high else low for high in draw(st.lists(st.booleans(), min_size=m, max_size=m))])
    return Instance.from_rows(rows, meta)


SCALED_RUNS = [r for r in RUNS if (r[0], r[1].get("blackbox")) not in SCALE_EXCEPTIONS]


@pytest.mark.parametrize("run", SCALED_RUNS, ids=map(_id, SCALED_RUNS))
@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    c=st.sampled_from([Fraction(1, 3), Fraction(7, 3), Fraction(5), Fraction(1, 20), Fraction(10**6 + 1, 7)]),
)
def test_scaling_one_agent_scales_only_her_answers(run, data, c):
    algorithm, options = run
    instance = data.draw(instances(ALGORITHM_SPECS[algorithm].bivalued))
    agent = data.draw(st.integers(0, instance.n - 1))
    rows = [list(row) for row in fraction_rows(instance)]
    rows[agent] = [v * c for v in rows[agent]]
    meta = instance.bivalued_meta
    if meta is not None:
        meta = [(h * c, low * c) if i == agent else (h, low) for i, (h, low) in enumerate(meta)]
    base = observe(instance, algorithm, options)
    scaled = observe(Instance.from_rows(rows, meta), algorithm, options)
    if not isinstance(base, RunRecord):
        assert scaled == base
        return
    assert scaled.allocation == base.allocation
    assert [(i, g) for i, g, _ in scaled.transcript] == [(i, g) for i, g, _ in base.transcript]
    assert [v for _, _, v in scaled.transcript] == [
        v * c if i == agent else v for i, _, v in base.transcript
    ]
    assert (scaled.alpha_efx, scaled.alpha_ef1) == (base.alpha_efx, base.alpha_ef1)
    assert scaled.bound == base.bound


# A bivalued row of three or more goods repeats a value, so the bivalued
# algorithms have no rows with distinct values to relabel.
RELABELLED_RUNS = [
    r for r in RUNS if r[0] not in RELABEL_EXCEPTIONS and not ALGORITHM_SPECS[r[0]].bivalued
]


@pytest.mark.parametrize("run", RELABELLED_RUNS, ids=map(_id, RELABELLED_RUNS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_relabelling_goods_relabels_the_run(run, data):
    algorithm, options = run
    instance = data.draw(instances(False, distinct=True, max_m=9))
    label = data.draw(st.permutations(range(instance.m)))
    rows = [[0] * instance.m for _ in range(instance.n)]
    for row, old in zip(rows, fraction_rows(instance)):
        for g, v in enumerate(old):
            row[label[g]] = v
    base = observe(instance, algorithm, options)
    relabelled = observe(Instance.from_rows(rows), algorithm, options)
    if not isinstance(base, RunRecord):
        assert relabelled == base
        return
    bundles = [[label[g] for g in bundle] for bundle in base.allocation.bundles]
    assert relabelled.allocation == Allocation.from_bundles(bundles, base.allocation.complete)
    assert relabelled.transcript == tuple((i, label[g], v) for i, g, v in base.transcript)
    assert (relabelled.alpha_efx, relabelled.alpha_ef1) == (base.alpha_efx, base.alpha_ef1)
