"""Differential tests of the integer value kernel against the pure-Fraction
reference in ``fraction_reference``: the stored integer form of an instance,
instance JSON in both directions, allocation validation, the adversarial
families, query answers, the algorithms' proxy instances, rankings, fairness reports,
every algorithm's run record, match-freeze rounds and the matching itself
must be identical, on both the int64 and the object-dtype paths."""

import dataclasses
import json
import math
import pickle
import random
import sys
from contextlib import ExitStack
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fraction_reference as ref
from efxlab import (
    Allocation,
    CompletenessError,
    DomainError,
    FairDivisionError,
    Instance,
    InvalidAllocation,
    OverlapError,
    QueryOracle,
    build_ranking,
    envy_cycle_heuristic,
    fairness_report,
    ordinal_lb_build,
    query_lb_build,
    validate,
)
from efxlab import core, elicitation, harness, query_enhanced
from efxlab.bivalued import MatchFreezeState, match_freeze_round, prioritized_max_matching
from efxlab.query_enhanced import bucketize, virtual_instance

# Values whose scaled rows overflow the int64 rule and take the object path.
BIG = 10**12


@st.composite
def values(draw, big: bool):
    """A non-negative rational, with denominators that differ within a row."""
    top = BIG if big else 12
    return Fraction(draw(st.integers(0, top)), draw(st.sampled_from((1, 1, 2, 3, 7, 10**13))))


@st.composite
def rational_rows(draw, bivalued_meta: bool = False, m_at_least_n: bool = False):
    """Rows of Fractions (and their (h, l) pairs, or None), n <= 4, m <= 10."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n if m_at_least_n else 1, 10))
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
    return rows, meta if bivalued_meta else None


@st.composite
def instances(draw, bivalued_meta: bool = False, m_at_least_n: bool = False):
    return Instance.from_rows(*draw(rational_rows(bivalued_meta, m_at_least_n)))


def integer_form(rows):
    """Each row times the LCM of its denominators, by Fraction arithmetic."""
    scales = [math.lcm(*(v.denominator for v in row)) for row in rows]
    return [[int(v * s) for v in row] for row, s in zip(rows, scales)], scales


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.data())
def test_from_scaled_equals_from_rows(bivalued_meta, data):
    rows, meta = data.draw(rational_rows(bivalued_meta))
    by_rows = Instance.from_rows(rows, meta)
    by_scaled = Instance.from_scaled(*integer_form(rows), meta)
    assert by_scaled == by_rows
    assert hash(by_scaled) == hash(by_rows)
    assert np.array_equal(by_scaled.scaled_values, by_rows.scaled_values)
    assert by_scaled.scaled_values.dtype == by_rows.scaled_values.dtype
    assert by_scaled.scaled_values.dtype == ref.scaled_rows(by_rows).dtype
    assert by_scaled.scales == by_rows.scales == tuple(integer_form(rows)[1])
    assert ref.fraction_rows(by_scaled) == tuple(map(tuple, rows))
    assert pickle.loads(pickle.dumps(by_scaled)) == by_rows


@settings(max_examples=200, deadline=None)
@given(rational_rows(), st.integers(0, 3), st.integers(2, 12))
def test_from_scaled_rejects_rows_not_in_lowest_terms(drawn, agent, factor):
    rows, scales = integer_form(drawn[0])
    agent %= len(rows)
    rows[agent] = [x * factor for x in rows[agent]]
    scales[agent] *= factor
    with pytest.raises(DomainError):
        Instance.from_scaled(rows, scales)


@settings(max_examples=200, deadline=None)
@given(st.booleans(), st.data())
def test_query_answers_equal_the_rationals(bivalued_meta, data):
    rows, meta = data.draw(rational_rows(bivalued_meta))
    oracle = QueryOracle(Instance.from_rows(rows, meta))
    for i, row in enumerate(rows):
        for g, v in enumerate(row):
            answer = oracle.query(i, g)
            assert answer == v and type(answer) is Fraction
    assert [v for _, _, v in oracle.transcript()] == [v for row in rows for v in row]


# At m = 1000, k = 1 puts the proxy on the object path and k = 2 on int64.
PROXY_10X1000 = harness.generate_instance("uniform", 10, 1000, seed=1)


@settings(max_examples=200, deadline=None)
@given(instances(m_at_least_n=True), st.integers(1, 3))
@example(PROXY_10X1000, 1)
@example(PROXY_10X1000, 2)
def test_virtual_instance_matches_fraction_rows(instance, k):
    oracle = QueryOracle(instance)
    virtuals = [bucketize(oracle, i, k) for i in range(instance.n)]
    proxy = virtual_instance(oracle, virtuals)
    expected = ref.virtual_instance(oracle, virtuals)
    assert proxy == expected
    assert proxy.scales == expected.scales
    assert proxy.scaled_values.dtype == expected.scaled_values.dtype


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
    stack.enter_context(mock.patch.object(harness, "match_and_freeze", ref.match_and_freeze))
    stack.enter_context(mock.patch.object(harness, "mfrr", ref.mfrr))
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
            # The record holds what the run saw: the rankings and every
            # answer, one per charged query.
            assert new.rankings == build_ranking(instance)
            assert elicitation.first_disagreement(instance, new.transcript) is None
            asked = [agent for agent, _, _ in new.transcript]
            assert [asked.count(i) for i in range(instance.n)] == new.query_counts


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


@pytest.mark.parametrize(
    "rows,bundles,complete",
    [
        ([[3, 1, 2]], [[0, 2]], False),  # n = 1, incomplete
        ([[3, 1, 2]], [[0, 1, 2]], True),  # n = 1
        ([[1, 2], [2, 1]], [[], []], False),  # every bundle empty
        ([[1, 2, 5], [2, 1, 0], [0, 0, 4]], [[], [0, 1], [2]], True),  # one empty bundle
        ([[5, 1, 1, 9], [1, 2, 3, 0]], [[0], [1, 2]], False),  # incomplete, raw ratio 5
        ([[1, 3, 3, 0], [2, 1, 1, 7]], [[0], [1, 2]], False),  # incomplete, factor 1/3
        ([[0, 0, 0, 0], [0, 1, 1, 1]], [[0], [1, 2, 3]], True),  # nobody values X_0
        # Ties: agent 0 values goods 1, 2, 3 of X_1 alike, so the binding
        # removed good is the lowest index, 1, for both EFX and EF1.
        ([[1, 4, 4, 4], [1, 1, 1, 1]], [[0], [3, 2, 1]], True),
        ([[1, 5, 2, 5, 2], [1, 1, 1, 1, 1]], [[0], [4, 3, 2, 1]], True),
        ([[Fraction(1, 3), 4, 4, Fraction(1, 2)], [BIG, 1, 1, 1]], [[0, 3], [2, 1]], True),
    ],
)
def test_fairness_report_edge_cases_match_reference(rows, bundles, complete):
    instance = Instance.from_rows(rows)
    allocation = Allocation.from_bundles(bundles, complete)
    assert fairness_report(instance, allocation) == ref.fairness_report(instance, allocation)


def test_fairness_report_binds_the_lowest_index_extreme_good():
    instance = Instance.from_rows([[1, 4, 4, 4, 2, 2], [1, 1, 1, 1, 1, 1]])
    allocation = Allocation.from_bundles([[0], [5, 3, 2, 1, 4]])
    report = fairness_report(instance, allocation)
    assert report.efx_binding == (0, 1, 4)  # goods 4 and 5 are the least
    assert report.ef1_binding == (0, 1, 1)  # goods 1-3 are the greatest
    assert report == ref.fairness_report(instance, allocation)


@st.composite
def envy_cycle_instances(draw):
    """n <= 12 and m <= 80 (n = 1 and m < n included), int64 or object
    rows, all on scale 1 or on mixed scales, with tied maxima, zero rows and
    zero columns likely."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 80))
    top = draw(st.sampled_from((1, 3, 50, BIG)))
    denominators = (1,) if draw(st.booleans()) else (1, 2, 3, 7, 10**13)
    zero_goods = draw(st.sets(st.integers(0, m - 1), max_size=m // 4))
    rows = []
    for _ in range(n):
        if draw(st.integers(0, 7)) == 0:
            rows.append([0] * m)
            continue
        den = draw(st.sampled_from(denominators))
        raw = draw(st.lists(st.integers(0, top), min_size=m, max_size=m))
        rows.append([0 if g in zero_goods else Fraction(x, den) for g, x in enumerate(raw)])
    return Instance.from_rows(rows)


def assert_envy_cycle_matches_references(instance):
    allocation = envy_cycle_heuristic(instance)
    assert allocation == ref.envy_cycle_heuristic(instance)
    assert allocation == ref.envy_cycle_integer(instance)


@settings(max_examples=300, deadline=None)
@given(envy_cycle_instances())
def test_envy_cycle_matches_reference(instance):
    assert_envy_cycle_matches_references(instance)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(("uniform", "bivalued")),
    st.integers(1, 12),
    st.integers(0, 68),
    st.integers(1, 3),
    st.integers(0, 10**6),
)
def test_envy_cycle_matches_reference_on_proxies(kind, n, extra, k, seed):
    """The ``virtual_efx`` proxies, the black box's real input."""
    oracle = QueryOracle(harness.generate_instance(kind, n, n + extra, seed=seed))
    virtuals = [bucketize(oracle, i, k) for i in range(n)]
    assert_envy_cycle_matches_references(virtual_instance(oracle, virtuals))


def test_envy_cycle_strategy_reaches_every_branch():
    """Both goods-order branches (one scale, mixed scales) and both dtypes."""
    seen = set()

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(envy_cycle_instances())
    def collect(instance):
        seen.add((len(set(instance.scales)) == 1, instance.scaled_values.dtype == object))

    collect()
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_envy_cycle_rotates_like_the_reference():
    instance = Instance.from_rows(
        [
            [0, 5, 2, 8, 2, 0, 4, 7],
            [0, 5, 3, 1, 6, 7, 9, 6],
            [0, 2, 3, 9, 6, 3, 0, 2],
            [6, 9, 0, 3, 3, 8, 8, 5],
        ]
    )
    assert_envy_cycle_matches_references(instance)
    assert ref.rotations >= 3
    assert envy_cycle_heuristic(instance).to_json() == {
        "bundles": [[3], [6, 7], [1, 2, 4], [0, 5]]
    }


@settings(max_examples=150, deadline=None)
@given(instances(bivalued_meta=True))
def test_match_freeze_rounds_match_reference(instance):
    meta = dict(enumerate(instance.bivalued_meta))
    rows = ref.fraction_rows(instance)
    high_goods = {i: [g for g, v in enumerate(rows[i]) if v == h] for i, (h, _) in meta.items()}
    new = MatchFreezeState.start(instance.n, instance.m, meta, high_goods)
    old = ref.round_state(instance.n, instance.m)
    agents = list(range(instance.n))
    while new.pool:
        match_freeze_round(new)
        ref.match_freeze_round(instance, agents, old)
        assert (new.pool, list(map(set, new.bundles)), new.freeze_counters, new.frozen_events) == (
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
    # Largest entries on both sides of the int8 and int16 ranges, and beyond:
    # a sort narrowed to the smallest width that holds them must not change
    # a ranking (255 and 65535 would wrap in a width one size too small).
    edges = [
        Instance.from_rows([[top, 0, top, 1, top - 1, 1], [3, top, 3, 0, 0, top]])
        for top in (127, 128, 255, 32767, 32768, 65535, 2**40)
    ]
    assert [instance.scaled_values.dtype for instance in edges] == [np.int64] * 6 + [object]
    plain = [
        Instance.from_rows([[5] * 6, [0] * 6]),  # all-equal rows
        Instance.from_rows([[2, 5, 5, 0, 5]]),  # n = 1
        Instance.from_rows([[4], [0], [4]]),  # m = 1
    ]
    for instance in [small, large, *edges, *plain]:
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


# ---- instance JSON, validation and the adversarial families ------------

# JSON values of every kind: plain integer text and ASCII "p/q" text (the
# fast paths), other text parse_value accepts or rejects, and non-text JSON
# values. Rows are all plain integer text, all "p" or "p/q" text (leading
# zeros and zero denominators included), or drawn from every kind.
plain_text = st.integers(0, 10**30).map(str)
digit_text = st.one_of(plain_text, st.integers(0, 99).map("{:04d}".format))
ratio_text = st.one_of(
    plain_text,
    st.builds("{}/{}".format, digit_text, st.one_of(st.just("0"), digit_text)),
    st.builds("{}/{}".format, st.integers(0, 40), st.sampled_from((1, 2, 3, 4, 6, 12, 10**13))),
)
json_values = st.one_of(
    plain_text,
    st.fractions(min_value=-5, max_value=10**6, max_denominator=10**4).map(str),
    ratio_text,
    st.sampled_from(
        ["", " 7", "7 ", "+3", "-0", "0007", "1_000", "1e3", "2.50", ".5", "3/0",
         "1 / 2", "1/-2", "1/2/3", "/2", "2/", "+1/2", "1/+2", "1/2 ", "\u0663", "\u00b2", "x", "nan", "inf", "True", "1" * 5000]
    ),
    st.text(max_size=3),
    st.integers(-5, 10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.just([1]),
)


def result_or_error(call, arg):
    """``call(arg)``, or the class of the exception it raised."""
    try:
        return call(arg)
    except Exception as exc:  # the classes must agree, whatever they are
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.lists(plain_text, max_size=4),
            st.lists(ratio_text, max_size=4),
            st.lists(json_values, max_size=4),
        ),
        max_size=3,
    ),
    st.sampled_from((0, 0, 0, -1, 1)),
    st.sampled_from((0, 0, 0, -1, 1)),
    st.sampled_from([None, None, None, [], [{"h": "2", "l": "1"}] * 3, [{"h": "1"}]]),
)
def test_from_json_accepts_and_rejects_like_parse_value(rows, dn, dm, bivalued):
    data = {"n": len(rows) + dn, "m": len(rows[0]) + dm if rows else 1, "values": rows}
    if bivalued is not None:
        data["bivalued"] = bivalued[: len(rows)]
    new = result_or_error(Instance.from_json, data)
    old = result_or_error(ref.instance_from_json, data)
    if isinstance(old, type):
        assert new is old
    else:
        assert new == old
        assert new.scales == old.scales
        assert new.scaled_values.dtype == old.scaled_values.dtype
        assert json.dumps(new.to_json()) == json.dumps(ref.instance_to_json(old))


@pytest.mark.parametrize(
    "entry", ["1/+2", "1/ 2", "1/-2", "1/2 ", " 1/2", "1/2_0", "1_0/2", "1/0", "0/0", "/2", "2/", "1//2",
              "1/2/3", "1/\u0662", "0x1/2", "1/2.0", "1.5/2", "+1/2"],
)
def test_from_json_ratio_text_edge_entries_match_parse_value(entry):
    data = {"n": 1, "m": 2, "values": [["3/4", entry]]}
    new = result_or_error(Instance.from_json, data)
    old = result_or_error(ref.instance_from_json, data)
    assert new == old if not isinstance(old, type) else new is old


@pytest.mark.parametrize("field", ["n", "m"])
@pytest.mark.parametrize("bad", [2.7, True, "2"], ids=["float", "bool", "text"])
def test_from_json_needs_json_integers_for_n_and_m(field, bad):
    shape = {"n": 2, "m": 2, field: int(bad)}
    data = {**shape, "values": [["1/2"] * shape["m"]] * shape["n"]}
    assert Instance.from_json(data) == ref.instance_from_json(data)
    data[field] = bad
    for parse in (Instance.from_json, ref.instance_from_json):
        with pytest.raises(DomainError, match="integer"):
            parse(data)


@pytest.mark.parametrize(
    "shape,values", [((2, 2), [["1", "2"], "34"]), ((2, 1), "12")], ids=["text-row", "text-values"]
)
def test_from_json_needs_json_arrays_for_values_and_rows(shape, values):
    data = {"n": shape[0], "m": shape[1], "values": values}
    for parse in (Instance.from_json, ref.instance_from_json):
        with pytest.raises(DomainError, match="array of arrays"):
            parse(data)


def test_from_json_reads_ratio_text_without_fractions():
    data = {"n": 2, "m": 3, "values": [["1/2", "3", "0004/6"], ["0", "0/5", "10/4"]]}
    with mock.patch.object(core, "parse_value", side_effect=AssertionError):
        instance = Instance.from_json(data)
    assert instance.scales == (6, 2)
    assert instance.scaled_values.tolist() == [[3, 18, 4], [0, 0, 5]]
    with pytest.raises(DomainError, match="not a rational value"):
        Instance.from_json({"n": 1, "m": 2, "values": [["1/2", "1/0"]]})


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.data())
def test_instance_json_is_byte_identical(bivalued_meta, data):
    instance = Instance.from_rows(*data.draw(rational_rows(bivalued_meta)))
    text = json.dumps(instance.to_json(), indent=2)
    assert text == json.dumps(ref.instance_to_json(instance), indent=2)
    assert Instance.loads(text) == ref.instance_from_json(json.loads(text)) == instance


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_validate_reports_the_lowest_bad_good(data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(1, 6))
    bundle_count = n if data.draw(st.integers(0, 9)) else data.draw(st.integers(0, 5))
    goods = st.one_of(st.integers(0, m - 1), st.integers(-3, m + 3), st.just(2**70))
    bundles = data.draw(
        st.lists(st.frozensets(goods, max_size=4), min_size=bundle_count, max_size=bundle_count)
    )
    allocation = Allocation(tuple(bundles), data.draw(st.booleans()))
    instance = Instance.from_rows([[1] * m] * n)
    new = result_or_error(lambda a: validate(instance, a), allocation)
    old = result_or_error(lambda a: ref.validate(instance, a), allocation)
    listed = [g for b in bundles for g in b]
    unknown = sorted(g for g in listed if not 0 <= g < m)
    repeated = sorted(g for g in set(listed) if listed.count(g) > 1)
    if len(bundles) != n or not (unknown and repeated):
        assert new is old
    if len(bundles) == n and unknown:
        assert new is InvalidAllocation
        with pytest.raises(InvalidAllocation, match=f"unknown good {unknown[0]}$"):
            validate(instance, allocation)
    elif len(bundles) == n and repeated:
        assert new is OverlapError
        with pytest.raises(OverlapError, match=f"^good {repeated[0]} "):
            validate(instance, allocation)
    assert new in (None, InvalidAllocation, OverlapError, CompletenessError)


@pytest.mark.parametrize("n", range(2, 7))
def test_ordinal_family_equals_fraction_rows(n):
    for m in range(n + 3, n + 12):
        family = ordinal_lb_build(n, m)
        case1, case2 = ref.ordinal_lb_cases(n, m)
        assert (family.case1, family.case2) == (case1, case2)
        assert family.case1.scaled_values.dtype == case1.scaled_values.dtype


@pytest.mark.parametrize("n", range(2, 6))
def test_query_family_equals_fraction_rows(n):
    built = 0
    for k in range(1, 5):
        for t in range(2, 6):
            try:
                family = query_lb_build(n, k, t)
            except DomainError:
                continue
            expected = ref.query_lb_revealed(n, k, t, family.top_value)
            assert family.revealed == expected
            assert family.revealed.scales == expected.scales
            assert family.revealed.scaled_values.dtype == expected.scaled_values.dtype
            built += 1
    assert built >= 5
