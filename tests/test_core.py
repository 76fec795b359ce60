import importlib
import json
import pickle
import re
import types
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraction_reference import fraction_rows
from helpers import retained_bytes, time_limit
import efxlab
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
    fairness_report,
    format_value,
    parse_value,
    round_robin,
    validate,
)
from efxlab.core import _matrix_dtype, trivial_few_goods_allocation
from efxlab.harness import generate_instance


def inst(rows, meta=None):
    return Instance.from_rows(rows, meta)


# ---- rankings ----------------------------------------------------------


def test_ranking_tie_break_by_index():
    assert build_ranking(inst([[5, 5, 3]]))[0] == (0, 1, 2)


def test_ranking_strict_reversal():
    assert build_ranking(inst([[1, 2, 3]]))[0] == (2, 1, 0)


def test_ranking_all_ties():
    assert build_ranking(inst([[0, 0, 0]]))[0] == (0, 1, 2)


def test_ranking_built_once_per_instance():
    instance = inst([[1, 3, 2], [2, 2, 2]])
    assert build_ranking(instance) is build_ranking(instance)
    # An equal instance built apart ranks the same goods the same way.
    assert build_ranking(inst([[1, 3, 2], [2, 2, 2]])) == build_ranking(instance)


@pytest.mark.parametrize(
    "instance",
    [
        generate_instance("uniform", 20, 2000, seed=1),
        inst([[10**12 + g % 7 for g in range(300)]] * 2),
    ],
    ids=["narrow", "object"],
)
def test_rankings_share_one_int_per_good(instance):
    rankings = build_ranking(instance)
    goods = {g: g for g in rankings[0]}
    assert all(g is goods[g] for ranking in rankings for g in ranking)


def test_ranking_cache_is_small():
    # One int object per good and n tuples of pointers: about 0.36 MB here,
    # against 1.37 MB with a fresh int per (agent, good) entry.
    instance = generate_instance("uniform", 20, 2000, seed=1)
    assert retained_bytes(lambda: build_ranking(instance)) < 0.6 * 2**20


def test_generated_instance_is_small():
    # 40,000 int8 values and the instance around them: about 42 KB here,
    # against 322 KB when every value took an int64.
    assert retained_bytes(lambda: generate_instance("uniform", 20, 2000, seed=1)) < 80_000


WIDTHS = (np.int8, np.int16, np.int32)


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        st.integers(0, 2**70),
        st.sampled_from([2**b + d for b in (7, 15, 31, 62) for d in (-1, 0, 1)]),
    ),
    st.integers(1, 10**8),
)
def test_matrix_dtype_is_never_int64(top, m):
    dtype = _matrix_dtype(top, m)
    if (top * m) ** 2 >= 2**62:
        assert dtype is object
        return
    # The narrowest of the three widths that holds top.
    assert dtype in WIDTHS
    index = WIDTHS.index(dtype)
    assert top <= np.iinfo(dtype).max
    assert index == 0 or top > np.iinfo(WIDTHS[index - 1]).max


def test_allocation_is_small():
    # Sorted tuples of the ranking's ints: about 17 KB here, against 85 KB
    # with a frozenset per bundle.
    oracle = QueryOracle(generate_instance("uniform", 20, 2000, seed=1))
    assert retained_bytes(lambda: round_robin(oracle)) < 40_000


# ---- EFX / EF1 metric -------------------------------------------------


def test_singletons_are_efx():
    i = inst([[1, 1], [1, 1]])
    a = Allocation.from_bundles([[0], [1]])
    assert fairness_report(i, a).alpha_efx == 1


def test_efx_worst_removal_example():
    i = inst([[3, 1, 1], [3, 1, 1]])
    a = Allocation.from_bundles([[1], [0, 2]])
    rep = fairness_report(i, a)
    # Agent 0 owns value 1; worst removal from {g0, g2} leaves 3.
    assert rep.alpha_efx == Fraction(1, 3)
    assert rep.efx_binding == (0, 1, 2)
    # Best removal leaves 1, so EF1 holds with factor 1.
    assert rep.alpha_ef1 == 1


def test_all_ones_last_agent_holds_rest():
    # n - 1 singletons, the last agent takes the remaining m - n + 1 goods.
    n, m = 3, 6
    i = inst([[1] * m] * n)
    a = Allocation.from_bundles([[0], [1], [2, 3, 4, 5]])
    assert fairness_report(i, a).alpha_efx == Fraction(1, m - n)


def test_empty_envied_bundle_skipped():
    # Partial allocation: the pair looking at the empty bundle is vacuous,
    # and the singleton pair's denominator is zero after removal.
    i = inst([[3, 1], [3, 1]])
    a = Allocation.from_bundles([[0], []], complete=False)
    rep = fairness_report(i, a)
    assert rep.alpha_efx == 1 and rep.alpha_ef1 == 1


def test_zero_denominator_unconstraining():
    # Envied bundle worth 0 after worst removal imposes nothing.
    i = inst([[0, 0, 5], [5, 5, 5]])
    a = Allocation.from_bundles([[2], [0, 1]])
    assert fairness_report(i, a).alpha_efx == 1


def test_raw_ratio_uncapped():
    i = inst([[5, 1, 1], [5, 1, 1]])
    a = Allocation.from_bundles([[0], [1, 2]])
    assert fairness_report(i, a).alpha_efx == 1


# ---- validation -------------------------------------------------------


def test_validate_ok():
    validate(inst([[1, 1], [1, 1]]), Allocation.from_bundles([[0], [1]]))


def test_validate_overlap():
    with pytest.raises(OverlapError):
        validate(
            inst([[1, 1], [1, 1]]),
            Allocation((frozenset([0]), frozenset([0])), complete=False),
        )


def test_validate_completeness_mismatch():
    with pytest.raises(CompletenessError):
        validate(
            inst([[1, 1], [1, 1]]),
            Allocation.from_bundles([[0], []], complete=True),
        )
    with pytest.raises(CompletenessError):
        validate(
            inst([[1, 1], [1, 1]]),
            Allocation.from_bundles([[0], [1]], complete=False),
        )


def test_validate_bundle_count():
    with pytest.raises(InvalidAllocation, match="expected 2 bundles, got 3"):
        validate(inst([[1, 1], [1, 1]]), Allocation.from_bundles([[0], [1], []]))


@pytest.mark.parametrize(
    "bundles,message",
    [([[0, 4], [1, 3, 2]], "bundle 1 references unknown good 2"),
     ([[0, 7], [1, -1]], "bundle 1 references unknown good -1"),
     ([[-3, 5], [1, -1]], "bundle 0 references unknown good -3")],
    ids=["beyond-m", "negative", "lowest-of-several"],
)
def test_validate_reports_the_lowest_unknown_good(bundles, message):
    allocation = Allocation.from_bundles(bundles, complete=False)
    with pytest.raises(InvalidAllocation, match=f"^{message}$"):
        validate(inst([[1, 1], [1, 1]]), allocation)


@pytest.mark.parametrize(
    "build,message",
    [(lambda: Allocation.from_json({"bundles": [[0, 10**5000], [1]]}, m=2),
      "bundle 0 references unknown good a number of over 4,300 digits"),
     (lambda: Allocation.from_bundles([[-(10**5000), 0], [1]]),
      "bundle 0 references unknown good a number of over 4,300 digits"),
     (lambda: Allocation.from_bundles([[0, "x"], [1]]), "good 'x' is not an integer"),
     (lambda: Allocation.from_bundles([[0, 1.0], [1]]), "good 1.0 is not an integer"),
     (lambda: Allocation.from_bundles([[0], [True]]), "good True is not an integer"),
     (lambda: Allocation((0, 1), True), "bundles must be collections of goods")],
    ids=["huge-good", "huge-negative-good", "text-good", "float-good", "bool-good", "int-bundle"],
)
def test_bad_goods_are_invalid_allocations(build, message):
    with pytest.raises(InvalidAllocation, match=f"^{re.escape(message)}$"):
        validate(inst([[1, 1], [1, 1]]), build())


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
def test_a_good_past_the_digit_limit_fails_when_the_allocation_is_built(sign):
    for build in (Allocation.from_bundles, lambda b: Allocation.from_json({"bundles": b}, 3)):
        with pytest.raises(InvalidAllocation, match="^bundle 1 references unknown good a number"):
            build([[0], [1, sign * 10**4300]])
    largest = Allocation.from_bundles([[0], [1, sign * (10**4300 - 1)]])
    assert Allocation.from_json(json.loads(json.dumps(largest.to_json())), 3) == largest


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 9), max_size=6), min_size=1, max_size=4), st.booleans())
def test_allocation_has_one_canonical_form(bundles, complete):
    canonical = tuple(tuple(sorted(set(b))) for b in bundles)
    forms = (
        bundles,
        [set(b) for b in bundles],
        tuple(map(frozenset, bundles)),
        [b[::-1] + b for b in bundles],  # unsorted, every good twice
        canonical,
    )
    for form in forms:
        for allocation in (Allocation(form, complete), Allocation.from_bundles(form, complete)):
            assert allocation.bundles == canonical
            assert type(allocation.bundles) is tuple
            assert all(type(b) is tuple for b in allocation.bundles)
            assert allocation == Allocation(canonical, complete)
            assert hash(allocation) == hash(Allocation(canonical, complete))
    goods = list(chain(*bundles))
    if len(set(goods)) == len(goods):  # JSON allows no good twice
        m = len(goods) if complete else len(goods) + 1
        assert Allocation.from_json({"bundles": bundles}, m) == Allocation(canonical, complete)


def test_instance_invariants():
    with pytest.raises(DomainError):
        Instance.from_rows([[Fraction(-1)]])
    with pytest.raises(DomainError):
        Instance.from_json({"n": 2, "m": 2, "values": [["1"]]})  # wrong shape
    with pytest.raises(DomainError):
        # meta value not matching the matrix
        Instance.from_rows([[1, 3]], [(Fraction(3), Fraction(2))])
    with pytest.raises(DomainError):
        # h must exceed l
        Instance.from_rows([[1, 1]], [(Fraction(1), Fraction(1))])


# ---- serialization ----------------------------------------------------


def test_value_round_trip():
    assert parse_value("3/7") == Fraction(3, 7)
    assert parse_value("0.25") == Fraction(1, 4)
    assert format_value(Fraction(3, 7)) == "3/7"
    assert format_value(Fraction(4)) == "4"
    with pytest.raises(DomainError):
        parse_value("-1")
    for text in ("abc", "1/0", "", "1/2/3"):
        with pytest.raises(DomainError):
            parse_value(text)


@pytest.mark.parametrize(
    "text",
    ["1e4300", "1.5e-4300", "12e4299", "1e4301", "1E-4301", "2.5e+1_000_000", " 1e99999 ",
     "1e1000000000", "1e-1000000000"],
)
def test_values_beyond_the_digit_limit_are_rejected_before_the_power(text):
    data = {"n": 1, "m": 2, "values": [["1", text]]}
    readers = (parse_value, lambda t: Instance.from_rows([[1, t]]), lambda t: Instance.from_json(data),
               lambda t: Instance.from_rows([[1, 2]], [(t, 1)]))
    for read in readers:
        with time_limit(2), pytest.raises(DomainError, match=re.escape(f"not a rational value: {text!r}")):
            read(text)


def test_values_up_to_the_digit_limit_are_read():
    assert parse_value("9e4299") == 9 * 10**4299
    assert parse_value("3E-0_4299") == Fraction(3, 10**4299)
    assert parse_value("0.001e4300") == 10**4297
    instance = Instance.from_rows([["1e4299", "2"]])
    assert instance.scaled_values.tolist() == [[10**4299, 2]]
    top = 10**4300 - 1  # the largest Python int an entry or scale may be
    for instance in (
        instance, Instance.from_rows([[top, 1]]), Instance.from_scaled([[1, 2]], [top])
    ):
        assert Instance.loads(instance.dumps()) == instance


def test_python_ints_beyond_the_digit_limit_are_not_printed():
    for value in (10**5000, -(10**5000), Fraction(1, 10**5000)):
        with pytest.raises(DomainError, match="^not a rational value: a number of over 4,300 digits"):
            parse_value(value)
    with pytest.raises(DomainError, match="^row 0: scale a number of over 4,300 digits is not"):
        Instance.from_scaled([[1]], [-(10**5000)])


@pytest.mark.parametrize(
    "build",
    [
        lambda: Instance.from_rows([[10**5000, 1]]),
        lambda: Instance.from_rows([[1, Fraction(10**4300, 3)]]),
        lambda: Instance.from_rows([[Fraction(1, 10**5000)]]),
        lambda: Instance.from_rows([[1, Fraction(1, 10**4300)]]),
        lambda: Instance.from_scaled([[10**5000, 1]], [1]),
        lambda: Instance.from_scaled([[10**4300, 1]], [1]),
        lambda: Instance.from_scaled([[1, 2]], [10**4300 + 1]),
        lambda: Instance.from_scaled([[2, 2]], [2 * 10**4300]),  # not in lowest terms either
        lambda: Instance.from_rows([[1, 1]], [(10**5000, 1)]),
        lambda: Instance.from_scaled([[2, 2]], [1], [(2, Fraction(1, 10**4300))]),
    ],
    ids=["int-entry", "fraction-entry", "fraction-scale", "boundary-scale",
         "scaled-entry", "boundary-entry", "scaled-scale", "scaled-scale-gcd", "unused-h",
         "unused-l"],
)
def test_values_beyond_the_digit_limit_are_rejected_on_every_path(build):
    with pytest.raises(DomainError, match="must be below 10\\*\\*4300"):
        build()


def test_from_rows_without_agents_is_a_domain_error():
    with pytest.raises(DomainError):
        Instance.from_rows([])


@pytest.mark.parametrize(
    "rows, meta",
    [
        ([["x"]], None),
        ([[None]], None),
        ([["1/0"]], None),
        ([[float("nan")]], None),
        ([[float("inf")]], None),
        ([[1, 2]], [("high", 1)]),
        ([[1, 2]], [(2, None)]),
        ([[1, 2]], [(2,)]),
        ([[1, 2]], [2]),
    ],
)
def test_from_rows_unparsable_entries_are_domain_errors(rows, meta):
    with pytest.raises(DomainError):
        Instance.from_rows(rows, meta)


def test_from_rows_keeps_floats_exact():
    instance = Instance.from_rows([[0.1, "1/3", 2]])
    (row,) = fraction_rows(instance)
    assert row == (Fraction(0.1), Fraction(1, 3), Fraction(2))
    assert row[0] != Fraction(1, 10)


def test_from_rows_int_rows_are_stored_as_given():
    instance = Instance.from_rows([[3, 0, 7], [1, 1, 2]])
    assert instance.scales == (1, 1)
    assert instance.scaled_values.tolist() == [[3, 0, 7], [1, 1, 2]]
    assert instance == Instance.from_rows([[Fraction(3), 0, "7"], [1, 1.0, 2]])


@pytest.mark.parametrize(
    "rows, scales",
    [
        ([[1, 2]], (1, 1)),  # one scale per row
        ([[1, 2], [3]], (1, 1)),  # ragged
        ([[1, -2]], (1,)),  # negative
        ([[1, -(2**70)]], (1,)),  # negative, beyond int64
        ([[2**70, -1]], (1,)),
        ([[1, 2.0]], (1,)),  # not an int
        ([[1, True]], (1,)),
        ([[1, 2]], (0,)),  # scale not positive
        ([[1, 2]], (2.0,)),
        ([[2, 4]], (2,)),  # not in lowest terms
        ([[0, 0]], (3,)),
        ([[]], (1,)),
    ],
)
def test_from_scaled_validates_on_integers(rows, scales):
    with pytest.raises(DomainError):
        Instance.from_scaled(rows, scales)


def test_from_scaled_checks_bivalued_membership():
    # 3/2 and 1/2 on scale 2: entries must be 3 or 1.
    meta = [(Fraction(3, 2), Fraction(1, 2))]
    assert fraction_rows(Instance.from_scaled([[3, 1, 3]], (2,), meta))[0][1] == Fraction(1, 2)
    with pytest.raises(DomainError, match="value 1 is neither"):
        Instance.from_scaled([[3, 2, 1]], (2,), meta)


def test_equality_compares_the_rationals():
    half_and_one = Instance.from_scaled([[1, 2]], (2,))
    assert half_and_one == inst([[Fraction(1, 2), 1]])
    assert half_and_one != Instance.from_scaled([[1, 2]], (1,))  # same matrix
    assert half_and_one != Instance.from_scaled([[1, 2]], (3,))
    assert half_and_one != Instance.from_scaled([[1, 4]], (2,))  # same scale
    assert half_and_one != inst([[Fraction(1, 2), 1]], [(1, Fraction(1, 2))])
    assert len({half_and_one, inst([[Fraction(1, 2), 1]]), inst([[1, 2]])}) == 2


def test_instance_is_immutable_and_round_trips():
    instance = inst([[1, Fraction(1, 2)], [3, 1]], [(Fraction(1), Fraction(1, 2)), (3, 1)])
    with pytest.raises(AttributeError):
        instance.n = 3
    with pytest.raises(ValueError):
        instance.scaled_values[0, 0] = 5
    assert eval(repr(instance), {"Instance": Instance, "Fraction": Fraction}) == instance
    assert pickle.loads(pickle.dumps(instance)) == instance
    assert hash(pickle.loads(pickle.dumps(instance))) == hash(instance)


@pytest.mark.parametrize(
    "entry,value",
    [("2", Fraction(2)), ("1e2", Fraction(100)), ('"0.5"', Fraction(1, 2)), ("0.1", Fraction(1, 10))],
    ids=["json-int", "json-exponent", "decimal-text", "json-float"],
)
def test_from_json_reads_other_entries_by_parse_value(entry, value):
    instance = Instance.loads(f'{{"n": 1, "m": 2, "values": [["1/3", {entry}]]}}')
    assert fraction_rows(instance) == ((Fraction(1, 3), value),)


def test_json_float_reads_as_its_decimal_but_from_rows_keeps_it_binary():
    loaded = Instance.loads('{"n": 1, "m": 1, "values": [[0.1]]}')
    assert fraction_rows(loaded)[0][0] == Fraction(1, 10)
    assert fraction_rows(Instance.from_rows([[0.1]]))[0][0] == Fraction(0.1) != Fraction(1, 10)


@pytest.mark.parametrize(
    "entry,message",
    [('"-1"', "negative value"), ("-1", "negative value"), ("null", "not a rational value"),
     ("true", "not a rational value")],
    ids=["negative-text", "negative-number", "null", "bool"],
)
def test_from_json_rejects_other_entries_by_parse_value(entry, message):
    with pytest.raises(DomainError, match=message):
        Instance.loads(f'{{"n": 1, "m": 2, "values": [["1", {entry}]]}}')


# Value texts of every shape Fraction parses, with exponents far beyond the
# digit limit, and junk; entries are JSON strings or raw JSON tokens.
_signs = st.sampled_from(["", "+", "-"])
_digits = st.integers(0, 10**12).map(str)
value_text = st.one_of(
    _digits,
    st.builds("{}/{}".format, _digits, _digits),
    st.builds("{}{}.{}".format, _signs, _digits, _digits),
    st.builds("{}{}{}{}{}".format, _signs, _digits, st.sampled_from("eE"), _signs,
              st.one_of(st.integers(0, 5000), st.integers(0, 10**7)).map(str)),
    st.sampled_from(["1" * 5000, "0." + "1" * 5000, "1e4_3_0_0", "1e0004301", "1_0", " 2 ", "nan", "inf"]),
    st.text(max_size=6),
)
json_entry = st.one_of(
    value_text.map(json.dumps),
    st.sampled_from(["1e1000000000", "1" * 5000, "-1", "2.5e-7", "null", "true", "[]", "{}"]),
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(json_entry, min_size=1, max_size=3), min_size=1, max_size=3),
    st.lists(st.tuples(json_entry, json_entry), max_size=3),
    st.integers(0, 200),
)
def test_instance_loads_reads_or_rejects_every_value_text_quickly(rows, meta, cut):
    text = '{"n": %d, "m": %d, "values": [%s]%s}' % (
        len(rows),
        len(rows[0]),
        ", ".join("[" + ", ".join(row) + "]" for row in rows),
        ', "bivalued": [%s]' % ", ".join('{"h": %s, "l": %s}' % e for e in meta) if meta else "",
    )
    for source in (text, text[:cut]):
        with time_limit(2):
            try:
                assert isinstance(Instance.loads(source), Instance)
            except FairDivisionError:
                pass


def test_instance_json_round_trip():
    i = inst([[1, Fraction(1, 2)], [3, 1]], [(Fraction(1), Fraction(1, 2)), (Fraction(3), Fraction(1))])
    assert Instance.loads(i.dumps()) == i


def test_allocation_json_round_trip():
    a = Allocation.from_bundles([[0, 2], [1]])
    data = json.loads(json.dumps(a.to_json()))
    assert Allocation.from_json(data, m=3) == a


# JSON-like values: ints of every size (bools too), floats, text, None,
# and nested lists and objects of them.
_json_like = st.recursive(
    st.one_of(
        st.integers(-3, 12),
        st.integers(),
        st.sampled_from([4300, 5000]).map(lambda d: 10**d),
        st.sampled_from([4300, 5000]).map(lambda d: -(10**d)),
        st.sampled_from([2**63, -(2**63) - 1, True, False, None]),
        st.floats(),
        st.text(max_size=3),
    ),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.builds(lambda b: {"bundles": b}, st.lists(st.lists(_json_like, max_size=4), max_size=4)),
        st.builds(lambda b: {"bundles": [b, b]}, st.lists(_json_like, max_size=3)),  # overlaps
        st.builds(lambda b: {"bundles": b}, _json_like),
        _json_like,
    ),
    st.one_of(st.integers(0, 12), _json_like),
)
def test_allocation_from_json_reads_or_rejects_every_value_quickly(data, m):
    with time_limit(2):
        try:
            allocation = Allocation.from_json(data, m)
        except FairDivisionError:
            return
        for bundle in allocation.bundles:
            assert type(bundle) is tuple and all(type(g) is int for g in bundle)
            assert list(bundle) == sorted(set(bundle))
        assert Allocation.from_json(json.loads(json.dumps(allocation.to_json())), m) == allocation


def test_allocation_json_completeness_comes_from_m():
    instance = inst([[1, 2], [2, 1]])
    full = Allocation.from_json({"bundles": [[0], [1]]}, 2)
    assert full.complete
    assert fairness_report(instance, full) == fairness_report(
        instance, Allocation.from_bundles([[0], [1]])
    )
    partial = Allocation.from_json({"bundles": [[0], []]}, 2)
    assert not partial.complete
    assert fairness_report(instance, partial).alpha_efx == 1
    with pytest.raises(TypeError):
        Allocation.from_json({"bundles": [[0], [1]]})  # m is required


def test_trivial_few_goods():
    a = trivial_few_goods_allocation(4, 2)
    assert [sorted(b) for b in a.bundles] == [[0], [1], [], []]
    i = inst([[5, 1]] * 4)
    assert fairness_report(i, a).alpha_efx == 1


# ---- properties -------------------------------------------------------

values_strategy = st.integers(min_value=0, max_value=12)


@st.composite
def random_case(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    m = draw(st.integers(min_value=2, max_value=7))
    rows = [[Fraction(draw(values_strategy)) for _ in range(m)] for _ in range(n)]
    owners = [draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(m)]
    bundles = [set() for _ in range(n)]
    for g, o in enumerate(owners):
        bundles[o].add(g)
    return Instance.from_rows(rows), Allocation.from_bundles(bundles)


@settings(max_examples=200, deadline=None)
@given(random_case())
def test_efx_at_most_ef1(case):
    instance, allocation = case
    rep = fairness_report(instance, allocation)
    assert 0 <= rep.alpha_efx <= rep.alpha_ef1 <= 1


@settings(max_examples=100, deadline=None)
@given(random_case(), st.integers(min_value=1, max_value=9))
def test_efx_scale_invariant(case, scale):
    instance, allocation = case
    first, *rest = fraction_rows(instance)
    scaled = Instance.from_rows([[v * scale for v in first], *rest])
    assert (
        fairness_report(scaled, allocation).alpha_efx
        == fairness_report(instance, allocation).alpha_efx
    )


@settings(max_examples=100, deadline=None)
@given(random_case())
def test_binding_pair_reproduces_alpha(case):
    instance, allocation = case
    rep = fairness_report(instance, allocation)
    if rep.efx_binding is None:
        assert rep.alpha_efx == 1
        return
    i, j, g = rep.efx_binding
    row = fraction_rows(instance)[i]
    own = sum(row[x] for x in allocation.bundles[i])
    den = sum(row[x] for x in allocation.bundles[j]) - row[g]
    assert row[g] == min(row[x] for x in allocation.bundles[j])
    assert rep.alpha_efx == min(Fraction(1), own / den)


def test_all_names_resolve_and_hold_no_module():
    for name in efxlab.__all__:
        assert not isinstance(getattr(efxlab, name), types.ModuleType), name
    assert len(set(efxlab.__all__)) == len(efxlab.__all__)


@pytest.mark.parametrize(
    "module,name",
    [("bivalued", "match_freeze_round"), ("bivalued", "MatchFreezeState"),
     ("bivalued", "prioritized_max_matching"), ("bivalued", "discover_transition"),
     ("bivalued", "TransitionInfo"), ("query_enhanced", "bucketize"),
     ("query_enhanced", "bucket_thresholds"), ("query_enhanced", "virtual_instance"),
     ("core", "trivial_few_goods_allocation"), ("enclosures", "nth_root_enclosure"),
     ("enclosures", "pow_enclosure"), ("enclosures", "sqrt_enclosure")],
)
def test_internal_steps_import_from_their_modules(module, name):
    assert name not in efxlab.__all__
    assert getattr(importlib.import_module(f"efxlab.{module}"), name) is not None
