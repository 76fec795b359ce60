import random
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fraction_reference as ref
from efxlab import (
    Allocation,
    Instance,
    QueryOracle,
    TooLarge,
    best_alpha_bruteforce,
    envy_cycle_heuristic,
    exact_efx_bruteforce,
    fairness_report,
    fullinfo,
    harness,
)
from efxlab.query_enhanced import bucketize, virtual_instance


def inst(rows, meta=None):
    return Instance.from_rows(rows, meta)


def reference_best_alpha(instance):
    """Independent oracle: pure-Python enumeration with Fractions."""
    n, m = instance.n, instance.m
    best = Fraction(-1)
    for owners in product(range(n), repeat=m):
        bundles = [set() for _ in range(n)]
        for g, o in enumerate(owners):
            bundles[o].add(g)
        a = Allocation.from_bundles(bundles)
        alpha = fairness_report(instance, a).alpha_efx
        best = max(best, alpha)
    return best


def random_instance(rng, n, m, top=9):
    return inst([[Fraction(rng.randint(0, top)) for _ in range(m)] for _ in range(n)])


def direct_own_envy(instance, index):
    """v_i(X_i) and the largest v_i(X_j) - min v_i(X_j) over nonempty X_j, j != i
    (None when every other bundle is empty), for one assignment index."""
    n, m = instance.n, instance.m
    rows = instance.scaled_values.tolist()
    owners = [(index // n ** (m - 1 - g)) % n for g in range(m)]
    bundles = [[g for g in range(m) if owners[g] == j] for j in range(n)]
    own = [sum(rows[i][g] for g in bundles[i]) for i in range(n)]
    envy = [
        max(
            (sum(rows[i][g] for g in b) - min(rows[i][g] for g in b)
             for j, b in enumerate(bundles) if j != i and b),
            default=None,
        )
        for i in range(n)
    ]
    return own, envy


def test_enumeration_counts():
    """The blocks cover each of the n**m assignment indices once, in order."""
    for n, m in [(1, 3), (3, 4), (2, 5), (4, 2)]:
        instance = random_instance(random.Random(n * 10 + m), n, m)
        for block in (1, 5, 4096):
            with mock.patch.object(fullinfo, "_BLOCK", block):
                blocks = list(fullinfo._envy_blocks(instance))
            index = 0
            for start, own, envy in blocks:
                assert start == index
                assert own.shape == envy.shape and own.shape[0] == n
                assert own.shape[1] <= block
                for k in range(own.shape[1]):
                    want_own, want_envy = direct_own_envy(instance, start + k)
                    assert own[:, k].tolist() == want_own
                    for i, e in enumerate(want_envy):
                        assert envy[i, k] < 0 if e is None else envy[i, k] == e
                index += own.shape[1]
            assert index == n**m


def test_exact_trivial():
    a = exact_efx_bruteforce(inst([[1, 1], [1, 1]]))
    assert a is not None
    assert fairness_report(inst([[1, 1], [1, 1]]), a).alpha_efx == 1


def test_best_alpha_trivial():
    alpha, a = best_alpha_bruteforce(inst([[1, 1], [1, 1]]))
    assert alpha == 1
    assert all(len(b) == 1 for b in a.bundles)


def test_best_alpha_sparse_family():
    # One valuable good: give it away as a singleton, the rest are worthless.
    i = inst([[1, 0, 0, 0, 0]] * 2)
    alpha, a = best_alpha_bruteforce(i)
    assert alpha == 1


def test_best_alpha_matches_reference():
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(2, 3)
        m = rng.randint(2, 5)
        instance = random_instance(rng, n, m)
        fast, witness = best_alpha_bruteforce(instance)
        assert fairness_report(instance, witness).alpha_efx == fast
        assert fast == reference_best_alpha(instance)


def test_exact_iff_best_is_one():
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(2, 3)
        m = rng.randint(2, 6)
        instance = random_instance(rng, n, m, top=4)
        found = exact_efx_bruteforce(instance)
        best, _ = best_alpha_bruteforce(instance)
        assert (found is not None) == (best == 1)
        if found is not None:
            assert fairness_report(instance, found).alpha_efx == 1


def test_zero_good_duplication_monotone():
    rng = random.Random(31)
    for _ in range(10):
        instance = random_instance(rng, 2, 4)
        base, _ = best_alpha_bruteforce(instance)
        extended = inst([list(r) + [Fraction(0)] for r in ref.fraction_rows(instance)])
        bigger, _ = best_alpha_bruteforce(extended)
        assert bigger >= base


def test_guard():
    with pytest.raises(TooLarge):
        exact_efx_bruteforce(inst([[1] * 40] * 4))


def test_guard_raises_before_any_table():
    untouched = mock.Mock(side_effect=AssertionError("table built"))
    with mock.patch.object(fullinfo, "_bundle_tables", untouched):
        for oracle in (exact_efx_bruteforce, best_alpha_bruteforce):
            with pytest.raises(TooLarge):
                oracle(inst([[1] * 40] * 4))
    untouched.assert_not_called()


def test_fractional_values_scaled_exactly():
    i = inst([[Fraction(1, 3), Fraction(1, 2)], [Fraction(1, 7), Fraction(2, 7)]])
    alpha, witness = best_alpha_bruteforce(i)
    assert alpha == reference_best_alpha(i)


def test_envy_cycle_trace():
    i = inst([[4, 3, 2, 1], [4, 3, 2, 1]])
    a = envy_cycle_heuristic(i)
    assert a.complete
    assert fairness_report(i, a).alpha_ef1 == 1
    assert {tuple(sorted(b)) for b in a.bundles} == {(0, 3), (1, 2)}


def test_envy_cycle_all_zero():
    i = inst([[0, 0, 0], [0, 0, 0]])
    a = envy_cycle_heuristic(i)
    assert a.complete
    assert fairness_report(i, a).alpha_efx == 1


def test_envy_cycle_always_ef1():
    rng = random.Random(37)
    for _ in range(300):
        n = rng.randint(2, 5)
        m = rng.randint(2, 20)
        instance = random_instance(rng, n, m, top=15)
        a = envy_cycle_heuristic(instance)
        assert a.complete
        assert fairness_report(instance, a).alpha_ef1 == 1


# Differential tests against the chunked oracles in ``fraction_reference``.
# Value regimes: fixed-width (int8 to int32) rows; object rows whose bundle
# sums still fit int64; rows so wide that the sums are Python integers.
REGIMES = {"narrow": 12, "object_int64_sums": 2**55, "wide": 2**97}


def proxy(instance, k):
    """The virtual instance that virtual_efx hands to its black box."""
    oracle = QueryOracle(instance)
    return virtual_instance(oracle, [bucketize(oracle, i, k) for i in range(instance.n)])


def regime_of(instance):
    top = int(instance.scaled_values.max()) * instance.m
    if instance.scaled_values.dtype != object:
        return "narrow"
    return "object_int64_sums" if top < 2**62 else "wide"


@st.composite
def oracle_instances(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 7 if n < 3 else 5))
    top = REGIMES[draw(st.sampled_from(sorted(REGIMES)))]
    shape = draw(st.sampled_from(("random", "zero_rows", "all_zero")))
    rows = []
    for _ in range(n):
        if shape == "all_zero" or (shape == "zero_rows" and draw(st.booleans())):
            rows.append([0] * m)
        else:
            rows.append([draw(st.integers(0, top)) for _ in range(m)])
    return inst(rows)


def assert_same_as_reference(instance, block):
    with mock.patch.object(fullinfo, "_BLOCK", block):
        got_alpha, got_witness = best_alpha_bruteforce(instance)
        got_exact = exact_efx_bruteforce(instance)
    assert (got_alpha, got_witness) == ref.best_alpha_bruteforce(instance)
    assert got_exact == ref.exact_efx_bruteforce(instance)


@settings(max_examples=150, deadline=None)
@given(instance=oracle_instances(), block=st.sampled_from((1, 2, 3, 5, 7, 64, 4096)))
@example(instance=inst([[0, 0, 0], [0, 0, 0]]), block=5)
@example(instance=inst([[3, 1, 2]]), block=2)
@example(instance=inst([[5], [2], [7]]), block=1)
def test_oracles_match_chunked_reference(instance, block):
    assert_same_as_reference(instance, block)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(1, 3),
    m=st.integers(3, 8),  # proxies need m >= n
    k=st.integers(1, 3),
    block=st.sampled_from((3, 7, 4096)),
)
def test_oracles_match_reference_on_virtual_proxies(seed, n, m, k, block):
    assert_same_as_reference(proxy(harness.generate_instance("uniform", n, m, seed=seed), k), block)


@pytest.mark.parametrize("n,m", [(2, 8), (2, 14)])
def test_oracles_match_reference_on_exact_blackbox_proxies(n, m):
    # k = 1 proxies: about 2**57 at m = 8 (int64 sums), 2**98 at m = 14 (wide).
    instance = proxy(harness.generate_instance("uniform", n, m, seed=5), 1)
    assert regime_of(instance) == ("object_int64_sums" if m == 8 else "wide")
    assert_same_as_reference(instance, 4096)


def test_regimes_reach_every_dtype_path():
    for name, top in REGIMES.items():
        assert regime_of(inst([[top, 1, 0], [1, top, 2]])) == name


@pytest.mark.parametrize("bits", [5, 40])
def test_ratio_keys_order_ratios_exactly(bits):
    # Every ratio num/den <= 1 with den < 2**5, or a sample of close ratios
    # with den < 2**40 (the Python-integer branch).
    if bits == 5:
        pairs = [(a, b) for b in range(1, 32) for a in range(b + 1)]
    else:
        rng = random.Random(bits)
        pairs = [(1, 1), (0, 1)]
        for _ in range(300):
            b = rng.randrange(2, 2**40)
            a = rng.randrange(b)
            pairs += [(a, b), (a + 1, b + 1), (a, b - 1) if a < b - 1 else (a, b)]
    nums = np.array([a for a, _ in pairs], dtype=np.int64)
    dens = np.array([b for _, b in pairs], dtype=np.int64)
    keys = fullinfo._ratio_keys(nums, dens, bits).tolist()
    ratios = [Fraction(a, b) for a, b in pairs]
    for x, kx in sorted(zip(ratios, keys))[:: 1 if bits == 5 else 3]:
        for y, ky in zip(ratios, keys):
            assert (kx < ky) == (x < y) and (kx == ky) == (x == y)


@st.composite
def envious_blocks(draw):
    """Synthetic enumeration blocks in which every assignment has an envious viewer."""
    n = draw(st.integers(1, 4))
    top = draw(st.sampled_from((9, 2**40)))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    blocks, start = [], 0
    for size in sizes:
        own = [[draw(st.integers(0, top)) for _ in range(size)] for _ in range(n)]
        envy = [[draw(st.integers(-1, top)) for _ in range(size)] for _ in range(n)]
        for k in range(size):
            i = draw(st.integers(0, n - 1))
            envy[i][k] = max(envy[i][k], own[i][k] + 1)
        blocks.append((start, np.array(own, dtype=np.int64), np.array(envy, dtype=np.int64)))
        start += size
    return n, top, blocks


@settings(max_examples=200, deadline=None)
@given(envious_blocks())
def test_best_alpha_without_efx_takes_first_maximum(case):
    n, top, blocks = case
    total = sum(own.shape[1] for _, own, _ in blocks)
    m = max(1, (total - 1).bit_length())  # n**m >= total assignments for n >= 2
    instance = inst([[top + 1] + [0] * (m - 1)] * n)  # bits cover every synthetic sum
    alphas = []
    for _, own, envy in blocks:
        for k in range(own.shape[1]):
            alphas.append(min(
                (Fraction(int(own[i, k]), int(envy[i, k])) if envy[i, k] > own[i, k] else Fraction(1))
                for i in range(n)
            ))
    best = max(alphas)
    with mock.patch.object(fullinfo, "_envy_blocks", lambda _: iter(blocks)):
        alpha, witness = best_alpha_bruteforce(instance)
    assert alpha == best < 1
    first = alphas.index(best)
    assert witness == fullinfo._allocation_at(first, n, m)
