import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import fraction_reference as ref
from efxlab import (
    DomainError,
    Instance,
    ParamDomainError,
    PRRParams,
    QueryOracle,
    best_alpha_bruteforce,
    envy_cycle_heuristic,
    fairness_report,
    prr,
    round_robin,
    theorem5_bound,
    theorem5_params,
    virtual_efx,
    virtual_efx_bound,
)
from efxlab.query_enhanced import (
    bucket_thresholds,
    bucketize,
    check_segment_room,
    virtual_instance,
)
from efxlab.enclosures import pow_enclosure, sqrt_enclosure
from efxlab import query_enhanced
from efxlab.harness import default_lambda, generate_instance
from helpers import time_limit


def oracle_for(rows, budget=None):
    return QueryOracle(Instance.from_rows(rows), budget=budget)


def random_rows(rng, n, m, top=20):
    return [[Fraction(rng.randint(0, top)) for _ in range(m)] for _ in range(n)]


# ---- bucketize --------------------------------------------------------


def test_bucketize_worked_example():
    # Ranked values 8, 4, 1, 1/2 with one threshold at anchor/2 = 4.
    o = oracle_for([[8, 4, 1, Fraction(1, 2)], [8, 4, 1, Fraction(1, 2)]])
    vv = bucketize(o, 0, k=1)
    assert vv.top_values == (Fraction(8),)
    assert vv.bucket_bounds == (1,)
    row = ref.virtual_row(vv, o.rankings[0], o.m)
    assert row == (Fraction(8), Fraction(4), Fraction(0), Fraction(0))


def test_bucketize_zero_anchor_skips_searches():
    # Anchor is the (n-1)-th ranked value; make it zero for agent 0.
    o = oracle_for([[5, 0, 0, 0], [5, 4, 3, 2], [5, 4, 3, 2]])
    vv = bucketize(o, 0, k=3)
    # Only the top n-1 = 2 queries; no binary searches spent.
    assert o.snapshot_counts()[0] == 2
    row = ref.virtual_row(vv, o.rankings[0], o.m)
    assert row == (Fraction(5), Fraction(0), Fraction(0), Fraction(0))


def test_bucketize_uniform_values_top_bucket():
    o = oracle_for([[3, 3, 3, 3, 3], [3, 3, 3, 3, 3]])
    vv = bucketize(o, 0, k=2)
    # Every good clears the first threshold, so the first bucket reaches m-1.
    assert vv.bucket_bounds[0] == o.m - 1


def test_virtual_dominance_and_bucket_membership():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(2, 4)
        m = rng.randint(n, 12)
        k = rng.randint(1, 3)
        inst = Instance.from_rows(random_rows(rng, n, m))
        o = QueryOracle(inst)
        vv = bucketize(o, 0, k)
        ranking = o.rankings[0]
        row = ref.virtual_row(vv, ranking, m)
        anchor = vv.top_values[-1]
        thresholds = vv.thresholds
        true_row = ref.fraction_rows(inst)[0]
        for pos, g in enumerate(ranking):
            true = true_row[g]
            assert row[g] <= true  # virtual never exceeds true
            if pos >= n - 1:
                # Bucket membership: value clears its level's threshold and
                # misses the previous level's.
                prev_bound = n - 2
                for level, bound in enumerate(vv.bucket_bounds):
                    if prev_bound < pos <= bound:
                        assert true >= anchor * thresholds[level]
                        if level > 0:
                            assert true < anchor * thresholds[level - 1]
                    prev_bound = max(prev_bound, bound)


def test_bucket_thresholds_are_lower_enclosures_computed_once():
    for m, k in ((7, 1), (100, 2), (2000, 3)):
        thresholds = bucket_thresholds(m, k)
        assert bucket_thresholds(m, k) is thresholds
        assert len(thresholds) == k
        for level, t in enumerate(thresholds, start=1):
            # t <= m**(-level/(k+1)) exactly, and within 1e-9 of it.
            assert t ** (k + 1) * m**level <= 1
            assert (t * (1 + Fraction(1, 10**9))) ** (k + 1) * m**level > 1


def test_bucketize_query_ceiling():
    rng = random.Random(43)
    for _ in range(20):
        n = rng.randint(2, 5)
        m = rng.randint(n, 40)
        k = rng.randint(1, 4)
        o = QueryOracle(Instance.from_rows(random_rows(rng, n, m)))
        for i in range(n):
            bucketize(o, i, k)
        ceiling = (n - 1) + k * math.ceil(math.log2(m)) if m > 1 else n - 1
        assert all(c <= ceiling for c in o.snapshot_counts().values())


# ---- virtual_efx ------------------------------------------------------


def exact_blackbox(instance):
    return best_alpha_bruteforce(instance)[1]


def test_virtual_efx_transferred_guarantee_exact_blackbox():
    rng = random.Random(47)
    for _ in range(30):
        n = rng.randint(2, 3)
        m = rng.randint(n, 8)
        k = rng.randint(1, 3)
        inst = Instance.from_rows(random_rows(rng, n, m, top=9))
        o = QueryOracle(inst)
        allocation, virtuals, rho = virtual_efx(o, k, exact_blackbox)
        true_alpha = fairness_report(inst, allocation).alpha_efx
        assert true_alpha >= virtual_efx_bound(m, k, rho)


def test_virtual_efx_bound_uses_upper_root():
    # The denominator root is rounded up, so the bound is a sound floor.
    bound = virtual_efx_bound(6, 1, Fraction(1))
    root_hi = pow_enclosure(6, 1, 2)[1]
    assert bound == 1 / (2 * root_hi)
    assert bound < Fraction(1, 2)


def test_virtual_equals_true_on_uniform():
    # All values equal: virtual values are anchor * theta, still uniform per
    # agent, so blackbox fairness transfers exactly on singleton-ish splits.
    inst = Instance.from_rows([[1, 1, 1, 1], [1, 1, 1, 1]])
    o = QueryOracle(inst)
    allocation, _, rho = virtual_efx(o, 1, exact_blackbox)
    assert fairness_report(inst, allocation).alpha_efx == rho == 1


def test_virtual_efx_m_less_than_n_trivial():
    inst = Instance.from_rows([[1], [2], [3]])
    allocation, virtuals, rho = virtual_efx(QueryOracle(inst), 2, exact_blackbox)
    assert rho == 1 and allocation.complete
    assert [sorted(b) for b in allocation.bundles] == [[0], [], []]


def test_virtual_instance_materialization():
    o = oracle_for([[8, 4, 1, Fraction(1, 2)], [1, 2, 4, 8]])
    virtuals = [bucketize(o, i, 1) for i in range(2)]
    proxy = virtual_instance(o, virtuals)
    assert proxy.n == 2 and proxy.m == 4
    virtual, hidden = ref.fraction_rows(proxy), ref.fraction_rows(o.hidden_instance())
    for i in range(2):
        for g in range(4):
            assert virtual[i][g] <= hidden[i][g]


# ---- theorem5 parameterization ---------------------------------------


def test_theorem5_worked_example():
    params = theorem5_params(2, 8, 2, Fraction(1))
    assert params.alpha == (2,)
    sqrt2_hi = sqrt_enclosure(2)[1]
    assert params.beta == (sqrt2_hi * 4,)  # 8**(2/3) = 4 exactly


def test_theorem5_k1_empty():
    params = theorem5_params(2, 8, 1, Fraction(1))
    assert params.alpha == () and params.beta == ()


def test_theorem5_lambda_floor_enforced():
    with pytest.raises(ParamDomainError):
        theorem5_params(3, 8, 2, Fraction(1))  # needs lam >= 3/2
    theorem5_params(3, 8, 2, Fraction(3, 2))  # boundary admissible


@pytest.mark.parametrize("lam", [0, -1, Fraction(1, 2)], ids=["zero", "negative", "half"])
def test_theorem5_bound_rejects_lambda_below_one(lam):
    with time_limit(5), pytest.raises(ParamDomainError, match="lam must be at least"):
        theorem5_bound(2, 10, 2, lam)


def test_theorem5_rejects_oversized_segments_before_the_thresholds():
    # At k = 500 the sizes pass m = 1000 within the first levels; from
    # k = 20 on the O(1) room check rejects before any power is taken.
    n, m = 10, 1000
    for k, lam in ((500, default_lambda(n, m, 500)), (10**5, Fraction(3, 2)), (10**9, 2)):
        with time_limit(2), pytest.raises(ParamDomainError, match="final segment"):
            theorem5_params(n, m, k, lam)


def test_segment_room_check_rejects_only_oversized_segments():
    """Every k the O(1) check rejects has theorem 5 sizes summing to at least
    m already at lam = 1, whose sizes are the least of any admissible lam:
    the least a with a**(2k-1) >= m**(2l-1), found from the last level down."""
    for m in range(1, 65):
        rejected = 0
        for k in range(1, 4 * m.bit_length() + 30):
            try:
                check_segment_room(m, k)
            except ParamDomainError:
                rejected += 1
                q, total = 2 * k - 1, 0
                for level in range(k - 1, 0, -1):
                    total += next(a for a in range(1, m + 1) if a**q >= m ** (2 * level - 1))
                    if total >= m:
                        break
                assert total >= m, (m, k)
        assert rejected >= 30


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 10),
    st.integers(2, 3000),
    st.integers(2, 5),
    st.integers(2, 4),
    st.booleans(),
    st.integers(0, 40),
    st.integers(1, 12),
)
# lam = 3/2 and m = 19: lam**3 * m = 64.125, whose floor is a cube.
@example(n=2, m=19, k=2, base=2, perfect=False, num=1, den=2)
def test_theorem5_segment_sizes_equal_the_refine_loop(n, m, k, base, perfect, num, den):
    """Any rational lam at or above default_lambda; m is sometimes a perfect
    (2k-1)-th power, where the sizes are exact ceilings of rationals."""
    if perfect:
        m = base ** (2 * k - 1)
    lam = default_lambda(n, m, k) + Fraction(num, den)
    sizes = ref.theorem5_segment_sizes(m, k, lam)
    if sum(sizes) >= m:
        with pytest.raises(ParamDomainError, match="final segment"):
            theorem5_params(n, m, k, lam)
    else:
        assert theorem5_params(n, m, k, lam).alpha == sizes


@pytest.mark.parametrize(
    "bound,args",
    [(theorem5_bound, (2, 10, 0, 1)), (theorem5_bound, (2, 10, -1, 1)),
     (theorem5_bound, (2, 0, 2, 1)), (virtual_efx_bound, (10, 0, 1)),
     (virtual_efx_bound, (10, -1, 1)), (virtual_efx_bound, (0, 2, 1)),
     (theorem5_params, (0, 0, 2, 1))],
    ids=["theorem5-k0", "theorem5-k-1", "theorem5-m0", "virtual-k0", "virtual-k-1",
         "virtual-m0", "theorem5-params-n0-m0"],
)
def test_bounds_reject_k_or_m_below_one(bound, args):
    with time_limit(5), pytest.raises(ParamDomainError, match="need k >= 1 and m >= 1"):
        bound(*args)


def test_prr_params_validation():
    with pytest.raises(ParamDomainError):
        PRRParams(alpha=(1,), beta=())
    with pytest.raises(ParamDomainError):
        PRRParams(alpha=(0,), beta=(Fraction(1),))
    with pytest.raises(ParamDomainError):
        PRRParams(alpha=(1,), beta=(Fraction(0),))


# ---- prr --------------------------------------------------------------


def test_prr_worked_example():
    rows = [[9, 1, 1, 1, 1, 1, 1, 1]] * 2
    o = oracle_for(rows, budget=2)
    a = prr(o, PRRParams(alpha=(1,), beta=(Fraction(4),)))
    assert sorted(a.bundles[0]) == [0]
    assert sorted(a.bundles[1]) == [1, 2, 3, 4, 5, 6, 7]
    inst = o.hidden_instance()
    assert fairness_report(inst, a).alpha_efx == 1


def test_prr_all_fail_is_round_robin():
    rows = [[2, 2, 2, 2, 2, 2], [2, 2, 2, 2, 2, 2]]
    o1 = oracle_for(rows)
    a = prr(o1, PRRParams(alpha=(1,), beta=(Fraction(3),)))
    b = round_robin(oracle_for(rows))
    assert a.bundles == b.bundles


def test_prr_query_ceiling_random():
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(2, 5)
        m = rng.randint(n, 30)
        k = rng.randint(1, 3)
        lam = Fraction(max(1, n))  # safely above the floor
        inst = Instance.from_rows(random_rows(rng, n, m))
        o = QueryOracle(inst, budget=k)
        try:
            params = theorem5_params(n, m, k, lam)
        except ParamDomainError:
            continue  # segment sizes can exhaust m for tiny instances
        a = prr(o, params)
        assert a.complete
        assert all(c <= k for c in o.snapshot_counts().values())


def test_prr_theorem5_bound_random():
    rng = random.Random(59)
    for _ in range(60):
        n = rng.randint(2, 4)
        m = rng.choice([27, 32, 64])
        k = rng.randint(2, 3)
        lam = default_lambda(n, m, k)
        inst = Instance.from_rows(random_rows(rng, n, m))
        o = QueryOracle(inst, budget=k)
        try:
            params = theorem5_params(n, m, k, lam)
        except ParamDomainError:
            continue  # segment sizes exceed m for this combination
        a = prr(o, params)
        bound = theorem5_bound(n, m, k, lam)
        assert fairness_report(inst, a).alpha_efx >= bound


def test_prr_m_less_than_n_trivial():
    inst = Instance.from_rows([[1], [2], [3]])
    a = prr(QueryOracle(inst), PRRParams(alpha=(), beta=()))
    assert [sorted(b) for b in a.bundles] == [[0], [], []]


def test_prr_singleton_phase_reads_only_the_heads_of_the_rankings():
    # Each ranking counts the entries its iterators yield; the count is read
    # when prr hands the rest to round robin.
    yielded = [0]

    class CountedRanking(tuple):
        def __iter__(self):
            for g in super().__iter__():
                yielded[0] += 1
                yield g

    at_round_robin = []

    def counted_round_robin(*args):
        at_round_robin.append(yielded[0])
        return round_robin(*args)

    n, m, k = 20, 2000, 2
    oracle = QueryOracle(generate_instance("uniform", n, m, seed=1))
    oracle.rankings = tuple(map(CountedRanking, oracle.rankings))
    params = theorem5_params(n, m, k, default_lambda(n, m, k))
    with mock.patch.object(query_enhanced, "round_robin", counted_round_robin):
        prr(oracle, params)
    last_start = sum(params.alpha)
    assert n <= at_round_robin[0] <= n * (last_start + 1) + n * n
