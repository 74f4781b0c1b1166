import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from oracles import (
    bk_dp_table,
    bound_report_oracle,
    lower_bound_oracle,
    max_multiplicity_oracle,
    s2_report_oracle,
    triangular_B_dp,
)
from valuesets.bounds import (
    BK_LIMIT,
    InfeasibleError,
    ParityError,
    TriangularDecomposition,
    bound_report,
    bounds_s2,
    construct_lower_tight,
    construct_upper_tight,
    lower_bound,
    max_multiplicity_for,
    triangular_B,
    triangular_number,
    upper_bound_exact,
    upper_bound_refined_s2,
    wan_degree_bound,
    _bk,
)
from valuesets.functable import FunctionTable, collision_count, image_count, spectrum


def test_lower_bound_examples():
    assert lower_bound(10, 2, 4) == (Fraction(8), 8)
    assert lower_bound(10, 3, 6) == (Fraction(9, 2), 5)
    for n in (1, 7, 100):
        assert lower_bound(n, 2, 0) == (Fraction(n), n)
        assert lower_bound(n, 4, 0) == (Fraction(n, 3), math.ceil(Fraction(n, 3)))


def test_lower_bound_rejects_small_s():
    with pytest.raises(ValueError):
        lower_bound(10, 1, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: lower_bound(10, 2, -2), "collision count must be non-negative"),
        (lambda: upper_bound_exact(10, 1, 4), "s must be >= 2"),
        (lambda: upper_bound_exact(10, 2, -2), "collision count must be non-negative"),
    ],
    ids=["lower-negative-t", "upper-small-s", "upper-negative-t"],
)
def test_general_bounds_refuse_outside_their_domain(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_max_multiplicity():
    assert max_multiplicity_for(2, 6) == 3  # P(3,2)=6 <= 6 < P(4,2)=12
    assert max_multiplicity_for(3, 6) == 3  # P(3,3)=6
    assert max_multiplicity_for(2, 10**12) == 1000000
    with pytest.raises(InfeasibleError):
        max_multiplicity_for(3, 4)  # 0 < t < 3!


def test_upper_bound_exact_examples():
    assert upper_bound_exact(10, 2, 6) == 8
    assert upper_bound_exact(10, 3, 6) == 8
    for n in (1, 9, 50):
        assert upper_bound_exact(n, 2, 0) == n
        assert upper_bound_exact(n, 4, 0) == n
    with pytest.raises(InfeasibleError):
        upper_bound_exact(10, 3, 4)


def test_bounds_s2_examples():
    r = bounds_s2(10, 4)
    assert (r.lower_int, r.upper_int) == (8, 8)
    assert r.lower_real == 8
    assert abs(float(r.upper_real) - 8.438447) < 1e-5
    assert r.extras["m1_lower"] == 6

    r = bounds_s2(10, 6)  # 4t+1 = 25 is a perfect square: bound exact
    assert r.upper_int == 8
    assert isinstance(r.upper_real, Fraction) and r.upper_real == 8

    r = bounds_s2(12, 0)
    assert (r.lower_int, r.upper_int) == (12, 12)


def test_bounds_s2_parity():
    with pytest.raises(ParityError):
        bounds_s2(10, 3)


def test_triangular_B_at_triangular_numbers():
    for u in range(2, 51):
        bk, witness = triangular_B(triangular_number(u))
        assert bk == u - 1
        assert witness.parts == (u,)


def test_triangular_B_examples():
    assert triangular_B(0)[0] == 0
    assert triangular_B(1)[0] == 1
    bk, witness = triangular_B(4)
    assert bk == 3 and witness.parts == (3, 2)  # T_3 + T_2 = 3 + 1
    bk, witness = triangular_B(10)
    assert bk == 4 and witness.parts == (5,)  # T_5 = 10 beats 6+3+1


def _exhaustive_min_weight(k):
    """Minimum weight over all triangular decompositions, by direct recursion."""
    best = [None]

    def rec(rest, max_part, weight):
        if rest == 0:
            if best[0] is None or weight < best[0]:
                best[0] = weight
            return
        r = max_part
        while r >= 2:
            t = triangular_number(r)
            if t <= rest:
                rec(rest - t, r, weight + r - 1)
            r -= 1

    top = 2
    while triangular_number(top + 1) <= k:
        top += 1
    rec(k, max(top, 2), 0)
    return best[0] if k else 0


def test_triangular_B_against_exhaustive():
    for k in range(0, 101):
        assert triangular_B(k)[0] == _exhaustive_min_weight(k)


def test_triangular_B_monotone_step():
    prev = 0
    for k in range(1, 2001):
        bk = triangular_B(k)[0]
        assert bk <= prev + 1
        prev = bk


def test_triangular_B_matches_dp_oracle():
    # weights and witnesses, tie-break included, for every k <= 10^4
    table = bk_dp_table(10**4)
    for k in range(10**4 + 1):
        bk, witness = triangular_B(k)
        assert (bk, witness.parts) == triangular_B_dp(k, table), k


def _r_max(k):
    """Largest r with T_r <= k, by bisection (independent of the library)."""
    lo, hi = 1, 2
    while triangular_number(hi) <= k:
        lo, hi = hi, 2 * hi
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if triangular_number(mid) <= k:
            lo = mid
        else:
            hi = mid
    return lo


@seed(20120917)
@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 10**15), min_size=1, max_size=4, unique=True))
def test_triangular_B_properties(ks):
    results = {}
    for k in ks:
        bk, witness = triangular_B(k)
        parts = witness.parts
        assert list(parts) == sorted(parts, reverse=True)
        assert sum(triangular_number(r) for r in parts) == k
        assert witness.weight == bk == sum(r - 1 for r in parts)
        # the gap ceil((sqrt(8k+1) - 1)/2) is the least w with w(w+1) >= 2k
        assert bk * (bk + 1) >= 2 * k
        assert bk <= triangular_B(k - 1)[0] + 1
        first = parts[0]
        assert bk == (first - 1) + triangular_B(k - triangular_number(first))[0]
        r = _r_max(k)
        assert bk <= (r - 1) + triangular_B(k - triangular_number(r))[0]
        results[k] = (bk, parts)
    _bk.cache_clear()
    for k in reversed(ks):
        bk, witness = triangular_B(k)
        assert (bk, witness.parts) == results[k]


def test_bk_memo_is_bounded():
    maxsize = _bk.cache_info().maxsize
    assert maxsize is not None
    _bk.cache_clear()
    for k in range(maxsize + 100):
        triangular_B(k)
    info = _bk.cache_info()
    assert info.misses > maxsize and info.currsize <= maxsize


def test_triangular_B_domain():
    assert triangular_B(BK_LIMIT)[1].k == BK_LIMIT
    with pytest.raises(ValueError):
        triangular_B(-1)
    with pytest.raises(ValueError, match="B_k is computed for k <="):
        triangular_B(BK_LIMIT + 1)
    t = 2 * (BK_LIMIT + 1)
    with pytest.raises(ValueError, match="B_k is computed for k <="):
        upper_bound_refined_s2(10**11, t)
    with pytest.raises(ValueError, match="B_k is computed for k <="):
        bound_report(10**11, 2, t)
    with pytest.raises(ValueError, match="B_k is computed for k <="):
        construct_upper_tight(10, BK_LIMIT + 1)


def test_gauss_three_triangulars():
    # every k up to 1000 is a sum of at most 3 triangular numbers >= T_2
    tri = [triangular_number(r) for r in range(2, 50)]
    tri_set = set(tri)
    pair_sums = {a + b for a in tri for b in tri}
    for k in range(1, 1001):
        assert (
            k in tri_set
            or k in pair_sums
            or any(k - a in pair_sums or k - a in tri_set for a in tri if a < k)
        )


def test_refined_upper_dominates_closed_form():
    for t in range(0, 20001, 2):
        n = 30000
        assert upper_bound_refined_s2(n, t) <= bounds_s2(n, t).upper_int


def test_refined_upper_dominates_max_multiplicity_bound():
    # each part r of a B_k witness has r(r - 1) <= t = 2k, so r <= m* and
    # B_k >= ceil(t / m*): bound_report's s = 2 minimum needs no third term
    n = 30000
    for k in range(20001):
        assert upper_bound_refined_s2(n, 2 * k) <= upper_bound_exact(n, 2, 2 * k), k


def test_refined_upper_parity():
    with pytest.raises(ParityError):
        upper_bound_refined_s2(10, 5)


def test_construct_lower_tight():
    f = construct_lower_tight(6, 4)
    assert image_count(f) == 4 and collision_count(f, 2) == 4
    f = construct_lower_tight(5, 4)
    assert f.values == (0, 0, 1, 1, 2)
    f = construct_lower_tight(7, 0)
    assert image_count(f) == 7
    for n in range(1, 61):
        for t in range(0, n + 1, 2):
            paired = [j // 2 for j in range(t)]
            fresh = list(range(t // 2, t // 2 + n - t))
            assert list(construct_lower_tight(n, t).values) == paired + fresh
    with pytest.raises(ParityError):
        construct_lower_tight(6, 3)
    with pytest.raises(InfeasibleError):
        construct_lower_tight(3, 4)


@pytest.mark.parametrize(
    "call",
    [
        lambda: upper_bound_refined_s2(10, -2),
        lambda: construct_lower_tight(5, -2),
        lambda: construct_lower_tight(5, -3),  # checked for sign before parity
    ],
    ids=["refined-even", "construct-even", "construct-odd"],
)
def test_s2_entry_points_share_the_pair_count_rule(call):
    # one rule, _check_pair_count: a negative count is refused as such, not
    # as odd (ParityError) or infeasible (InfeasibleError)
    with pytest.raises(ValueError, match="collision count must be non-negative") as info:
        call()
    assert type(info.value) is ValueError


def test_construct_upper_tight():
    f = construct_upper_tight(6, 3)  # single block of 3
    assert image_count(f) == 4 and collision_count(f, 2) == 6
    f = construct_upper_tight(10, 6)  # T_4: block of 4, V = 10 + 1 - 4
    assert image_count(f) == 7 and collision_count(f, 2) == 12
    f = construct_upper_tight(4, 0)
    assert image_count(f) == 4
    with pytest.raises(InfeasibleError):
        construct_upper_tight(2, 3)


def test_wan_degree_bound():
    assert wan_degree_bound(7, 2) == 4
    assert wan_degree_bound(7, 6) == 6
    for q in (5, 9, 27):
        assert wan_degree_bound(q, 1) == 1
    with pytest.raises(ValueError):
        wan_degree_bound(7, 0)


def test_bound_report_s2_merges_refinement():
    r = bound_report(10, 2, 6)
    assert r.lower_int == 7
    assert r.extras["upper_int_refined"] == 8
    assert r.upper_int == 8
    d = r.to_dict()
    assert d["collision_count"] == 6 and d["extras"]["b_k"] == 2


def test_bound_report_s2_is_assembled_from_its_parts():
    for n in range(1, 41):
        for t in range(0, n * (n - 1) + 1, 2):
            base = bounds_s2(n, t)
            refined = upper_bound_refined_s2(n, t)
            exact = upper_bound_exact(n, 2, t)
            i = math.isqrt(4 * t + 1)
            square = i * i == 4 * t + 1  # t = r(r+1), e.g. t = 2, 6, 12
            lower = Fraction(2 * n - t, 2)
            expected = {
                "n": n,
                "s": 2,
                "collision_count": t,
                "lower_real": float(base.lower_real),
                "lower_real_exact": f"{lower.numerator}/{lower.denominator}",
                "lower_int": base.lower_int,
                "upper_real": float(base.upper_real),
                "upper_real_exact": f"{n - (i - 1) // 2}/1" if square else None,
                "upper_int": min(base.upper_int, refined, exact),
                "provenance": {
                    "lower": "pair-deficit bound n - t/2",
                    "upper": "quadratic-root bound n - 2t/(1+sqrt(4t+1))",
                    "upper_refined": "triangular-weight refinement n - B_{t/2}",
                    "upper_max_multiplicity": (
                        "collision-capacity bound n - ceil(t / (m* P(m*-2, s-2)))"
                    ),
                },
                "extras": {
                    "m1_lower": max(0, n - t),
                    "upper_int_max_multiplicity": exact,
                    "upper_int_refined": refined,
                    "b_k": n - refined,
                },
            }
            got = bound_report(n, 2, t).to_dict()
            assert got == expected, (n, t)
            assert list(got) == list(expected), (n, t)  # key order reaches the JSON
            for key in ("provenance", "extras"):
                assert list(got[key]) == list(expected[key]), (n, t, key)
            # the closed form: n - g with g the least integer >= (sqrt(4t+1) - 1)/2
            g = 0
            while (2 * g + 1) ** 2 < 4 * t + 1:
                g += 1
            assert base.lower_real == lower and base.lower_int == math.ceil(lower)
            assert base.upper_int == n - g, (n, t)
    for n, t in ((10, 2), (10, 6), (10, 12)):
        assert bound_report(n, 2, t).to_dict()["upper_real_exact"] is not None


def test_bound_report_general_s():
    r = bound_report(10, 3, 6)
    assert (r.lower_int, r.upper_int) == (5, 8)


def _partitions(n, max_part=None):
    if max_part is None:
        max_part = n
    if n == 0:
        yield []
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield [first] + rest


def test_sandwich_over_all_spectra_small():
    # every multiplicity spectrum of n <= 16: lower <= V <= upper, all s
    for n in range(1, 17):
        for parts in _partitions(n):
            v = len(parts)
            for s in (2, 3, 4):
                t = sum(math.perm(r, s) for r in parts)
                assert lower_bound(n, s, t)[1] <= v <= upper_bound_exact(n, s, t)


@given(st.lists(st.integers(0, 6), min_size=1, max_size=14))
@settings(max_examples=300)
def test_sandwich_on_random_functions(values):
    f = FunctionTable.from_values(values)
    v = image_count(f)
    n = f.domain_size
    for s in (2, 3, 4):
        t = collision_count(f, s)
        assert lower_bound(n, s, t)[1] <= v <= upper_bound_exact(n, s, t)
    t2 = collision_count(f, 2)
    assert v <= upper_bound_refined_s2(n, t2)
    assert v <= bounds_s2(n, t2).upper_int
    assert spectrum(f).multiplicity(1) >= bounds_s2(n, t2).extras["m1_lower"]


def _outcome(fn, *args):
    """The report's dict (keys in order) or the type of what fn raised."""
    try:
        report = fn(*args)
    except Exception as exc:  # the type is the comparison
        return type(exc)
    d = report.to_dict()
    return report, d, list(d), list(d["provenance"]), list(d["extras"])


def _assert_matches_oracle(n, s, t):
    got = _outcome(bound_report, n, s, t)
    assert got == _outcome(bound_report_oracle, n, s, t), (n, s, t)
    return got


def test_bound_report_s2_matches_oracle_for_every_small_t():
    squares = 0
    for t in range(0, 4001, 2):
        i = math.isqrt(4 * t + 1)
        squares += i * i == 4 * t + 1
        for n in (1, 45, 2000, 10**6):
            got = _assert_matches_oracle(n, 2, t)
            assert not isinstance(got, type), (n, t)
    assert squares == 63  # t = r(r + 1) for r = 0..62: the exact closed form


def test_bound_report_s2_matches_oracle_on_sampled_large_t():
    rng = random.Random(20121)
    ts = [2 * BK_LIMIT, 2 * BK_LIMIT - 2, 2 * 61 * 62]
    for e in range(4, 21):
        ts += [2 * rng.randrange(10**e) for _ in range(2)]
        r = rng.randrange(10**(e // 2), 10**(e // 2 + 1))
        ts.append(r * (r + 1) if r * (r + 1) <= 2 * BK_LIMIT else 2 * rng.randrange(BK_LIMIT))
    for t in ts:
        for n in (t // 3 + 1, 10**25):
            got = _assert_matches_oracle(n, 2, t)
            assert not isinstance(got, type), (n, t)


def test_bound_report_general_s_matches_oracle():
    rng = random.Random(20122)
    for s in (3, 4, 5):
        f = math.factorial(s)
        ts = [0, f, f + 1, 2 * f - 1] + list(range(1, f))  # 0 < t < s! is infeasible
        ts += [rng.randrange(10**e) for e in range(1, 31) for _ in range(3)]
        for t in ts:
            for n in (1, 10, 10**6):
                got = _assert_matches_oracle(n, s, t)
                assert (got is InfeasibleError) == (0 < t < f), (n, s, t)
                assert lower_bound(n, s, t) == lower_bound_oracle(n, s, t)


def test_bound_report_s2_refusals_match_oracle():
    cases = [
        (10, 3, ParityError),
        (10, 2 * BK_LIMIT + 1, ParityError),
        (10, -1, ValueError),
        (10, -2, ValueError),
        (10**25, 2 * BK_LIMIT + 2, ValueError),
        (10**25, 4 * BK_LIMIT, ValueError),
    ]
    for n, t, kind in cases:
        assert _outcome(bound_report, n, 2, t) is kind, (n, t)
        assert _assert_matches_oracle(n, 2, t) is kind, (n, t)


def test_s2_closed_form_matches_oracle_at_huge_t():
    # t = r(r + 1) makes 4t + 1 = (2r + 1)^2 a square of up to 301 digits:
    # the bound is attained there, and only there among t + {-2, 0, 2}
    attained = 0
    for e in range(1, 151):
        r = 10**e
        for delta in (-2, 0, 2):
            t = r * (r + 1) + delta
            for n in (t // 3 + 1, 10**300):
                got = bounds_s2(n, t)
                assert got == s2_report_oracle(n, t), (e, delta, n)
                attained += isinstance(got.upper_real, Fraction)
    assert attained == 2 * 150


def test_max_multiplicity_s2_brackets_t_and_matches_the_oracle():
    for t in range(2, 10**5 + 1):
        m = max_multiplicity_for(2, t)
        assert m == max_multiplicity_oracle(2, t), t
        assert m * (m - 1) <= t < (m + 1) * m, t
    rng = random.Random(20123)
    for e in range(5, 301, 5):
        for t in (rng.randrange(10**e), 10**e):
            m = max_multiplicity_oracle(2, t)
            assert max_multiplicity_for(2, t) == m, t
            assert m * (m - 1) <= t < (m + 1) * m
    for t in (0, 1):
        with pytest.raises(InfeasibleError):
            max_multiplicity_for(2, t)


@pytest.mark.parametrize(
    "k, parts, weight, message",
    [
        (4, (2, 3), 3, "non-increasing"),  # T_2 + T_3 = 4, out of order
        (3, (3, 1), 2, ">= 2"),  # T_1 = 0 adds nothing but a part
        (3, (3, 0), 2, ">= 2"),
        (5, (3, 2), 3, "sum to k"),
        (4, (3, 2), 4, "weight"),
        (4, (3, 2), 2, "weight"),
    ],
)
def test_triangular_decomposition_rejects_bad_witnesses(k, parts, weight, message):
    with pytest.raises(ValueError, match=message):
        TriangularDecomposition(k, parts, weight)


def test_triangular_decomposition_accepts_witnesses():
    assert TriangularDecomposition(0, (), 0).weight == 0
    assert TriangularDecomposition(4, (3, 2), 3).parts == (3, 2)
    assert TriangularDecomposition(7, (3, 3, 2), 5).k == 7
