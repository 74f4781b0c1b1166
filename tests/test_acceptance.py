"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criterion 7 pins X^4 over GF(7) as the non-planar function with profile
(~C1, C2, C3, C4), derived by hand on its value table. The profile once
published for X^4 + 2X^2 cannot be reproduced: f(+-1) = f(+-2) = 3, so
N_2 = 14 != q - 1 and all four conditions fail. Criterion 7 pins that too.
"""

import itertools
import math
import os
import random
import time
from collections import Counter
from functools import lru_cache

import pytest

from valuesets.bounds import (
    bounds_s2,
    construct_lower_tight,
    construct_upper_tight,
    lower_bound,
    triangular_B,
    triangular_number,
    upper_bound_exact,
    upper_bound_refined_s2,
)
from valuesets.conditions import (
    classify_all,
    condition_profile,
    poly_version_bounds,
    up_invariant,
    verify_average_lemma,
    wsc_lower,
)
from valuesets.energy import (
    GroupSpec,
    SubsetPair,
    energy,
    energy_bounds,
    multiplication_table,
    n2_from_energy,
    product_set,
)
from valuesets.functable import (
    FunctionTable,
    collision_count,
    image_count,
    spectrum,
)
from valuesets.gf import (
    FieldPoly,
    all_irreducible_moduli,
    field_build,
    poly_table,
    primitive_elements,
)
from valuesets.bounds import wan_degree_bound
from oracles import char_sum_abs_float, collision_count_oracle

JOBS = min(8, os.cpu_count() or 1)


def _finish(num, t0, limit, desc):
    elapsed = time.perf_counter() - t0
    if elapsed >= limit:
        print(f"[criterion {num:02d}] FAIL {elapsed:7.2f}s  {desc} (over {limit}s budget)")
        raise AssertionError(f"criterion {num} runtime {elapsed:.2f}s exceeds {limit}s")
    print(f"[criterion {num:02d}] PASS {elapsed:7.2f}s  {desc}")


def _fail(num, desc, detail):
    print(f"[criterion {num:02d}] FAIL          {desc}: {detail}")


def test_criterion_01_identity_suite():
    desc = "identities and oracle agreement, exhaustive and random"
    t0 = time.perf_counter()
    checked = 0
    for n in range(1, 7):
        for values in itertools.product(range(4), repeat=n):
            f = FunctionTable(n, values)
            spec = spectrum(f)
            assert sum(spec.counts) == image_count(f)
            assert sum(r * c for r, c in enumerate(spec.counts)) == n
            for s in (2, 3, 4):
                assert collision_count(f, s) == collision_count_oracle(f, s)
            checked += 1
    assert checked == 4**1 + 4**2 + 4**3 + 4**4 + 4**5 + 4**6  # includes all 4096 at n=6

    rng = random.Random(0)
    for _ in range(1000):
        n = rng.randint(1, 64)
        f = FunctionTable(n, tuple(rng.randrange(n) for _ in range(n)))
        spec = spectrum(f)
        assert sum(spec.counts) == image_count(f)
        assert sum(r * c for r, c in enumerate(spec.counts)) == n
        for s in (2, 3, 4):
            assert collision_count(f, s) == collision_count_oracle(f, s)
    _finish(1, t0, 10.0, desc)


def test_criterion_02_s2_tightness():
    desc = "pairing and block constructions attain the s=2 bounds exactly"
    t0 = time.perf_counter()
    for n in range(1, 31):
        for t in range(0, n + 1, 2):
            f = construct_lower_tight(n, t)
            assert image_count(f) == n - t // 2
            assert collision_count(f, 2) == t
    n = 30
    for u in range(1, 9):
        k = triangular_number(u)
        f = construct_upper_tight(n, k)
        assert image_count(f) == n + 1 - u
        assert collision_count(f, 2) == 2 * k
    _finish(2, t0, 5.0, desc)


def _exhaustive_min_weight(k):
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


def test_criterion_03_triangular_weights():
    desc = "B_k DP vs exhaustive, triangular closed form, refined dominance"
    t0 = time.perf_counter()
    for k in range(0, 101):
        assert triangular_B(k)[0] == _exhaustive_min_weight(k)
    for u in range(1, 51):
        assert triangular_B(triangular_number(u))[0] == u - 1
    n = 3000
    for t in range(0, 2001, 2):
        assert upper_bound_refined_s2(n, t) <= bounds_s2(n, t).upper_int
    _finish(3, t0, 5.0, desc)


def _ascending_partitions(n):
    # Kelleher's accelerated ascending-composition generator
    a = [0] * (n + 1)
    k = 1
    y = n - 1
    while k != 0:
        x = a[k - 1] + 1
        k -= 1
        while 2 * x <= y:
            a[k] = x
            y -= x
            k += 1
        ell = k + 1
        while x <= y:
            a[k] = x
            a[ell] = y
            yield a[: k + 2]
            x += 1
            y -= 1
        a[k] = x + y
        y = x + y - 1
        yield a[: k + 1]


def test_criterion_04_general_s_sandwich():
    desc = "lower <= V <= upper over every spectrum of n <= 40, s in {2,3,4}"
    t0 = time.perf_counter()

    @lru_cache(maxsize=None)
    def upper_gap(s, t):
        # upper_bound_exact(n, s, t) == n - upper_gap(s, t) for every n
        return 0 if t == 0 else upper_bound_exact(0, s, t) * -1

    for n in range(1, 41):
        for parts in _ascending_partitions(n):
            v = len(parts)
            for s in (2, 3, 4):
                t = sum(math.perm(r, s) for r in parts)
                assert lower_bound(n, s, t)[1] <= v <= n - upper_gap(s, t)
    _finish(4, t0, 60.0, desc)


def test_criterion_05_average_identity():
    desc = "sum_a N_2(f + aX) = q(q-1) exactly for random polynomials"
    t0 = time.perf_counter()
    cases = {3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2), 13: (13, 1), 25: (5, 2), 27: (3, 3)}
    rng = random.Random(0)
    for q, (p, k) in cases.items():
        spec = field_build(p, k)
        for _ in range(25):
            f = FieldPoly(spec, [rng.randrange(q) for _ in range(q)])
            total, ok = verify_average_lemma(f)
            assert ok and total == q * (q - 1)
    _finish(5, t0, 30.0, desc)


def test_criterion_06_expected_collision_bounds_q7():
    desc = "q=7 expected-collision bounds are [4,5]; X^2 attains the lower"
    t0 = time.perf_counter()
    report = poly_version_bounds(7)
    assert (report.lower_int, report.upper_int) == (4, 5)
    spec = field_build(7)
    f = FieldPoly(spec, [0, 0, 1])
    table = poly_table(f)
    assert collision_count(table, 2) == 6
    assert image_count(table) == 4 == report.lower_int
    _finish(6, t0, 30.0, desc)


def test_criterion_07_published_f7_example():
    desc = "X^4 over GF(7) has profile (~C1, C2, C3, C4); X^4 + 2X^2 fails all four"
    t0 = time.perf_counter()
    q = 7
    spec = field_build(q)
    erratum = "see README, 'Criterion 07: X^4 + 2X^2 is not a separating example'"

    def check(ok, detail):
        if not ok:
            _fail(7, desc, detail)
            raise AssertionError(detail)

    # X^4: every condition is derived on the literal value table, without
    # the scans behind condition_profile, and only then compared with it
    quartic = FieldPoly(spec, [0, 0, 0, 0, 1])
    table = (0, 1, 2, 4, 4, 2, 1)
    got = poly_table(quartic).values
    check(got == table, f"X^4 has value table {got}, expected {table}")

    # C1 fails: the shift-1 difference map takes the value 1 at x = 0 and x = 1
    shift1 = [(table[(x + 1) % q] - table[x]) % q for x in range(q)]
    check(
        shift1[0] == shift1[1] == 1,
        f"X^4 shift-1 difference map is {shift1}, expected the value 1 at x = 0 and x = 1",
    )

    # C3 holds: the only collisions are x <-> -x, so f(x + a) = f(x) has the
    # single root x = -a/2 for every a != 0
    half = pow(2, -1, q)
    for a in range(1, q):
        roots = [x for x in range(q) if table[(x + a) % q] == table[x]]
        check(
            roots == [-a * half % q],
            f"X^4 shift-{a} difference map has roots {roots}, expected [{-a * half % q}]",
        )

    # C4 holds: N_2 = q - 1 by direct enumeration of colliding pairs
    n2 = collision_count_oracle(FunctionTable(q, table), 2)
    check(n2 == q - 1, f"X^4 has N_2 = {n2} by enumeration, expected q - 1 = {q - 1}")

    # C2 holds: squaring permutes the nonzero squares {1, 2, 4}, so X^4 has
    # the value multiset of the planar X^2.  Both the integer difference
    # counts c(h) = #{(x, y) : f(x) - f(y) = h} and the float character sums
    # confirm |S_h|^2 = q for every h != 0.
    squares = poly_table(FieldPoly(spec, [0, 0, 1])).values
    check(
        sorted(table) == sorted(squares),
        f"X^4 values {sorted(table)} differ as a multiset from X^2 values {sorted(squares)}",
    )
    counts = Counter((u - v) % q for u in table for v in table)
    expected_counts = {0: 2 * q - 1, **{h: q - 1 for h in range(1, q)}}
    check(
        counts == expected_counts,
        f"X^4 difference counts are {dict(counts)}, expected {expected_counts}",
    )
    for h in range(1, q):
        sq = char_sum_abs_float(quartic, h) ** 2
        check(abs(sq - q) <= 1e-9, f"X^4 has |S_{h}|^2 = {sq!r}, expected q = {q}")

    profile = condition_profile(quartic)
    check(
        (profile.mask, profile.n2) == ("0111", q - 1),
        f"condition_profile(X^4) gives mask {profile.mask} with N_2 = {profile.n2}, "
        f"expected 0111 with N_2 = {q - 1}",
    )

    # X^4 + 2X^2, once published with the same profile: f(+-1) = f(+-2) = 3
    # and f(+-3) = 1, so N_2 = 4*3 + 2*1 = 14 != q - 1.  C4 fails, and C1, C2
    # and C3 each imply C4, so all four fail.
    even = FieldPoly(spec, [0, 0, 2, 0, 1])
    even_table = (0, 3, 3, 1, 1, 3, 3)
    got = poly_table(even).values
    check(got == even_table, f"X^4 + 2X^2 has value table {got}, expected {even_table}")
    n2 = collision_count_oracle(FunctionTable(q, even_table), 2)
    check(
        n2 == 4 * 3 + 2 * 1,
        f"X^4 + 2X^2 has N_2 = {n2} by enumeration, expected 14; {erratum}",
    )
    profile = condition_profile(even)
    check(
        (profile.mask, profile.n2) == ("0000", 14),
        f"condition_profile(X^4 + 2X^2) gives mask {profile.mask} with N_2 = {profile.n2}, "
        f"expected 0000 with N_2 = 14; {erratum}",
    )
    _finish(7, t0, 1.0, desc)


@lru_cache(maxsize=None)
def _classified(q, jobs=1):
    return classify_all(q, budget=10**6, jobs=jobs)


def test_criterion_08_exhaustive_classification():
    desc = "exhaustive classification claims at q = 3, 5, 7"
    t0 = time.perf_counter()
    s3 = _classified(3)
    assert s3.count_where(c2=True, c3=False) == 0
    assert s3.count_where(c2=False, c3=True) == 0

    s5 = _classified(5)
    assert s5.count_where(c2=True, c3=False) > 0 or s5.count_where(c2=False, c3=True) > 0
    assert s5.count_where(c1=False, c2=True, c3=True) == 0

    s7 = _classified(7, jobs=JOBS)
    assert s7.count_where(c2=True, c3=False) > 0 or s7.count_where(c2=False, c3=True) > 0
    assert s7.count_where(c1=False, c2=True, c3=True) > 0

    # shard-count invariance of the full summary
    s5_sharded = classify_all(5, jobs=2)
    assert s5_sharded.mask_counts == s5.mask_counts
    assert s5_sharded.witness_indices == s5.witness_indices
    _finish(8, t0, 900.0, desc)


def test_criterion_09_f9_separating_examples():
    desc = "GF(9) separating examples for every primitive g and modulus"
    t0 = time.perf_counter()
    moduli = all_irreducible_moduli(3, 2)
    assert moduli[0] == (1, 0, 1)  # canonical one first
    for modulus in moduli:
        spec = field_build(3, 2, list(modulus))
        prims = primitive_elements(spec)
        assert prims, "no primitive elements found"
        matched = 0
        for g in prims:
            p7 = condition_profile(FieldPoly(spec, [0, 0, g.value, 0, 0, 0, 0, 1]))
            p8 = condition_profile(FieldPoly(spec, [0, 0, g.value, 0, 0, 0, 0, 0, 1]))
            assert (p7.c2, p7.c3) == (True, False), f"X^7+gX^2 at g={g.value}: {p7.mask}"
            assert (p8.c2, p8.c3) == (False, True), f"X^8+gX^2 at g={g.value}: {p8.mask}"
            matched += 1
        assert matched == len(prims)  # expected: every primitive g
    _finish(9, t0, 5.0, desc)


def test_criterion_10_implication_lattice():
    desc = "implication lattice has zero violations, exhaustive and sampled"
    t0 = time.perf_counter()

    def mask_violates(mask):
        c1, c2, c3, c4 = (bit == "1" for bit in mask)
        return (c1 and not c2) or (c1 and not c3) or (c3 and not c4) or (c2 and not c4)

    for q, jobs in ((3, 1), (5, 1), (7, JOBS)):
        summary = _classified(q, jobs=jobs)
        assert sum(cnt for m, cnt in summary.mask_counts.items() if mask_violates(m)) == 0

    rng = random.Random(1)
    for p, k in ((7, 1), (3, 2), (11, 1)):
        spec = field_build(p, k)
        for _ in range(50):
            f = FieldPoly(spec, [rng.randrange(spec.q) for _ in range(spec.q)])
            assert condition_profile(f).lattice_ok()
    _finish(10, t0, 900.0, desc)


def test_criterion_11_energy():
    desc = "energy bounds and collision identity on random subset pairs"
    t0 = time.perf_counter()
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(2, 40)
        g = GroupSpec.cyclic(n)
        a = tuple(rng.sample(range(n), rng.randint(1, n)))
        b = tuple(rng.sample(range(n), rng.randint(1, n)))
        pair = SubsetPair(g, a, b)
        t = n2_from_energy(pair)
        assert t == collision_count(multiplication_table(pair), 2)
        assert t == energy(pair) - len(a) * len(b)
        report = energy_bounds(pair)
        assert report.lower_int <= len(product_set(pair)) <= report.upper_int

    s3 = GroupSpec.from_cayley(
        [
            [0, 1, 2, 3, 4, 5],
            [1, 0, 4, 5, 2, 3],
            [2, 3, 0, 1, 5, 4],
            [3, 2, 5, 4, 0, 1],
            [4, 5, 1, 0, 3, 2],
            [5, 4, 3, 2, 1, 0],
        ]
    )
    assert s3.op(1, 2) != s3.op(2, 1)  # honestly non-abelian
    for _ in range(20):
        a = tuple(rng.sample(range(6), rng.randint(1, 6)))
        b = tuple(rng.sample(range(6), rng.randint(1, 6)))
        pair = SubsetPair(s3, a, b)
        assert n2_from_energy(pair) == collision_count(multiplication_table(pair), 2)
        report = energy_bounds(pair)
        assert report.lower_int <= len(product_set(pair)) <= report.upper_int
    _finish(11, t0, 10.0, desc)


def test_criterion_12_comparison_bounds():
    desc = "degree bound and power-sum lower bound on the benchmark polys"
    t0 = time.perf_counter()
    spec7 = field_build(7)
    f = FieldPoly(spec7, [0, 0, 1])
    v = image_count(poly_table(f))
    assert v == 4
    assert v <= wan_degree_bound(7, 2) == 4  # non-permutation, degree 2
    u = up_invariant(f)
    assert u == 3  # power sums of X^2 vanish until sum x^6 = -1
    assert wsc_lower(f) == u + 1
    assert v >= wsc_lower(f)
    assert v >= 3  # a fortiori
    for p, k in ((5, 1), (7, 1), (3, 2)):
        spec = field_build(p, k)
        q = spec.q
        ident = FieldPoly(spec, [0, 1])
        assert up_invariant(ident) == q - 1
        assert wsc_lower(ident) == q
    _finish(12, t0, 30.0, desc)
