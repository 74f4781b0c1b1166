"""The integer condition kernel against its slow oracles.

The kernel decides C2 from difference counts, C1 and C3 from the field's
carry-free addition lists and shift rows, and searches for a C2 witness only
when the integer test fails.  Its full scans (_c1_scan, _c2_scan and
_c3_scan over every shift, with no lattice) are compared witness by witness
with direct scans: the character-sum count vectors for C2, the root count
of every difference map for C3, and the bijectivity of every difference map
for C1.  profile_from_values, which skips the scans that C1 decides, is
compared with the same oracles.  The comparison is exhaustive over all q^q
tables at q = 3, 4, 5 and sampled above that.

The per-polynomial path scans only the shifts that the coefficients leave
open (conditions._scan_shifts); each reduced scan is compared here with the
full scan of the same kernel.
"""

import concurrent.futures
import itertools
import random
import time
from collections import Counter

import pytest

from valuesets import conditions
from valuesets.conditions import (
    _c1_scan,
    _c2_holds,
    _c2_scan,
    _c3_scan,
    _classify_shard,
    _difference_counts,
    _n2,
    _scan_shifts,
    _spread_lists,
    _value_counts,
    classify_all,
    condition_profile,
    index_to_values,
    profile_from_values,
)
from valuesets.functable import FunctionTable, collision_count
from valuesets.gf import FieldPoly, FieldSpec, field_build, poly_values
from oracles import char_count_vector_from_values, char_sum_sq_is_q, difference_values

# (p, k) of the sampled fields: q = 7, 8, 9, 25, 27, 49, 81
SAMPLED = [(7, 1), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2), (3, 4)]
SAMPLES = 300
BUDGET_S = 60.0


def oracle_c1(spec, values):
    for a in range(1, spec.q):
        if len(set(difference_values(spec, values, a))) != spec.q:
            return a
    return None


def oracle_c2(spec, values):
    for h in range(1, spec.q):
        if not char_sum_sq_is_q(char_count_vector_from_values(spec, values, h)):
            return h
    return None


def oracle_c3(spec, values):
    for a in range(1, spec.q):
        roots = sum(values[spec.add(x, a)] == values[x] for x in range(spec.q))
        if roots != 1:
            return a
    return None


def full_scans(spec, values):
    """Witnesses of the full C1, C2 and C3 scans: every shift, no lattice."""
    add = spec.add_rows()
    counts = _value_counts(values, spec.q)
    return (
        _c1_scan(*_spread_lists(spec, values), spec.reduce, add),
        _c2_scan(spec, counts, _n2(counts)),
        _c3_scan(values, add),
    )


def check_against_oracles(spec, values):
    witnesses = (oracle_c1(spec, values), oracle_c2(spec, values), oracle_c3(spec, values))
    assert full_scans(spec, values) == witnesses, (spec, values)
    profile = profile_from_values(spec, values)
    got = (profile.c1_witness, profile.c2_witness, profile.c3_witness)
    assert got == witnesses, (spec, values)
    assert (profile.c1, profile.c2, profile.c3) == tuple(w is None for w in witnesses)
    n2 = collision_count(FunctionTable(spec.q, tuple(values)), 2)
    assert profile.n2 == n2 and profile.c4 == (n2 == spec.q - 1)
    return profile


def sampled_tables(spec, rng):
    """Uniform tables, and tables of sparse low-degree polynomials, which
    meet C2-C4 far more often than uniform ones."""
    q = spec.q
    for _ in range(SAMPLES // 2):
        yield [rng.randrange(q) for _ in range(q)]
    for _ in range(SAMPLES - SAMPLES // 2):
        coeffs = [0] * (rng.randint(2, 8) + 1)
        coeffs[-1] = rng.randrange(1, q)
        for j in rng.sample(range(len(coeffs) - 1), 2):
            coeffs[j] = rng.randrange(q)
        yield poly_values(FieldPoly(spec, coeffs))


def planar_quadratics(spec, rng):
    """aX^2 + bX + c for every a != 0; every (b, c) too when q <= 9, else
    one seeded (b, c) per a."""
    q = spec.q
    for a in range(1, q):
        pairs = itertools.product(range(q), repeat=2) if q <= 9 else [
            (rng.randrange(q), rng.randrange(q))
        ]
        for b, c in pairs:
            yield poly_values(FieldPoly(spec, [c, b, a]))


def test_kernel_matches_oracles():
    t0 = time.perf_counter()
    for p, k in ((3, 1), (2, 2), (5, 1)):
        spec = field_build(p, k)
        masks = Counter(
            check_against_oracles(spec, values).mask
            for values in itertools.product(range(spec.q), repeat=spec.q)
        )
        assert sum(masks.values()) == spec.q**spec.q

    for p, k in SAMPLED:
        spec = field_build(p, k)
        rng = random.Random(f"kernel/{p}^{k}")
        masks = Counter(check_against_oracles(spec, v).mask for v in sampled_tables(spec, rng))
        if p != 2:  # over GF(8) every table fails all four: N_2 and root counts are even
            assert len(masks) > 1, (p, k, masks)
            for values in planar_quadratics(spec, rng):
                assert check_against_oracles(spec, values).mask == "1111"
    elapsed = time.perf_counter() - t0
    assert elapsed < BUDGET_S, f"kernel cross-check took {elapsed:.1f}s, budget {BUDGET_S}s"


def test_classification_matches_profiles_q5():
    spec = field_build(5)
    masks = Counter()
    first = {}
    for idx in range(5**5):
        mask = profile_from_values(spec, index_to_values(idx, 5)).mask
        masks[mask] += 1
        first.setdefault(mask, idx)
    summary = classify_all(5)
    assert summary.mask_counts == dict(masks)
    assert summary.witness_indices == first


def test_passing_tables_never_touch_character_sums(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("character-sum oracle on the passing path")

    # the trace is the only character input of the witness search
    monkeypatch.setattr(FieldSpec, "traces", property(forbidden))
    monkeypatch.setattr(FieldSpec, "trace_mul_rows", forbidden)
    for p, k in ((7, 1), (3, 2), (5, 2), (3, 4)):
        spec = field_build(p, k)
        values = poly_values(FieldPoly(spec, [1, 2, 1]))
        # the C2 scan itself: profile_from_values skips it on a planar table
        counts = _value_counts(values, spec.q)
        assert _c2_scan(spec, counts, _n2(counts)) is None
        assert profile_from_values(spec, values).mask == "1111"
    assert _classify_shard((3, 1, None, 0, 3**3))["1111"][0] == 18


def test_c2_scan_refuses_to_disagree(monkeypatch):
    # a planar table passes the integer test; forcing that test to fail
    # leaves the witness scan without a witness, which must not pass silently
    # (over GF(p) the scan names h = 1 without searching, so the field is GF(9))
    monkeypatch.setattr(conditions, "_c2_holds", lambda *args: False)
    spec = field_build(3, 2)
    counts = _value_counts(poly_values(FieldPoly(spec, [0, 0, 1])), spec.q)
    with pytest.raises(AssertionError, match="integer C2 test"):
        _c2_scan(spec, counts, _n2(counts))


def c2_by_full_count(spec, counts, n2):
    """C2 from every difference count, with no c(1) refutation."""
    q = spec.q
    return n2 == q - 1 and _difference_counts(spec, counts).count(q - 1) == q - 1


def c4_tables(spec, rng, samples):
    """Tables with N_2 = q - 1: (q - 1)/2 values taken twice, or one taken
    three times and (q - 7)/2 twice, the rest once each, on shuffled points.
    Each draw comes with its values scaled by 1/h for an h whose difference
    count is q - 1, when one exists, so that c(1) = q - 1 there."""
    q = spec.q
    for _ in range(samples):
        mults = [2] * ((q - 1) // 2) if rng.random() < 0.5 else [3] + [2] * ((q - 7) // 2)
        mults += [1] * (q - sum(mults))
        values = [v for v, m in zip(rng.sample(range(q), len(mults)), mults) for _ in range(m)]
        rng.shuffle(values)
        yield values
        c = _difference_counts(spec, _value_counts(values, q))
        hs = [h for h in range(1, q) if c[h] == q - 1]
        if hs:
            h_inv = spec.inv(rng.choice(hs))
            yield [spec.mul(h_inv, v) for v in values]


def test_c2_refutation_from_c1_matches_the_full_count():
    def check(spec, values):
        counts = _value_counts(values, spec.q)
        n2 = _n2(counts)
        want = c2_by_full_count(spec, counts, n2)
        assert _c2_holds(spec, counts, n2) == want, (spec, values)
        return want

    for p, k in ((3, 1), (2, 2), (5, 1)):
        spec = field_build(p, k)
        held = sum(check(spec, v) for v in itertools.product(range(spec.q), repeat=spec.q))
        assert held > 0 or p == 2, (p, k)

    for p, k in ((7, 1), (3, 2), (5, 2), (127, 1), (251, 1)):
        spec = field_build(p, k)
        q = spec.q
        rng = random.Random(f"c2-refutation/{p}^{k}")
        c1_only = 0  # tables with c(1) = q - 1 that the full count refutes
        for values in c4_tables(spec, rng, 200 if q < 100 else 20):
            counts = _value_counts(values, q)
            if not check(spec, values) and _difference_counts(spec, counts)[1] == q - 1:
                c1_only += 1
        assert c1_only > 0, (p, k)
        for values in planar_quadratics(spec, rng):
            assert check(spec, values), (p, k)

    # X^((p+1)/2) for p = 3 mod 4: not planar (mask 0111), yet its value
    # counts are those of X^2 and it meets C2
    for p in (7, 11, 19, 43):
        spec = field_build(p)
        f = FieldPoly(spec, [0] * ((p + 1) // 2) + [1])
        assert check(spec, poly_values(f)), p
        assert condition_profile(f).mask == "0111", p


def test_c2_fails_from_c1_without_the_full_count(monkeypatch):
    def forbidden(*args):
        raise AssertionError("full difference count on a table that c(1) refutes")

    monkeypatch.setattr(conditions, "_difference_counts", forbidden)
    f = FieldPoly(field_build(4099), [0, 771, 0, 1])
    assert condition_profile(f).mask == "0001"


def test_classify_caps_workers_at_cpu_count(monkeypatch):
    recorded = []

    class FakeExecutor:
        def __init__(self, max_workers):
            recorded.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # classify_all imports the pool when it starts workers, so patch its home.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakeExecutor)
    monkeypatch.setattr(conditions.os, "cpu_count", lambda: 2)
    summary = classify_all(3, jobs=64)
    assert recorded == [2]  # min(64 jobs, 2 CPUs) = 2 shards, one per worker
    assert summary.mask_counts == {"0000": 9, "1111": 18}


@pytest.mark.parametrize(
    "p, k, lo, hi",
    [(3, 1, 0, 27), (3, 1, 5, 19), (2, 2, 0, 256), (2, 2, 37, 200), (5, 1, 0, 3125), (5, 1, 1234, 2345)],
)
def test_classify_shard_tallies_by_mask_name(p, k, lo, hi):
    # a shard over [lo, hi) returns {4-bit mask: (count, least index)}, as
    # profile_from_values tallies the same range: the counts sum to hi - lo,
    # and each least index lies in [lo, hi) and is the first with its mask
    spec = field_build(p, k)
    q = spec.q
    expected = {}
    for idx in range(lo, hi):
        mask = profile_from_values(spec, index_to_values(idx, q)).mask
        count, least = expected.get(mask, (0, idx))
        expected[mask] = (count + 1, least)
    assert _classify_shard((p, k, spec.modulus, lo, hi)) == expected


@pytest.mark.parametrize("q", [4, 5])
def test_classify_merges_three_and_four_shards_in_order(monkeypatch, q):
    # with 4 CPUs, jobs = 1..4 forms 1..4 shards; the merge in shard order
    # (count sums, each mask's first index) gives one summary for them all
    monkeypatch.setattr(conditions.os, "cpu_count", lambda: 4)
    one = classify_all(q, jobs=1)
    for jobs in (2, 3, 4):
        assert classify_all(q, jobs=jobs) == one


def check_reduced_scans(f):
    a1, h2, a3 = full_scans(f.spec, poly_values(f))
    assert conditions.test_c1(f) == (a1 is None, a1), f
    assert conditions.test_c3(f) == (a3 is None, a3), f
    profile = condition_profile(f)
    assert (profile.c1_witness, profile.c2_witness, profile.c3_witness) == (a1, h2, a3), f
    return a1, a3


def test_monomial_plus_affine_shifts_match_full_scans():
    # alpha X^e + L(X) + c with L additive: C1 is decided by the shift 1
    # alone, and C3 too when L = 0; every e, with and without affine terms
    rng = random.Random("monomial-shifts")
    for p, k in ((3, 3), (5, 2), (3, 4), (7, 2)):
        spec = field_build(p, k)
        q = spec.q
        for e in range(1, q + 1):
            for affine in ({}, {0: rng.randrange(1, q)},
                           {0: rng.randrange(q), 1: rng.randrange(1, q), p: rng.randrange(q)}):
                coeffs = [0] * (max(e, p) + 1)
                for d, c in affine.items():
                    coeffs[d] = c
                coeffs[e] = rng.randrange(1, q)
                f = FieldPoly(spec, coeffs)
                c1_shifts, c3_shifts = _scan_shifts(f)
                assert c1_shifts == (1,), f
                if set(affine) <= {0}:
                    assert c3_shifts == (1,), f
                a1, _ = check_reduced_scans(f)
                assert a1 in (1, None)


def test_frobenius_shifts_match_full_scans():
    # coefficients in GF(p): the scans visit the Frobenius orbit minima, and
    # the least failing shift of the full scan is always one of them
    rng = random.Random("frobenius-shifts")
    for p, k in ((3, 5), (5, 3), (2, 6)):
        spec = field_build(p, k)
        reduced = later = 0
        for _ in range(70):
            d = rng.randint(3, 12)
            f = FieldPoly(spec, [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)])
            reduced += _scan_shifts(f)[0] is spec.frobenius_minima
            a1, a3 = check_reduced_scans(f)
            later += (a1 or 1) > 1 or (a3 or 1) > 1
        assert reduced > 40, (p, k, reduced)
        if p != 2:  # in even characteristic every row fails at a = 1
            assert later > 5, (p, k, later)
        for _ in range(20):  # a coefficient outside GF(p): every shift
            coeffs = [rng.randrange(p) for _ in range(6)] + [1, p]  # p is the least such
            f = FieldPoly(spec, coeffs)
            assert _scan_shifts(f) == (None, None), f
            check_reduced_scans(f)
