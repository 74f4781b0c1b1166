"""The integer condition kernel against its slow oracles.

profile_from_values decides C2 from difference counts, C1 and C3 from the
field's carry-free addition lists and shift rows, and searches for a C2 witness only when the
integer test fails.  Each bit and each witness is compared here
with a direct scan: the character-sum count vectors for C2, the root count
of every difference map for C3, and the bijectivity of every difference map
for C1.  The comparison is exhaustive over all q^q tables at q = 3, 4, 5 and
sampled above that.
"""

import itertools
import random
import time
from collections import Counter

import pytest

from valuesets import conditions
from valuesets.conditions import (
    _classify_shard,
    classify_all,
    difference_values,
    index_to_values,
    profile_from_values,
)
from valuesets.functable import FunctionTable, collision_count
from valuesets.gf import FieldPoly, FieldSpec, field_build, poly_values
from oracles import char_count_vector_from_values, char_sum_sq_is_q

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


def check_against_oracles(spec, values):
    profile = profile_from_values(spec, values)
    witnesses = (oracle_c1(spec, values), oracle_c2(spec, values), oracle_c3(spec, values))
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
    monkeypatch.setattr(FieldSpec, "trace_int", forbidden)
    monkeypatch.setattr(FieldSpec, "trace_mul_rows", forbidden)
    for p, k in ((7, 1), (3, 2), (5, 2), (3, 4)):
        spec = field_build(p, k)
        profile = profile_from_values(spec, poly_values(FieldPoly(spec, [1, 2, 1])))
        assert profile.mask == "1111"
    counts, _ = _classify_shard((3, 1, None, 0, 3**3))
    assert counts[0b1111] == 18


def test_c2_scan_refuses_to_disagree(monkeypatch):
    # a planar table passes the integer test; forcing that test to fail
    # leaves the witness scan without a witness, which must not pass silently
    monkeypatch.setattr(conditions, "_c2_holds", lambda *args: False)
    spec = field_build(7)
    with pytest.raises(AssertionError, match="integer C2 test"):
        profile_from_values(spec, poly_values(FieldPoly(spec, [0, 0, 1])))


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

    monkeypatch.setattr(conditions, "ProcessPoolExecutor", FakeExecutor)
    monkeypatch.setattr(conditions.os, "cpu_count", lambda: 2)
    summary = classify_all(3, jobs=64)
    assert recorded == [2]  # 27 shards, 2 CPUs
    assert summary.mask_counts == {"0000": 9, "1111": 18}
