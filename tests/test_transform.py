"""FieldSpec.transform, and the polynomial values and power sums read from it,
against term-by-term oracles.

The transform is one integer product of packed digit rows, so every slot
must hold its largest sum in the bytes chosen for it; the widths are tested
from 1 to 6 bytes, and the refusal above 8 without building a field that
large.
"""

import itertools
import random

import pytest

from valuesets.conditions import up_invariant
from valuesets.gf import FieldPoly, FieldSpec, field_build, poly_values
from oracles import dft_oracle, poly_values_horner, up_invariant_oracle

SMALL_Q = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]  # q <= 9
# GF(2), GF(3) and the fields of the profile-fields benchmark workload
SAMPLED = [(2, 1), (3, 1), (7, 2), (3, 4), (5, 3), (127, 1), (2, 7), (251, 1)]


def check(f):
    assert poly_values(f) == poly_values_horner(f), f
    assert up_invariant(f) == up_invariant_oracle(f), f


def test_transform_is_the_dft():
    rng = random.Random(1)
    for p, k in SMALL_Q + [(7, 2), (2, 5)]:
        spec = field_build(p, k)
        n = spec.q - 1
        for a in [[0] * n, [1] + [0] * (n - 1)] + [
            [rng.randrange(spec.q) for _ in range(n)] for _ in range(5)
        ]:
            assert spec.transform(a) == dft_oracle(spec, a), (p, k, a)
        with pytest.raises(ValueError):
            spec.transform([0] * (n + 1))


def test_every_polynomial_of_degree_below_3_over_small_fields():
    for p, k in SMALL_Q:
        spec = field_build(p, k)
        for coeffs in itertools.product(range(spec.q), repeat=3):
            check(FieldPoly(spec, coeffs))


def test_sampled_dense_sparse_and_high_degree_polynomials():
    rng = random.Random(2)
    for p, k in SAMPLED:
        spec = field_build(p, k)
        q = spec.q
        polys = [[rng.randrange(q) for _ in range(q)] for _ in range(3)]  # dense
        for _ in range(3):  # sparse, degree at most 8
            coeffs = [0] * 9
            for e in rng.sample(range(9), 3):
                coeffs[e] = rng.randrange(q)
            polys.append(coeffs)
        for d in (q - 1, q, 2 * q - 1, 3 * q + 2):  # X^d folds to X^(d mod (q - 1))
            coeffs = [0] * (d + 1)
            coeffs[d] = rng.randrange(1, q)
            coeffs[rng.randrange(d)] = rng.randrange(q)
            polys.append(coeffs)
        polys += [[], [rng.randrange(q)]]  # zero and a constant
        for coeffs in polys:
            check(FieldPoly(spec, coeffs))
    for p, k in SMALL_Q + [(7, 2)]:  # q <= 49
        check_first_power_sum_from_coefficients(field_build(p, k), rng)


def test_folded_exponents_match_horner():
    # exponents from q - 1 on fold into slot e mod (q - 1), exponents below
    # it fill their own slot: every length up to degree 3(q - 1) over the
    # small fields, sampled lengths over GF(49) and GF(27)
    rng = random.Random(6)
    for p, k in SMALL_Q + [(7, 2), (3, 3)]:
        spec = field_build(p, k)
        q = spec.q
        lengths = range(1, 3 * (q - 1) + 2)
        if q > 9:
            lengths = sorted(rng.sample(lengths, 12) + [q - 1, q, 3 * (q - 1) + 1])
        for length in lengths:
            coeffs = [rng.randrange(q) if rng.random() < 0.6 else 0 for _ in range(length)]
            f = FieldPoly(spec, coeffs)
            assert poly_values(f) == poly_values_horner(f), (p, k, coeffs)


def test_monomial_power_sums_from_the_exponent(monkeypatch):
    # alpha X^e: u_p = (q - 1) / gcd(e, q - 1), read without any transform
    rng = random.Random(4)
    cases = []
    for p, k in SMALL_Q + [(7, 2), (3, 3)]:
        spec = field_build(p, k)
        for e in range(1, 3 * spec.q):
            coeffs = [0] * e + [rng.randrange(1, spec.q)]
            cases.append((spec, coeffs, up_invariant_oracle(FieldPoly(spec, coeffs))))

    def forbidden(*args):
        raise AssertionError("a monomial's power sums went through the transform")

    monkeypatch.setattr(FieldSpec, "transform", forbidden)
    for spec, coeffs, u in cases:
        assert up_invariant(FieldPoly(spec, coeffs)) == u, (spec, coeffs)


def check_first_power_sum_from_coefficients(spec, rng):
    """sum_x f(x) = -(c_(q-1) + c_(2(q-1)) + ...): u_p = 1 from the
    coefficients when that sum is nonzero, the transform when it cancels."""
    q, n = spec.q, spec.q - 1
    top = [0] * n + [1]  # X^(q - 1), whose power sum is q - 1 = -1
    check(FieldPoly(spec, top))
    assert up_invariant(FieldPoly(spec, top)) == 1
    for _ in range(4):
        coeffs = [rng.randrange(q) if e % n else 0 for e in range(3 * n + 1)]
        c, d = rng.randrange(1, q), rng.randrange(1, q)
        coeffs[n], coeffs[3 * n] = c, d
        f = FieldPoly(spec, coeffs)
        check(f)
        assert (up_invariant(f) == 1) == (spec.add(c, d) != 0), f
        coeffs[3 * n] = 0
        coeffs[n], coeffs[2 * n] = c, spec.neg(c)  # cancel: the transform decides
        f = FieldPoly(spec, coeffs)
        check(f)
        assert up_invariant(f) != 1, f


def test_large_prime_fields_use_wide_slots():
    # (q - 1) (p - 1)^2 needs 30 bits at q = 1021 and 34 bits at q = 2053
    rng = random.Random(3)
    for p, width in ((1021, 4), (2053, 5)):
        spec = field_build(p)
        for coeffs in ([0, 0, 1], [0, 0, 0, 1], [rng.randrange(p) for _ in range(9)]):
            f = FieldPoly(spec, coeffs)
            assert poly_values(f) == poly_values_horner(f), (p, coeffs)
        assert spec._chirp_plan[0] == width
        held = [x for x in spec._chirp_plan if isinstance(x, list)]
        assert held and all(len(x) <= spec.q for x in held)
    # the power sums of X^3 vanish until 1020 | 3k
    assert up_invariant(FieldPoly(field_build(1021), [0, 0, 0, 1])) == 340
    assert up_invariant_oracle(FieldPoly(field_build(1021), [0, 0, 0, 1])) == 340


def test_slot_width_is_the_byte_length_of_the_largest_slot():
    # bound (q - 1) k (p - 1)^2, (p - 1)^3 in a prime field: 216 fits one
    # byte at q = 7, 42^3 = 74088 needs 3 at q = 43, 1020^3 4 at q = 1021,
    # 2052^3 5 at q = 2053 and 10330^3 > 2^40 six at q = 10331 (a prime
    # above FIELD_LIMIT, so built directly); 288 * 2 * 16^2 needs 3 at
    # q = 17^2.  Widths of 3, 5 and 6 bytes are read through wider array
    # items.  Horner costs q per coefficient, so the dense polynomial keeps
    # 12 coefficients above q = 2000.
    rng = random.Random(5)
    for spec, width in (
        (field_build(7), 1),
        (field_build(2, 7), 2),
        (field_build(43), 3),
        (field_build(17, 2), 3),
        (field_build(1021), 4),
        (field_build(2053), 5),
        (FieldSpec(10331, 1), 6),
    ):
        assert spec._chirp_plan[0] == width, spec
        assert spec._chirp_plan[1] in "BHIQ", spec
        q = spec.q
        for coeffs in (
            [rng.randrange(q) for _ in range(q if q < 2000 else 12)],
            [0, rng.randrange(q), rng.randrange(1, q)],
            [rng.randrange(q) for _ in range(5)],
        ):
            f = FieldPoly(spec, coeffs)
            assert poly_values(f) == poly_values_horner(f), (spec, coeffs)
    # a dense input reaches the largest slots: its transform against the
    # term-by-term oracle at a 3-byte width
    spec = field_build(43)
    a = [rng.randrange(43) for _ in range(42)]
    assert spec.transform(a) == dft_oracle(spec, a)


def test_slots_over_eight_bytes_are_refused_before_any_list_is_built():
    # 2642238^3 < 2^64 <= 2642256^3: the first prime above needs 9 bytes
    assert 2642238**3 < 2**64 <= 2642256**3
    spec = FieldSpec(2642257, 1)
    with pytest.raises(ValueError, match="over the 8-byte limit"):
        spec._chirp_plan
    assert "exp" not in vars(spec) and "spread" not in vars(spec)
