import itertools
import math
import random

import pytest

from valuesets.functable import FunctionTable, image_count
from valuesets.gf import (
    FieldConstructionError,
    _fp_mod,
    _linear_table,
    FieldPoly,
    FieldSpec,
    all_irreducible_moduli,
    field_build,
    interpolate,
    is_primitive,
    poly_eval,
    poly_table,
    poly_values,
    prime_factors,
    prime_power_decomposition,
    primitive_elements,
)
from oracles import (
    char_count_vector,
    char_count_vector_from_values,
    char_sum_abs_float,
    char_sum_sq_is_q,
    interpolate_oracle,
    is_primitive_oracle,
    mul_oracle,
    pow_oracle,
    reduce_mod_qx,
)

F7 = field_build(7)
F9 = field_build(3, 2)


def test_prime_field_build():
    assert F7.q == 7 and F7.modulus is None


def test_canonical_modulus_f9():
    # the three monic irreducible quadratics over F_3 are X^2+1, X^2+X+2,
    # X^2+2X+2; the first has the smallest coefficient encoding
    assert all_irreducible_moduli(3, 2) == [(1, 0, 1), (2, 1, 1), (2, 2, 1)]
    assert F9.modulus == (1, 0, 1)


def test_reducible_modulus_rejected():
    with pytest.raises(FieldConstructionError):
        field_build(3, 2, [0, 1, 1])  # X^2 + X = X(X + 1)


def test_nonprime_p_rejected():
    with pytest.raises(FieldConstructionError):
        field_build(6)


def test_prime_power_decomposition():
    assert prime_power_decomposition(7) == (7, 1)
    assert prime_power_decomposition(81) == (3, 4)
    for q in (1, 12):
        with pytest.raises(FieldConstructionError, match="not a prime power"):
            prime_power_decomposition(q)


def test_prime_field_takes_no_modulus():
    with pytest.raises(FieldConstructionError, match="prime fields take no modulus"):
        field_build(5, 1, [1, 1])
    # every monic linear polynomial is irreducible
    assert all_irreducible_moduli(5, 1) == [(c, 1) for c in range(5)]


def test_field_and_poly_repr_and_hash():
    assert repr(F7) == "FieldSpec(p=7)"
    assert repr(F9) == "FieldSpec(p=3, k=2, modulus=[1, 0, 1])"
    assert hash(F9) == hash(FieldSpec(3, 2, [1, 0, 1])) != hash(FieldSpec(3, 2, [2, 1, 1]))
    f = FieldPoly(F9, [1, 0, 2, 0])
    assert repr(f) == "FieldPoly(FieldSpec(p=3, k=2, modulus=[1, 0, 1]), [1, 0, 2])"
    assert hash(f) == hash(FieldPoly(field_build(3, 2), [1, 0, 2]))
    assert len({f, FieldPoly(F9, [1, 0, 2]), FieldPoly(F9, [1, 0, 1])}) == 2


def test_arithmetic_f7():
    assert F7.mul(3, 5) == 1
    assert F7.inv(3) == 5
    with pytest.raises(ZeroDivisionError):
        F7.inv(0)


def test_arithmetic_f9():
    alpha = 3  # encoding of the basis element
    assert F9.mul(alpha, alpha) == 2  # alpha^2 = -1
    assert F9.add(4, 8) == F9.add(8, 4)


def test_lagrange_power():
    for spec in (F7, F9, field_build(5, 2)):
        for x in range(1, spec.q):
            assert spec.pow(x, spec.q - 1) == 1


def test_field_axioms_f9_exhaustive():
    q = F9.q
    for a, b, c in itertools.product(range(q), repeat=3):
        assert F9.mul(a, F9.mul(b, c)) == F9.mul(F9.mul(a, b), c)
        assert F9.mul(a, F9.add(b, c)) == F9.add(F9.mul(a, b), F9.mul(a, c))
    for a in range(q):
        assert F9.add(a, F9.neg(a)) == 0
        assert F9.mul(a, 1) == a


def test_element_operators():
    a = F9.element(3)
    assert (a * a).value == 2
    assert (a + a - a).value == 3
    assert (a * a.inv()).value == 1
    assert (a**8).value == 1
    assert (-a).value == 6 and (a + -a).value == 0  # -X = 2X
    assert a.trace().value == 0  # Tr(X) = X + X^3 = X - X modulo X^2 + 1
    assert F9.element(1).trace().value == 2  # Tr(1) = 1 + 1
    assert int(a) == 3
    with pytest.raises(ValueError):
        a + F7.element(1)


def test_trace_prime_field_is_identity():
    for x in range(7):
        assert F7.traces[x] == x


def test_trace_f9():
    assert F9.traces[3] == 0  # Tr(alpha) = alpha + alpha^3 = 0
    assert F9.traces[1] == 2


def test_trace_linear_frobenius_surjective():
    for spec in (F9, field_build(2, 3), field_build(5, 2)):
        q, p = spec.q, spec.p
        values = [spec.traces[x] for x in range(q)]
        assert all(v < p for v in values)
        hits = {j: values.count(j) for j in range(p)}
        assert all(hits[j] == q // p for j in range(p))  # surjective, balanced
        for x in range(q):
            assert spec.traces[spec.pow(x, p)] == values[x]
            for y in range(q):
                assert spec.traces[spec.add(x, y)] == (values[x] + values[y]) % p


def test_primitivity():
    assert is_primitive(F7.element(3))
    assert not is_primitive(F7.element(2))  # 2^3 = 1
    assert not is_primitive(F9.element(3))  # alpha^4 = 1
    assert is_primitive(F9.element(4))  # alpha + 1
    assert len(primitive_elements(F9)) == 4  # phi(8)
    with pytest.raises(ValueError):
        is_primitive(F7.element(0))


def test_primitivity_from_logs_matches_the_power_test():
    for p, k in (
        (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4), (5, 2),
        (3, 3), (2, 7), (3, 5), (251, 1), (2, 11), (4099, 1),
    ):
        spec = field_build(p, k)
        nonzero = [spec.element(x) for x in range(1, spec.q)]
        flags = [is_primitive_oracle(e) for e in nonzero]
        assert [is_primitive(e) for e in nonzero] == flags, (p, k)
        assert primitive_elements(spec) == [e for e, f in zip(nonzero, flags) if f], (p, k)


def test_poly_eval_and_table():
    x_sq = FieldPoly(F7, [0, 0, 1])
    assert poly_table(x_sq).values == (0, 1, 4, 2, 2, 4, 1)
    assert image_count(poly_table(x_sq)) == 4
    const = FieldPoly(F7, [5])
    assert poly_table(const).values == (5,) * 7
    ident = FieldPoly(F9, [0, 1])
    assert poly_table(ident).values == tuple(range(9))
    assert poly_eval(x_sq, F7.element(3)).value == 2


def test_poly_trims_and_validates():
    assert FieldPoly(F7, [1, 2, 0, 0]).coeffs == (1, 2)
    assert FieldPoly(F7, []).degree == -1
    with pytest.raises(ValueError):
        FieldPoly(F7, [9])


def test_poly_bulk_check_refuses_what_encoding_refuses():
    # a list of plain ints in [0, q) is taken in one pass; any other list
    # goes through FieldSpec.encoding, so it is refused at its first bad
    # coefficient with encoding's message
    for bad in (
        [True], [0, 1, False], [1.0], [2, 0.5], [-1], [0, -3, 1], [7], [0, 1, 7], [3, 2**70],
        [F9.element(1)], [1, F9.element(2)], ["3"], [None], [0, 1, 2, 7, True, -1],
    ):
        expected = None
        for c in bad:
            try:
                F7.encoding(c)
            except ValueError as exc:
                expected = str(exc)
                break
        assert expected is not None, bad
        with pytest.raises(ValueError) as caught:
            FieldPoly(F7, bad)
        assert str(caught.value) == expected, bad
    # elements of the same field, alone or among ints, and any iterable
    assert FieldPoly(F7, [F7.element(3), 2, F7.element(0)]).coeffs == (3, 2)
    assert FieldPoly(F9, [F9.element(8), 8, 0]).coeffs == (8, 8)
    assert FieldPoly(F7, (c for c in [0, 6, 0])).coeffs == (0, 6)
    assert FieldPoly(F7, range(7)).coeffs == tuple(range(7))


def test_reduce_mod_qx():
    assert reduce_mod_qx(FieldPoly(F7, [0] * 7 + [1])).coeffs == (0, 1)  # X^7 -> X
    x9_plus_x = FieldPoly(F9, [0, 1] + [0] * 7 + [1])
    assert reduce_mod_qx(x9_plus_x).coeffs == (0, 2)  # X^9 + X -> 2X
    # reduction preserves the value table
    f = FieldPoly(F9, [2, 0, 5, 0, 0, 0, 0, 0, 0, 0, 3, 7])
    assert poly_table(reduce_mod_qx(f)).values == poly_table(f).values


def test_interpolate_round_trips():
    rng = random.Random(7)
    for spec in (field_build(3), field_build(5), F7, F9):
        q = spec.q
        for _ in range(10):
            table = FunctionTable(q, tuple(rng.randrange(q) for _ in range(q)))
            f = interpolate(table, spec)
            assert f.degree < q
            assert poly_table(f).values == table.values
        for _ in range(5):
            f = reduce_mod_qx(FieldPoly(spec, [rng.randrange(q) for _ in range(q + 3)]))
            assert interpolate(poly_table(f), spec) == f


def test_interpolate_matches_synthetic_division_on_every_small_table():
    for spec in (field_build(2), field_build(3), field_build(2, 2), field_build(5)):
        q = spec.q
        for values in itertools.product(range(q), repeat=q):
            table = FunctionTable(q, values)
            assert interpolate(table, spec) == interpolate_oracle(table, spec), (q, values)


def test_interpolate_matches_synthetic_division_on_sampled_tables():
    rng = random.Random(12)
    for (p, k), samples in (
        ((7, 1), 20), ((3, 2), 20), ((3, 3), 10), ((3, 4), 5), ((127, 1), 3),
        ((2, 7), 3), ((3, 5), 2), ((251, 1), 2),
    ):
        spec = field_build(p, k)
        q = spec.q
        for _ in range(samples):
            table = FunctionTable(q, tuple(rng.randrange(q) for _ in range(q)))
            assert interpolate(table, spec) == interpolate_oracle(table, spec), (p, k)


def test_interpolate_x_squared():
    table = poly_table(FieldPoly(F7, [0, 0, 1]))
    assert interpolate(table, F7).coeffs == (0, 0, 1)


def test_interpolate_validates_size():
    with pytest.raises(ValueError):
        interpolate(FunctionTable.identity(5), F7)
    with pytest.raises(ValueError, match="field-element encodings"):
        interpolate(FunctionTable(7, (0, 1, 2, 3, 4, 5, 7)), F7)  # label 7 >= q


def test_char_count_vector_planar_square():
    f5 = field_build(5)
    v = char_count_vector(FieldPoly(f5, [0, 0, 1]), 1)
    assert v.d == (9, 4, 4, 4, 4)
    assert char_sum_sq_is_q(v)


def test_char_count_vector_identity_and_constant():
    for spec in (field_build(5), F9):
        q, p = spec.q, spec.p
        v = char_count_vector(FieldPoly(spec, [0, 1]), 1)
        assert sum(v.d) == q * q
        assert v.d == (q * q // p,) * p  # differences of a bijection are uniform
        assert not char_sum_sq_is_q(v)  # |S| = 0 for a bijection
        c = char_count_vector(FieldPoly(spec, [2]), 1)
        assert c.d[0] == q * q and all(x == 0 for x in c.d[1:])
        assert not char_sum_sq_is_q(c)  # |S| = q


def test_char_count_vector_rejects_trivial_character():
    with pytest.raises(ValueError):
        char_count_vector(FieldPoly(F7, [0, 1]), 0)


def test_char_sum_float():
    f5 = field_build(5)
    assert char_sum_abs_float(FieldPoly(f5, [0, 0, 1]), 0) == 5.0
    assert abs(char_sum_abs_float(FieldPoly(f5, [0, 0, 1]), 1) - math.sqrt(5)) < 1e-9
    assert abs(char_sum_abs_float(FieldPoly(f5, [0, 1]), 1)) < 1e-9


def test_character_orthogonality():
    # sum over a of chi_h(a*c) is 0 unless c = 0, where it is q
    for spec in (field_build(3), field_build(5), F9):
        q = spec.q
        for h in range(1, q):
            for c in range(q):
                total = char_sum_abs_float(FieldPoly(spec, [0, spec.mul(h, c)]), 1)
                if c == 0:
                    assert total == q
                else:
                    assert abs(total) < 1e-9


def test_exact_test_agrees_with_float():
    rng = random.Random(123)
    for q in (3, 5, 7, 9, 25, 27):
        p = 3 if q in (9, 27) else (5 if q == 25 else q)
        k = {3: 1, 5: 1, 7: 1, 9: 2, 25: 2, 27: 3}[q]
        spec = field_build(p, k)
        pairs = 0
        while pairs < 1000:
            f = FieldPoly(spec, [rng.randrange(q) for _ in range(6)])
            for _ in range(10):
                h = rng.randrange(1, q)
                exact = char_sum_sq_is_q(
                    char_count_vector_from_values(spec, poly_table(f).values, h)
                )
                float_mag = char_sum_abs_float(f, h)
                assert exact == (abs(float_mag**2 - q) < 1e-6 * q)
                pairs += 1


def test_all_irreducibles_give_isomorphic_arithmetic():
    # every modulus of degree 2 over F_3 yields a field of 9 elements with
    # 4 primitive elements and the same trace distribution
    for modulus in all_irreducible_moduli(3, 2):
        spec = field_build(3, 2, list(modulus))
        assert len(primitive_elements(spec)) == 4
        traces = sorted(spec.traces[x] for x in range(9))
        assert traces == [0, 0, 0, 1, 1, 1, 2, 2, 2]


def _digitwise(spec):
    """add and neg straight from the definition: base-p digits, mod p."""
    p, k = spec.p, spec.k

    def digits(e):
        return [(e // p**i) % p for i in range(k)]

    def encode(ds):
        return sum(d * p**i for i, d in enumerate(ds))

    def add(a, b):
        return encode([(x + y) % p for x, y in zip(digits(a), digits(b))])

    def neg(a):
        return encode([(-x) % p for x in digits(a)])

    return add, neg


def _check_arithmetic(spec, pairs):
    add, neg = _digitwise(spec)
    for a, b in pairs:
        assert spec.add(a, b) == add(a, b)
        assert spec.sub(a, b) == add(a, neg(b))
        assert spec.neg(a) == neg(a)


def test_table_arithmetic_matches_digits():
    for p, k in ((2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2)):
        spec = field_build(p, k)
        q = spec.q
        _check_arithmetic(spec, itertools.product(range(q), repeat=2))
        add, neg = _digitwise(spec)
        rows, subs = spec.add_rows(), spec.sub_rows()
        for a, b in itertools.product(range(q), repeat=2):
            assert rows(a)[b] == add(a, b) and subs(a)[b] == add(a, neg(b))
    rng = random.Random(5)
    for p, k in ((2, 7), (3, 5)):
        spec = field_build(p, k)
        _check_arithmetic(spec, [(rng.randrange(spec.q), rng.randrange(spec.q)) for _ in range(5000)])


def test_large_extension_field_adds_digits_without_tables():
    # one carry-free addition for every field: no q x q table at any size
    rng = random.Random(6)
    for p, k in ((2, 11), (3, 7), (5, 5), (2053, 1)):
        spec = FieldSpec(p, k)  # not field_build's shared field, whose lists may exist
        q = spec.q
        assert not {"spread", "nspread", "reduce", "traces"} & set(vars(spec))  # built on first use
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
        _check_arithmetic(spec, pairs)
        add, neg = _digitwise(spec)
        rows, subs = spec.add_rows(), spec.sub_rows()
        for a in {a for a, _ in pairs[:5]}:
            assert rows(a) == [add(x, a) for x in range(q)]
            assert subs(a) == [add(a, neg(x)) for x in range(q)]
        if q > 2048:  # trace rows are built per call, at any q
            traced = spec.trace_mul_rows()
            for h in [rng.randrange(q) for _ in range(3)]:
                assert traced(h) == [spec.traces[spec.mul(h, c)] for c in range(q)]
        assert len(spec.reduce) == (2 * p - 1) ** k
        held = [v for v in vars(spec).values() if isinstance(v, list)]
        assert held and all(len(v) <= max(q, (2 * p - 1) ** k) for v in held), (p, k)


def test_pow_matches_repeated_multiplication():
    # the long-division product, which does not read the log tables
    for p, k in ((2, 2), (2, 3), (3, 2), (5, 2), (2, 1), (7, 1), (13, 1)):
        spec = field_build(p, k)
        for x in range(1, spec.q):
            acc = 1
            for e in range(2 * spec.q + 1):
                assert spec.pow(x, e) == acc, (p, k, x, e)
                assert mul_oracle(spec, spec.pow(x, -e), acc) == 1, (p, k, x, -e)
                assert spec.mul(acc, x) == mul_oracle(spec, acc, x), (p, k, x, e)
                acc = mul_oracle(spec, acc, x)
        assert spec.pow(0, 0) == 1 and spec.pow(0, 3) == 0
        with pytest.raises(ZeroDivisionError):
            spec.pow(0, -1)


def least_generator_cycle(spec):
    """The power cycle of the least x of order q - 1, orders by brute force
    over mul_oracle."""
    q = spec.q

    def order(x):
        e, y = 1, x
        while y != 1:
            e, y = e + 1, mul_oracle(spec, y, x)
        return e

    g = next(x for x in range(1, q) if order(x) == q - 1)
    cycle = [1]
    for _ in range(q - 2):
        cycle.append(mul_oracle(spec, cycle[-1], g))
    return cycle


def test_products_and_exp_match_the_long_division_oracle():
    # every pair over the small fields, sampled pairs above them; exp must be
    # the power cycle of the least x of order q - 1
    rng = random.Random(20190)
    # every modulus of GF(4), GF(8), GF(9), GF(16), GF(25) and GF(27), the
    # canonical one above them
    specs = [
        FieldSpec(p, k, m)
        for p, k in ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3))
        for m in all_irreducible_moduli(p, k)
    ]
    specs += [FieldSpec(p, k) for p, k in ((7, 2), (3, 4), (2, 7), (3, 5), (5, 3))]
    for spec in specs:
        p, k, q = spec.p, spec.k, spec.q
        if q <= 81:
            pairs = itertools.product(range(q), repeat=2)
        else:
            pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(3000)]
        for a, b in pairs:
            want = mul_oracle(spec, a, b)
            assert spec._raw_mul(a, b) == want, (spec, a, b)
            assert spec.mul(a, b) == want, (spec, a, b)
        assert spec.exp == least_generator_cycle(spec), spec

    # larger fields, where exp walks the longest multiply-by-g tables: exp is
    # a permutation of 1 .. q - 1, sampled steps multiply by g = exp[1], and
    # g is the least x passing the (q - 1)/l power test, powers by mul_oracle
    for p, k in ((7, 4), (5, 5), (3, 8), (2, 13)):
        spec = field_build(p, k)
        q, exp = spec.q, spec.exp
        g = exp[1]
        assert sorted(exp) == list(range(1, q)), (p, k)
        for i in rng.sample(range(q - 2), 2000):
            assert exp[i + 1] == mul_oracle(spec, exp[i], g), (p, k, i)
        assert mul_oracle(spec, exp[-1], g) == 1, (p, k)
        factors = prime_factors(q - 1)

        def generates(x):
            return all(pow_oracle(spec, x, (q - 1) // ell) != 1 for ell in factors)

        assert generates(g), (p, k)
        assert not any(generates(x) for x in range(1, g)), (p, k)
        assert spec.log[g] == 1 and all(spec.log[x] == i for i, x in enumerate(exp)), (p, k)


def test_trace_table_matches_definition():
    # Tr(x) = sum_i x^(p^i), from spec.pow and digit-wise addition: every x
    # under every modulus of the small fields and of GF(2^7), and 300 seeded
    # x in each of the larger fields
    rng = random.Random(23)
    small = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2))
    cases = [
        (field_build(p, k, list(m)), range(p**k))
        for p, k in small
        for m in all_irreducible_moduli(p, k)
    ]
    cases.append((field_build(2, 7), range(2**7)))
    for p, k in ((3, 8), (2, 13), (7, 4), (5, 5), (97, 2)):
        cases.append((field_build(p, k), rng.sample(range(p**k), 300)))
    assert len(cases) == 1 + 2 + 3 + 3 + 8 + 10 + 21 + 1 + 5
    for spec, xs in cases:
        add, _ = _digitwise(spec)
        for x in xs:
            acc = 0
            for i in range(spec.k):
                acc = add(acc, spec.pow(x, spec.p**i))
            assert spec.traces[x] == acc, (spec, x)


def test_traces_come_from_the_modulus_alone():
    # Newton's identities read only the modulus: neither the discrete-log
    # lists nor the addition lists are built for the traces
    for p, k in ((3, 8), (2, 13)):
        spec = FieldSpec(p, k)  # not field_build's shared field, whose lists may exist
        assert len(spec.traces) == spec.q
        assert not {"exp", "log", "spread", "nspread", "reduce"} & set(vars(spec)), (p, k)


def _fp_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def test_fp_mod_returns_deg_m_coefficients():
    # a = quotient * m + r with deg r < deg m gives back r as exactly deg m
    # coefficients, zeros kept: a zero remainder is deg m zeros, and a
    # shorter than m comes back padded
    rng = random.Random(28)
    for p, k in ((2, 1), (2, 4), (3, 3), (5, 2), (7, 3), (13, 1)):
        for m in all_irreducible_moduli(p, k)[:3]:
            m = list(m)
            for n in range(5):
                quotient = [rng.randrange(p) for _ in range(n)] + [1]
                r = [rng.randrange(p) for _ in range(k)]
                a = [(x + y) % p for x, y in itertools.zip_longest(_fp_mul(quotient, m, p), r, fillvalue=0)]
                assert _fp_mod(a, m, p) == r, (p, m, a)
                assert _fp_mod(_fp_mul(quotient, m, p), m, p) == [0] * k, (p, m, quotient)
            assert _fp_mod([], m, p) == [0] * k
            short = [rng.randrange(p) for _ in range(k - 1)]
            assert _fp_mod(short, m, p) == short + [0], (p, m, short)


def test_linear_table_is_the_linear_map_of_its_images():
    # every input of len(images) digits maps to sum_d x_d images[d] mod p, as
    # len(images[0]) output digits: the shapes k -> k (exp's x g), k - 1 -> k
    # (the transform's fold) and no images at all
    rng = random.Random(29)
    for p, k in ((2, 1), (2, 2), (2, 5), (3, 1), (3, 2), (3, 4), (5, 3), (7, 2), (11, 1)):
        for n in (k, k - 1):
            for _ in range(3):
                images = [[rng.randrange(p) for _ in range(k)] for _ in range(n)]
                want = []
                for x in range(p**n):
                    digits = [x // p**d % p for d in range(n)]
                    out = [sum(x_d * img[t] for x_d, img in zip(digits, images)) % p for t in range(k)]
                    want.append(sum(c * p**t for t, c in enumerate(out)))
                assert _linear_table(p, images) == want, (p, images)
    assert _linear_table(5, []) == [0]


def test_discrete_logs_traces_and_transform_plan_build_no_reduce_list():
    # exp walks a _linear_table, traces come from the modulus and the plan's
    # fold is a _linear_table: none of them builds the (2p - 1)^k list
    for p, k in ((3, 8), (2, 13)):
        spec = FieldSpec(p, k)  # not field_build's shared field, whose lists may exist
        spec.exp, spec.log, spec.traces, spec._chirp_plan
        assert "reduce" not in set(vars(spec)), (p, k)


def test_poly_values_hands_out_copies():
    f = FieldPoly(F9, [1, 0, 3])
    first = poly_values(f)
    first[0] = (first[0] + 1) % 9
    assert poly_values(f) != first
    assert poly_values(f) == list(poly_table(FieldPoly(F9, [1, 0, 3])).values)


# -- element arguments: one rule (FieldSpec.encoding) at every entry point --

F9_OTHER = field_build(3, 2, [2, 1, 1])  # GF(9) under another modulus


def _bad_arguments(spec):
    """Arguments that are not elements of spec: bools, floats, strings,
    negative and out-of-range ints, and elements of another field."""
    other = F9_OTHER if spec == F9 else F9
    return [True, False, 1.0, 2.7, "3", -1, spec.q, 20, other.element(1)]


def _element_entry_points(spec):
    """Every library call that takes a field-element argument x over spec."""
    f = FieldPoly(spec, [1, 0, 1])  # X^2 + 1
    e = spec.element(1)
    return {
        "encoding": spec.encoding,
        "element": spec.element,
        "add": lambda x: e + x,
        "sub": lambda x: e - x,
        "mul": lambda x: e * x,
        "coeff": lambda x: FieldPoly(spec, [0, x]),
        "poly_eval": lambda x: poly_eval(f, x),
        "char_count_vector": lambda x: char_count_vector(f, x),
        "char_sum_abs_float": lambda x: char_sum_abs_float(f, x),
    }


@pytest.mark.parametrize("spec", [F7, F9], ids=["GF7", "GF9"])
def test_element_arguments_outside_the_field_are_refused(spec):
    for name, call in _element_entry_points(spec).items():
        for x in _bad_arguments(spec):
            with pytest.raises(ValueError):
                call(x)
                pytest.fail(f"{name}({x!r}) over GF({spec.q}) was accepted")


def test_element_rule_cases_that_used_to_pass():
    f = FieldPoly(F9, [0, 0, 1])
    g = FieldPoly(F7, [0, 0, 1])
    with pytest.raises(ValueError):
        char_count_vector(f, -1)  # once a negative list index: encoding 8, not 2
    with pytest.raises(ValueError):
        char_count_vector(f, 20)  # once an IndexError
    with pytest.raises(ValueError):
        char_count_vector(g, 7)  # once the trivial character (49, 0, ..., 0)
    with pytest.raises(ValueError):
        FieldPoly(F7, [True, 1.9, "3"])  # once coeffs (1, 1, 3)
    with pytest.raises(ValueError):
        poly_eval(g, 2.7)  # once evaluated at 2
    with pytest.raises(ValueError):
        F7.element(True)  # once stored value True
    with pytest.raises(ValueError):
        F7.element(3) + 10  # prime fields no longer reduce int operands mod p


@pytest.mark.parametrize("spec", [F7, F9], ids=["GF7", "GF9"])
def test_same_field_elements_and_in_range_ints_agree(spec):
    q = spec.q
    f = FieldPoly(spec, [2, 1, 0, 1])  # X^3 + X + 2
    values = poly_values(f)
    assert FieldPoly(spec, [spec.element(c) for c in (2, 1, 0, 1)]) == f
    for x in range(q):
        e = spec.element(x)
        assert spec.encoding(x) == spec.encoding(e) == x
        assert type(e.value) is int and spec.element(e) == e
        assert poly_eval(f, x) == poly_eval(f, e) == spec.element(values[x])
        one = spec.element(1)
        assert (one + x).value == (one + e).value == spec.add(1, x)
        assert (one - x).value == (one - e).value == spec.sub(1, x)
        assert (one * x).value == (one * e).value == x
        assert char_sum_abs_float(f, x) == char_sum_abs_float(f, e)
        if x:
            expected = char_count_vector_from_values(spec, values, x)
            assert char_count_vector(f, x) == char_count_vector(f, e) == expected
    assert (F7.element(3) + 4).value == 0
    assert (F9.element(3) + 3).value == 6  # alpha + alpha = 2 alpha


def test_field_build_checks_arguments_before_its_cache():
    assert field_build(7) is field_build(7, 1) == F7
    assert field_build(3, 2, [2, 2, 1]) is field_build(3, 2, (2, 2, 1))
    assert field_build(3, 2, [2, 2, 1]) != F9 and field_build(3, 2, [1, 0, 1]) == F9
    # True == 1 and 1.0 == 1 hash alike, so only the checks keep them out
    for args in ((7, True), (7, 1.0), (7.0, 1), (3, 2, [2, 2, True]), (3, 2, [2.0, 2, 1])):
        with pytest.raises(FieldConstructionError):
            field_build(*args)
    with pytest.raises(FieldConstructionError):
        field_build(3, 2, [0, 1, 1])  # reducible: a miss, and not cached
    with pytest.raises(FieldConstructionError):
        field_build(3, 2, [0, 1, 1])


def test_field_spec_refuses_non_int_parameters():
    with pytest.raises(FieldConstructionError):
        FieldSpec(3, True)
    with pytest.raises(FieldConstructionError):
        FieldSpec(3, 2.0)
    with pytest.raises(FieldConstructionError):
        FieldSpec(7.0, 1)
    with pytest.raises(FieldConstructionError):
        FieldSpec(3, 2, [1, 0, True])
    with pytest.raises(FieldConstructionError):
        FieldSpec(3, 2, [1.0, 0, 1])
    assert FieldSpec(3, 2, [1, 0, 1]) == F9


def test_frobenius_minima_are_the_least_of_each_orbit():
    for p, k in ((2, 1), (7, 1), (2, 4), (3, 2), (3, 3), (2, 6), (5, 2)):
        spec = field_build(p, k)
        orbits = set()
        for x in range(1, spec.q):
            orbit, y = [x], spec.pow(x, p)
            while y != x:
                orbit.append(y)
                y = spec.pow(y, p)
            orbits.add(min(orbit))
        assert spec.frobenius_minima == sorted(orbits), (p, k)
