import itertools
import random

import pytest

from valuesets.conditions import (
    ClassificationBudgetError,
    _average_lemma_terms,
    ConditionProfile,
    classify_all,
    condition_profile,
    difference_table,
    index_to_values,
    mask_lattice_ok,
    n2_poly,
    poly_version_bounds,
    profile_from_values,
    up_invariant,
    verify_average_lemma,
    wsc_lower,
)
from valuesets.conditions import test_c1 as check_c1
from valuesets.conditions import test_c2 as check_c2
from valuesets.conditions import test_c3 as check_c3
from valuesets.conditions import test_c4 as check_c4
from valuesets.functable import FunctionTable, collision_count, image_count
from valuesets.gf import FieldPoly, field_build, poly_table, primitive_elements
from oracles import average_lemma_terms_oracle, poly_version_bounds_oracle

F5 = field_build(5)
F7 = field_build(7)
F9 = field_build(3, 2)


def poly(spec, coeffs):
    return FieldPoly(spec, coeffs)


def test_difference_table_linear():
    # f = X^2 gives difference maps 2aX + a^2, bijections for odd q
    f = poly(F7, [0, 0, 1])
    for a in range(1, 7):
        assert image_count(difference_table(f, a)) == 7


def test_difference_table_identity_and_constant():
    f = poly(F7, [0, 1])
    assert difference_table(f, 3).values == (3,) * 7
    c = poly(F7, [4])
    assert difference_table(c, 2).values == (0,) * 7
    with pytest.raises(ValueError):
        difference_table(f, 0)


def test_square_is_planar_over_f7():
    f = poly(F7, [0, 0, 1])
    assert check_c1(f) == (True, None)
    assert check_c2(f) == (True, None)
    assert check_c3(f) == (True, None)
    assert check_c4(f)
    assert n2_poly(f) == 6


def test_identity_fails_all():
    f = poly(F7, [0, 1])
    ok1, a1 = check_c1(f)
    ok3, a3 = check_c3(f)
    assert not ok1 and a1 == 1
    assert not ok3 and a3 == 1  # constant difference map has no root
    assert check_c2(f) == (False, 1)
    assert n2_poly(f) == 0 and not check_c4(f)


def test_quartic_with_even_terms_collides_heavily():
    # X^4 + 2X^2 takes the value 3 at +-1 and +-2 and the value 1 at +-3.
    # Evenness alone is not the cause (X^2 is even and planar): f(1) = f(2)
    # adds collisions, so N_2 = 4*3 + 2*1 = 14 != q - 1 and C1-C4 all fail
    f = poly(F7, [0, 0, 2, 0, 1])
    assert poly_table(f).values == (0, 3, 3, 1, 1, 3, 3)
    assert n2_poly(f) == 14
    profile = condition_profile(f)
    assert profile.mask == "0000"


def test_pure_quartic_separates_c1_from_c2_c3():
    f = poly(F7, [0, 0, 0, 0, 1])
    profile = condition_profile(f)
    assert (profile.c1, profile.c2, profile.c3, profile.c4) == (False, True, True, True)
    assert profile.n2 == 6
    assert profile.lattice_ok()


def test_mask_lattice_admits_exactly_the_consistent_masks():
    masks = ["".join(bits) for bits in itertools.product("01", repeat=4)]
    ok = {m for m in masks if mask_lattice_ok(m)}
    assert ok == {"0000", "0001", "0011", "0101", "0111", "1111"}
    for m in masks:
        c1, c2, c3, c4 = (b == "1" for b in m)
        profile = ConditionProfile(c1, c2, c3, c4, n2=0)
        assert profile.lattice_ok() == (m in ok)


def test_profile_to_dict_holds_every_field_and_the_mask():
    failing = ConditionProfile(
        False, False, False, True, n2=6, c1_witness=2, c2_witness=3, c3_witness=4, note="n"
    )
    assert failing.to_dict() == {
        "c1": False,
        "c2": False,
        "c3": False,
        "c4": True,
        "n2": 6,
        "c1_witness": 2,
        "c2_witness": 3,
        "c3_witness": 4,
        "note": "n",
        "mask": "0001",
    }
    assert condition_profile(poly(F7, [0, 0, 1])).to_dict() == {
        "c1": True,
        "c2": True,
        "c3": True,
        "c4": True,
        "n2": 6,
        "c1_witness": None,
        "c2_witness": None,
        "c3_witness": None,
        "note": None,
        "mask": "1111",
    }


def test_constant_profile():
    f = poly(F7, [3])
    profile = condition_profile(f)
    assert profile.mask == "0000"
    assert profile.n2 == 7 * 6


def test_even_characteristic_notes():
    f2 = field_build(2, 2)
    profile = condition_profile(poly(f2, [0, 0, 1]))
    assert not profile.c1 and not profile.c4
    assert profile.note is not None


def test_n2_matches_collision_count():
    rng = random.Random(5)
    for spec in (F5, F7, F9):
        for _ in range(20):
            f = poly(spec, [rng.randrange(spec.q) for _ in range(spec.q)])
            assert n2_poly(f) == collision_count(poly_table(f), 2)


def test_average_lemma_examples():
    total, ok = verify_average_lemma(poly(F5, [0, 0, 1]))
    assert (total, ok) == (20, True)
    for coeffs in ([0, 0, 1], [3, 1, 0, 2], [0, 1], [6, 6, 6, 6, 6]):
        total, ok = verify_average_lemma(poly(F7, coeffs))
        assert (total, ok) == (42, True)


def test_average_lemma_identity_hand_case():
    # f = X: the a = -1 shift collapses everything, all other shifts are 1-1
    for spec in (F5, F7, F9):
        q = spec.q
        total, ok = verify_average_lemma(poly(spec, [0, 1]))
        assert ok and total == q * (q - 1)


def test_average_lemma_random_fields():
    rng = random.Random(11)
    for p, k in ((3, 1), (5, 1), (7, 1), (3, 2), (13, 1)):
        spec = field_build(p, k)
        for _ in range(5):
            f = poly(spec, [rng.randrange(spec.q) for _ in range(spec.q)])
            _, ok = verify_average_lemma(f)
            assert ok


def test_average_lemma_terms_match_oracle():
    # the totals always equal q(q - 1), so compare N_2(f + aX) for each a:
    # every polynomial of degree below 3 over q <= 9, and sampled dense
    # polynomials over the fields of the profile-fields benchmark workload
    for p, k in ((2, 1), (3, 1), (2, 2), (2, 3), (3, 2)):
        spec = field_build(p, k)
        for coeffs in itertools.product(range(spec.q), repeat=3):
            f = poly(spec, coeffs)
            assert _average_lemma_terms(f) == average_lemma_terms_oracle(f), f
    rng = random.Random(23)
    for p, k in ((7, 2), (3, 4), (5, 3), (127, 1), (2, 7), (251, 1)):
        spec = field_build(p, k)
        for _ in range(2):
            f = poly(spec, [rng.randrange(spec.q) for _ in range(spec.q)])
            terms = _average_lemma_terms(f)
            assert terms == average_lemma_terms_oracle(f), f
            assert terms[0] == n2_poly(f) and verify_average_lemma(f) == (sum(terms), True)


def test_poly_version_bounds():
    r = poly_version_bounds(7)
    assert (r.lower_int, r.upper_int) == (4, 5)
    r = poly_version_bounds(3)
    assert (r.lower_int, r.upper_int) == (2, 2)
    r = poly_version_bounds(9)
    assert (r.lower_int, r.upper_int) == (5, 6)


def test_poly_version_bounds_match_oracle():
    # odd q - 1 too: the hypothesis report does not check parity
    for q in range(2, 5001):
        got, want = poly_version_bounds(q), poly_version_bounds_oracle(q)
        assert got == want, q
        d, e = got.to_dict(), want.to_dict()
        assert d == e and list(d["provenance"]) == list(e["provenance"]), q


def test_planar_meets_poly_version_lower_bound():
    for spec in (F5, F7, field_build(11), field_build(3, 2)):
        q = spec.q
        f = poly(spec, [0, 0, 1])
        profile = condition_profile(f)
        assert profile.c1  # X^2 is planar for odd q
        v = image_count(poly_table(f))
        assert v >= poly_version_bounds(q).lower_int
        assert v == (q + 1) // 2


def test_up_invariant():
    for spec in (F5, F7, F9):
        q = spec.q
        assert up_invariant(poly(spec, [0, 1])) == q - 1
        assert wsc_lower(poly(spec, [0, 1])) == q
    assert up_invariant(poly(F5, [0, 0, 1])) == 2
    assert wsc_lower(poly(F5, [0, 0, 1])) == 3
    assert up_invariant(poly(F7, [0])) is None
    assert wsc_lower(poly(F7, [0])) is None


def test_wsc_bound_holds_on_random_polys():
    rng = random.Random(17)
    for spec in (F5, F7, F9):
        for _ in range(20):
            f = poly(spec, [rng.randrange(spec.q) for _ in range(spec.q)])
            bound = wsc_lower(f)
            if bound is not None:
                assert image_count(poly_table(f)) >= bound


def test_index_round_trip():
    for q in (3, 5):
        for idx in (0, 1, q, q**q - 1, 12345 % q**q):
            vals = index_to_values(idx, q)
            assert sum(v * q ** (q - 1 - i) for i, v in enumerate(vals)) == idx
    assert index_to_values(0, 3) == [0, 0, 0]
    assert index_to_values(5, 3) == [0, 1, 2]  # lexicographic order


def test_profile_from_values_matches_public_ops():
    from valuesets.gf import interpolate

    rng = random.Random(23)
    for spec in (F5, F7, F9):
        q = spec.q
        for _ in range(15):
            values = [rng.randrange(q) for _ in range(q)]
            f = interpolate(FunctionTable(q, tuple(values)), spec)
            profile = profile_from_values(spec, values)
            assert profile.c1 == check_c1(f)[0]
            assert profile.c2 == check_c2(f)[0]
            assert profile.c3 == check_c3(f)[0]
            assert profile.c4 == check_c4(f)


def test_lattice_on_random_polys():
    rng = random.Random(31)
    for p, k in ((7, 1), (3, 2), (11, 1)):
        spec = field_build(p, k)
        for _ in range(25):
            f = poly(spec, [rng.randrange(spec.q) for _ in range(min(spec.q, 6))])
            assert condition_profile(f).lattice_ok()


def test_classify_q3():
    summary = classify_all(3)
    assert summary.total == 27
    assert summary.mask_counts == {"0000": 9, "1111": 18}
    # C2 and C3 cut out the same functions over F_3
    assert summary.count_where(c2=True, c3=False) == 0
    assert summary.count_where(c2=False, c3=True) == 0


def test_classify_q5():
    summary = classify_all(5)
    assert summary.total == 3125
    assert summary.mask_counts == {
        "0000": 2225,
        "0001": 400,
        "0011": 200,
        "0101": 200,
        "1111": 100,
    }
    # C2 and C3 differ as sets, but their intersection is exactly C1
    assert summary.count_where(c2=True, c3=False) > 0
    assert summary.count_where(c1=False, c2=True, c3=True) == 0


def test_classify_budget_refusal():
    with pytest.raises(ClassificationBudgetError):
        classify_all(9)  # 9^9 over the default budget


def test_classify_refuses_a_non_int_budget():
    for budget in (1.5, None, "27", 10.0**6):
        with pytest.raises(ValueError, match="budget"):
            classify_all(3, budget=budget)


def test_classify_shard_invariance():
    for q in (3, 5):
        one = classify_all(q, jobs=1)
        two = classify_all(q, jobs=2)
        assert one.mask_counts == two.mask_counts
        assert one.witness_indices == two.witness_indices
        assert one.witness_polys == two.witness_polys


def test_classify_refuses_jobs_below_one():
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            classify_all(3, jobs=jobs)


def test_classify_witnesses_interpolate_back():
    summary = classify_all(5)
    spec = field_build(5)
    for mask, coeffs in summary.witness_polys.items():
        f = FieldPoly(spec, coeffs)
        assert condition_profile(f).mask == mask
        idx = summary.witness_indices[mask]
        assert poly_table(f).values == tuple(index_to_values(idx, 5))


def test_exact_c2_matches_float_threshold_exhaustively():
    # the integer count-vector decision agrees with the floating magnitude
    # threshold on every value table over GF(3) and GF(5)
    import cmath
    import itertools

    from oracles import char_count_vector_from_values, char_sum_sq_is_q

    for q in (3, 5):
        spec = field_build(q)
        omega = cmath.exp(2j * cmath.pi / q)
        for values in itertools.product(range(q), repeat=q):
            exact = all(
                char_sum_sq_is_q(char_count_vector_from_values(spec, values, h))
                for h in range(1, q)
            )
            floated = all(
                abs(abs(sum(omega ** ((h * v) % q) for v in values)) ** 2 - q)
                < 1e-6 * q
                for h in range(1, q)
            )
            assert exact == floated


def test_f9_separating_examples_every_primitive_and_modulus():
    # X^7 + gX^2 meets the character-sum condition but not the unique-root
    # condition; X^8 + gX^2 the reverse.  Holds for every primitive g and
    # every irreducible modulus choice.
    from valuesets.gf import all_irreducible_moduli

    for modulus in all_irreducible_moduli(3, 2):
        spec = field_build(3, 2, list(modulus))
        prims = primitive_elements(spec)
        assert len(prims) == 4
        for g in prims:
            f7g = poly(spec, [0, 0, g.value, 0, 0, 0, 0, 1])
            p7 = condition_profile(f7g)
            assert (p7.c2, p7.c3) == (True, False)
            f8g = poly(spec, [0, 0, g.value, 0, 0, 0, 0, 0, 1])
            p8 = condition_profile(f8g)
            assert (p8.c2, p8.c3) == (False, True)


def test_difference_table_shift_follows_the_element_rule():
    f = poly(F9, [0, 0, 1])
    other = field_build(3, 2, [2, 1, 1])
    for a in (True, 1.0, 2.7, "3", -1, 9, 20, other.element(1), F7.element(1)):
        with pytest.raises(ValueError):
            difference_table(f, a)
    for a in range(1, 9):
        table = difference_table(f, a)
        assert difference_table(f, F9.element(a)) == table
        assert table.values == tuple(
            F9.sub(F9.mul(F9.add(x, a), F9.add(x, a)), F9.mul(x, x)) for x in range(9)
        )
