import dataclasses
import random

import pytest

from valuesets.energy import (
    GroupAxiomError,
    GroupSpec,
    SubsetPair,
    energy,
    energy_bounds,
    multiplication_table,
    n2_from_energy,
    product_set,
)
from valuesets.functable import collision_count
from oracles import EnumerationBudgetError, energy_bounds_oracle, energy_oracle

# S_3 as permutation composition; element 0 is the identity
S3_TABLE = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 4, 5, 2, 3],
    [2, 3, 0, 1, 5, 4],
    [3, 2, 5, 4, 0, 1],
    [4, 5, 1, 0, 3, 2],
    [5, 4, 3, 2, 1, 0],
]

# a Latin square with identity and two-sided inverses that is not associative
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_product_set_examples():
    z10 = GroupSpec.cyclic(10)
    pair = SubsetPair(z10, (0, 1), (0, 1))
    assert product_set(pair) == (0, 1, 2)
    single = SubsetPair(z10, (0,), (3, 5, 7))
    assert product_set(single) == (3, 5, 7)
    full = SubsetPair(GroupSpec.cyclic(5), tuple(range(5)), tuple(range(5)))
    assert product_set(full) == (0, 1, 2, 3, 4)


def test_energy_examples():
    z10 = GroupSpec.cyclic(10)
    assert energy(SubsetPair(z10, (0, 1), (0, 1))) == 6
    assert energy(SubsetPair(z10, (4,), (0, 2, 5))) == 3  # singleton: |B|
    full = SubsetPair(GroupSpec.cyclic(5), tuple(range(5)), tuple(range(5)))
    assert energy(full) == 125


def test_energy_matches_oracle():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randrange(2, 15)
        g = GroupSpec.cyclic(n)
        a = tuple(rng.sample(range(n), rng.randrange(1, n + 1)))
        b = tuple(rng.sample(range(n), rng.randrange(1, n + 1)))
        pair = SubsetPair(g, a, b)
        assert energy(pair) == energy_oracle(pair)


def test_oracle_budget():
    g = GroupSpec.cyclic(50)
    pair = SubsetPair(g, tuple(range(50)), tuple(range(50)))
    with pytest.raises(EnumerationBudgetError):
        energy_oracle(pair, budget=1000)


def test_n2_from_energy():
    z10 = GroupSpec.cyclic(10)
    assert n2_from_energy(SubsetPair(z10, (0, 1), (0, 1))) == 2
    assert n2_from_energy(SubsetPair(z10, (4,), (0, 2, 5))) == 0
    full = SubsetPair(GroupSpec.cyclic(5), tuple(range(5)), tuple(range(5)))
    assert n2_from_energy(full) == 100


def test_n2_matches_multiplication_table():
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randrange(2, 12)
        g = GroupSpec.cyclic(n)
        a = tuple(rng.sample(range(n), rng.randrange(1, n + 1)))
        b = tuple(rng.sample(range(n), rng.randrange(1, n + 1)))
        pair = SubsetPair(g, a, b)
        assert n2_from_energy(pair) == collision_count(multiplication_table(pair), 2)


def test_a_pair_tallies_its_products_once():
    calls = []

    def op(i, j):
        calls.append((i, j))
        return (i + j) % 12

    pair = SubsetPair(GroupSpec("counted", 12, op, 0), (0, 1, 5, 9), (2, 3, 7))
    fresh = SubsetPair(pair.group, pair.a, pair.b)
    report = energy_bounds(pair)
    products = product_set(pair)
    assert energy(pair) == report.extras["energy"]
    assert n2_from_energy(pair) == energy(pair) - 12
    assert len(calls) == 4 * 3
    assert products == tuple(sorted({op(a, b) for a in pair.a for b in pair.b}))
    assert [f.name for f in dataclasses.fields(SubsetPair)] == ["group", "a", "b"]
    assert pair == fresh and hash(pair) == hash(fresh) and repr(pair) == repr(fresh)


def test_energy_bounds_examples():
    z10 = GroupSpec.cyclic(10)
    r = energy_bounds(SubsetPair(z10, (0, 1), (0, 1)))
    assert (r.lower_int, r.upper_int) == (3, 3)

    full = SubsetPair(GroupSpec.cyclic(5), tuple(range(5)), tuple(range(5)))
    r = energy_bounds(full)
    assert r.lower_int == 1 and "clamped" in r.provenance["lower"]
    assert r.upper_int == 15
    assert r.lower_int <= len(product_set(full)) <= r.upper_int

    singleton = SubsetPair(z10, (2,), (0, 1, 2, 3))
    r = energy_bounds(singleton)
    assert (r.lower_int, r.upper_int) == (4, 4)


def test_energy_bounds_sandwich_random():
    rng = random.Random(77)
    for _ in range(50):
        n = rng.randrange(2, 20)
        g = GroupSpec.cyclic(n)
        a = tuple(rng.sample(range(n), rng.randrange(1, n + 1)))
        b = tuple(rng.sample(range(n), rng.randrange(1, n + 1)))
        pair = SubsetPair(g, a, b)
        r = energy_bounds(pair)
        assert r.lower_int <= len(product_set(pair)) <= r.upper_int


def test_energy_bounds_match_oracle():
    rng = random.Random(78)
    groups = [GroupSpec.cyclic(n) for n in (1, 2, 7, 12, 31)]
    groups += [GroupSpec.product_of_cyclics(o) for o in ((2, 3), (4, 6, 5))]
    groups.append(GroupSpec.from_cayley(S3_TABLE))
    for g in groups:
        for _ in range(40):
            a = tuple(rng.sample(range(g.order), rng.randrange(1, g.order + 1)))
            b = tuple(rng.sample(range(g.order), rng.randrange(1, g.order + 1)))
            pair = SubsetPair(g, a, b)
            got, want = energy_bounds(pair), energy_bounds_oracle(pair)
            assert got == want, pair
            d, e = got.to_dict(), want.to_dict()
            assert d == e and list(d["provenance"]) == list(e["provenance"]), pair
            assert list(d["extras"]) == list(e["extras"]), pair


def test_product_of_cyclics():
    g = GroupSpec.product_of_cyclics((2, 3))
    assert g.order == 6
    # (1,0)+(1,0) = (0,0); encoding: index = i0 + 2*i1
    assert g.op(1, 1) == 0
    assert g.op(2, 4) == 0  # (0,1)+(0,2) = (0,0)
    pair = SubsetPair(g, (0, 1), (0, 2))
    assert energy(pair) == energy_oracle(pair)


def test_cayley_s3():
    g = GroupSpec.from_cayley(S3_TABLE)
    assert g.order == 6 and g.identity == 0
    assert g.op(1, 2) == 4 and g.op(2, 1) == 3  # nonabelian
    rng = random.Random(13)
    for _ in range(20):
        a = tuple(rng.sample(range(6), rng.randrange(1, 7)))
        b = tuple(rng.sample(range(6), rng.randrange(1, 7)))
        pair = SubsetPair(g, a, b)
        assert energy(pair) == energy_oracle(pair)
        assert n2_from_energy(pair) == collision_count(multiplication_table(pair), 2)
        r = energy_bounds(pair)
        assert r.lower_int <= len(product_set(pair)) <= r.upper_int


def test_cayley_validation():
    with pytest.raises(GroupAxiomError):
        GroupSpec.from_cayley([[0, 1], [1, 1]])  # not a Latin square
    with pytest.raises(GroupAxiomError):
        # Latin square (Steiner quasigroup) with no two-sided identity
        GroupSpec.from_cayley([[0, 2, 1], [2, 1, 0], [1, 0, 2]])
    with pytest.raises(GroupAxiomError):
        GroupSpec.from_cayley(NONASSOC_LOOP)  # loop but not associative
    with pytest.raises(GroupAxiomError):
        GroupSpec.from_cayley([[0, 2], [2, 0]])  # out-of-range entries


@pytest.mark.parametrize(
    "table, message",
    [
        ([], "square and non-empty"),
        ([[0, 1], [0, 1]], "column 0 is not a permutation"),  # every row is one
        # a Latin square with identity 0 in which 2 * 3 = 0 but 3 * 2 = 1
        (
            [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]],
            "element 2 has no two-sided inverse",
        ),
    ],
)
def test_cayley_refusals_name_the_axiom(table, message):
    with pytest.raises(GroupAxiomError, match=message):
        GroupSpec.from_cayley(table)


def test_subset_validation():
    g = GroupSpec.cyclic(6)
    with pytest.raises(ValueError):
        SubsetPair(g, (0, 0), (1,))
    with pytest.raises(ValueError):
        SubsetPair(g, (0,), (7,))
    with pytest.raises(ValueError):
        SubsetPair(g, (), (1,))
    pair = SubsetPair(g, (3, 1), (2,))
    assert pair.a == (1, 3)  # normalized to sorted order


def test_group_orders_must_be_ints():
    for n in (2.5, True, 3.0, "3"):
        with pytest.raises(GroupAxiomError):
            GroupSpec.cyclic(n)  # 2.5 and True once built groups
    with pytest.raises(GroupAxiomError):
        GroupSpec.product_of_cyclics([2.0, 3])  # once a group of order 6.0
    with pytest.raises(GroupAxiomError):
        GroupSpec.product_of_cyclics([2, True])
    assert GroupSpec.product_of_cyclics([2, 3]).order == 6


def test_cayley_entries_must_be_ints():
    with pytest.raises(GroupAxiomError):
        GroupSpec.from_cayley([[0, True], [True, 0]])  # once accepted
    with pytest.raises(GroupAxiomError):
        GroupSpec.from_cayley([[0, 1.0], [1.0, 0]])
    assert GroupSpec.from_cayley([[0, 1], [1, 0]]).order == 2


def test_subset_elements_must_be_ints():
    g = GroupSpec.cyclic(5)
    with pytest.raises(ValueError):
        SubsetPair(g, (0.5, 1), (True, 2))  # once the product set (1.5, 2, 2.5, 3)
    with pytest.raises(ValueError):
        SubsetPair(g, (0,), (True,))
    with pytest.raises(ValueError):
        SubsetPair(g, ("1",), (1,))  # once a TypeError
    with pytest.raises(ValueError):
        SubsetPair(g, ("1", 1), (1,))
