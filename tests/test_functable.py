import dataclasses
import io
import itertools
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from valuesets import functable
from valuesets.bounds import construct_lower_tight, construct_upper_tight
from valuesets.formats import load_code_assignment, load_function_table
from valuesets.functable import (
    FunctionTable,
    MultiplicitySpectrum,
    collision_count,
    falling_factorial,
    image_count,
    spectrum,
)
from oracles import EnumerationBudgetError, collision_count_oracle, spectrum_oracle

tables = st.lists(st.integers(0, 8), min_size=1, max_size=12).map(
    FunctionTable.from_values
)


def test_spectrum_injective():
    s = spectrum(FunctionTable.identity(5))
    assert s.m == 1 and s.counts[1] == 5
    assert image_count(FunctionTable.identity(5)) == 5


def test_spectrum_constant():
    s = spectrum(FunctionTable.constant(4))
    assert s.m == 4 and s.counts[4] == 1
    assert image_count(FunctionTable.constant(4)) == 1


def test_spectrum_mixed():
    f = FunctionTable.from_values([0, 0, 1, 1, 2])
    s = spectrum(f)
    assert s.m == 2
    assert s.multiplicity(1) == 1 and s.multiplicity(2) == 2
    assert s.multiplicity(3) == 0
    assert image_count(f) == 3
    with pytest.raises(ValueError, match="must be >= 1"):
        s.multiplicity(0)


@pytest.mark.parametrize(
    "n, m, counts, message",
    [
        (3, 2, (0, 1), "indexed 0..m"),  # one entry short
        (3, 2, (1, 1, 1), "indexed 0..m"),  # counts[0] != 0
        (2, 2, (0, 2, 0), "counts\\[m\\] must be positive"),
        (5, 2, (0, 1, 1), "must equal the domain size"),  # 1 + 2 != 5
    ],
)
def test_spectrum_refuses_inconsistent_counts(n, m, counts, message):
    with pytest.raises(ValueError, match=message):
        MultiplicitySpectrum(n, m, counts)


def test_table_values_are_stored_as_a_tuple():
    f = FunctionTable(3, [0, 1, 1])
    assert f.values == (0, 1, 1) and isinstance(f.values, tuple)
    assert f == FunctionTable.from_values((0, 1, 1))


def test_labels_need_only_equality():
    f = FunctionTable.from_values([1000, 7, 1000, 999999])
    assert image_count(f) == 3
    assert spectrum(f).multiplicity(2) == 1


def test_falling_factorial():
    assert falling_factorial(3, 3) == 6
    assert falling_factorial(2, 3) == 0  # too few objects
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(0, 0) == 1
    with pytest.raises(ValueError):
        falling_factorial(-1, 2)


def test_collision_count_examples():
    assert collision_count(FunctionTable.identity(5), 2) == 0
    assert collision_count(FunctionTable.constant(4), 2) == 12
    assert collision_count(FunctionTable.constant(4), 3) == 24
    assert collision_count(FunctionTable.from_values([0, 0, 1, 1, 2]), 2) == 4


def test_collision_count_rejects_small_s():
    with pytest.raises(ValueError):
        collision_count(FunctionTable.identity(3), 1)


def test_collision_count_accepts_only_int_orders():
    f = FunctionTable.constant(4)
    for bad in (2.0, 2.5, "2", True, None, 0, -3):  # bool is an int subclass
        with pytest.raises(ValueError, match="integer >= 2"):
            collision_count(f, bad)


def test_oracle_examples():
    assert collision_count_oracle(FunctionTable.from_values([0, 0, 1, 1, 2]), 2) == 4
    assert collision_count_oracle(FunctionTable.constant(4), 3) == 24
    for s in (2, 3, 4):
        assert collision_count_oracle(FunctionTable.identity(6), s) == 0


def test_oracle_refuses_over_budget():
    f = FunctionTable.identity(40)
    with pytest.raises(EnumerationBudgetError):
        collision_count_oracle(f, 8)
    # an explicit smaller budget trips earlier
    with pytest.raises(EnumerationBudgetError):
        collision_count_oracle(f, 2, budget=100)


def test_validation():
    with pytest.raises(ValueError):
        FunctionTable(3, (0, 1))
    with pytest.raises(ValueError):
        FunctionTable(0, ())
    with pytest.raises(ValueError):
        FunctionTable.from_values([0, -1])


def test_validation_accepts_only_ints():
    for bad in ([0, True], [0, 1.0], [0, "1"]):  # bool is an int subclass
        with pytest.raises(ValueError):
            FunctionTable.from_values(bad)
    with pytest.raises(ValueError):
        FunctionTable(True, (0,))


def test_exhaustive_small_oracle_agreement():
    for n in range(1, 5):
        for values in itertools.product(range(3), repeat=n):
            f = FunctionTable.from_values(values)
            for s in (2, 3, 4):
                assert collision_count(f, s) == collision_count_oracle(f, s)
            assert spectrum(f) == spectrum_oracle(f)
            assert image_count(f) == len(set(values))


@given(tables)
@settings(max_examples=200)
def test_spectrum_matches_oracle(f):
    assert spectrum(f) == spectrum_oracle(f)
    assert image_count(f) == len(set(f.values))


def test_one_tally_per_table(monkeypatch):
    tallied = []

    def counting_counter(*args):
        tallied.extend(args)
        return Counter(*args)

    monkeypatch.setattr(functable, "Counter", counting_counter)
    f = FunctionTable.from_values([4, 4, 4, 1, 1, 7, 0, 0, 0, 0])
    assert tallied == []
    assert image_count(f) == 4
    assert [collision_count(f, s) for s in (2, 3, 4)] == [20, 30, 24]
    assert spectrum(f).counts == (0, 1, 1, 1, 1)
    assert image_count(f) == 4
    assert sum(arg is f.values for arg in tallied) == 1


def test_cached_spectrum_is_invisible():
    values = (3, 3, 0, 5, 3, 0)
    f = FunctionTable.from_values(values)
    stats = (image_count(f), collision_count(f, 2), spectrum(f))
    fresh = FunctionTable.from_values(values)
    assert f == fresh and hash(f) == hash(fresh) and repr(f) == repr(fresh)
    assert [fld.name for fld in dataclasses.fields(f)] == ["domain_size", "values"]
    for twin in (pickle.loads(pickle.dumps(f)), dataclasses.replace(f)):
        assert twin == f and hash(twin) == hash(f) and twin.values == values
        assert (image_count(twin), collision_count(twin, 2), spectrum(twin)) == stats
    # a replaced table is tallied from its own values, not from f's spectrum
    other = dataclasses.replace(f, values=(1,) * 6)
    assert (image_count(other), collision_count(other, 2)) == (1, 30)
    assert spectrum(other) == spectrum_oracle(other)


def test_built_and_loaded_tables_carry_no_spectrum():
    code = "c0,yes\nc1,no\nc2,yes\n"
    tables = [
        construct_lower_tight(9, 4),
        construct_upper_tight(12, 4),
        load_function_table(io.StringIO('{"domain_size": 3, "values": [2, 2, 0]}')),
        load_function_table(io.StringIO("x,fx\n0,2\n1,2\n2,0\n")),
        load_code_assignment(io.StringIO(code))[0],
    ]
    for f in tables:
        assert "_spectrum" not in vars(f)
        assert spectrum(f) == spectrum_oracle(f)
        assert "_spectrum" in vars(f)


@given(tables)
@settings(max_examples=200)
def test_identity_sum_of_counts_is_image_count(f):
    s = spectrum(f)
    assert sum(s.counts) == image_count(f)


@given(tables)
@settings(max_examples=200)
def test_identity_weighted_counts_is_domain_size(f):
    s = spectrum(f)
    assert sum(r * c for r, c in enumerate(s.counts)) == f.domain_size


@given(tables, st.sampled_from([2, 3, 4]))
@settings(max_examples=300)
def test_collision_count_matches_oracle(f, s):
    assert collision_count(f, s) == collision_count_oracle(f, s)


@given(tables)
@settings(max_examples=200)
def test_pair_collisions_even(f):
    assert collision_count(f, 2) % 2 == 0


@given(tables)
@settings(max_examples=200)
def test_singleton_count_floor(f):
    s = spectrum(f)
    assert s.multiplicity(1) >= max(0, f.domain_size - collision_count(f, 2))


@given(tables, st.sampled_from([2, 3, 4]))
@settings(max_examples=300)
def test_low_multiplicity_mass_floor(f, s):
    # sum of r*M_r below s is at least n - N_s + m(m-2) when m >= s
    spec = spectrum(f)
    if spec.m < s:
        return
    low_mass = sum(r * spec.counts[r] for r in range(1, s))
    floor = max(0, f.domain_size - collision_count(f, s) + spec.m * (spec.m - 2))
    assert low_mass >= floor
