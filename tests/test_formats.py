import json
import random

import pytest

from valuesets.formats import (
    InputFormatError,
    dumps_indented,
    function_table_to_dict,
    load_cayley_csv,
    load_code_assignment,
    load_function_table,
    load_poly,
    load_subset,
    save_function_table,
)
from valuesets.functable import FunctionTable


def test_json_round_trip(tmp_path):
    f = FunctionTable.from_values([0, 0, 1, 1, 2])
    path = tmp_path / "table.json"
    save_function_table(f, path)
    assert load_function_table(path) == f


def test_saved_table_is_the_indented_json_dump(tmp_path):
    path = tmp_path / "table.json"
    for values in ([0], [10**30, 7], [(j * 7919) ** 3 % (10**30 + 1) for j in range(500)]):
        f = FunctionTable.from_values(values)
        save_function_table(f, path)
        expected = json.dumps(function_table_to_dict(f), indent=2, sort_keys=True) + "\n"
        assert path.read_text() == expected


def _fuzz_value(rng, depth):
    """A random JSON-encodable value: every scalar json.dumps takes, nested
    dicts (str keys, or int, float, bool and None keys in a dict of their
    own) and lists or tuples, empty ones included."""
    scalars = [
        lambda: rng.randrange(-10**20, 10**20),
        lambda: rng.choice([0, 1, -1, True, False, None]),
        lambda: rng.choice([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e300, 2.5, -1 / 3]),
        lambda: "".join(rng.choice('ab\u00e9\u2603\U0001f600"\\/\n\t\x00\x1f\x7f ') for _ in range(rng.randrange(6))),
    ]
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(scalars)()
    shape = rng.randrange(6)
    n = rng.randrange(5)
    if shape == 0:
        keys = [str(rng.randrange(30)) + rng.choice(["", "\u00e9", '"']) for _ in range(n)]
        return {k: _fuzz_value(rng, depth - 1) for k in keys}
    if shape == 1:
        keys = rng.choice([[3, 1, 2], [2.5, -1.0], [True, False], [None], [0, 7]])
        return {k: _fuzz_value(rng, depth - 1) for k in keys}
    if shape == 2:
        return [rng.randrange(-10**30, 10**30) for _ in range(n)] + rng.choice([[], [True], [1.0], [False, 3]])
    if shape == 3:
        return tuple(_fuzz_value(rng, depth - 1) for _ in range(n))
    return [_fuzz_value(rng, depth - 1) for _ in range(n)]


def test_dumps_indented_equals_the_indented_json_dump():
    rng = random.Random(11)
    values = [{}, [], (), {"a": {}, "b": [], "c": [[]]}, [0], [True, 1], [1, True], "", None, 0.0]
    values += [_fuzz_value(rng, 4) for _ in range(3000)]
    for value in values:
        assert dumps_indented(value) == json.dumps(value, indent=2, sort_keys=True), value


def test_json_requires_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"values": [1, 2]}')
    with pytest.raises(InputFormatError):
        load_function_table(path)


def test_json_length_mismatch(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"domain_size": 3, "values": [1, 2]}')
    with pytest.raises(InputFormatError):
        load_function_table(path)


def test_json_table_accepts_only_integers(tmp_path):
    path = tmp_path / "bad.json"
    for text in (
        '{"domain_size": 3, "values": [true, 1.7, "2"]}',
        '{"domain_size": 3, "values": [0, 1, true]}',
        '{"domain_size": 2, "values": [0, 1.0]}',
        '{"domain_size": 2.0, "values": [0, 1]}',
        '{"domain_size": true, "values": [0]}',
        '{"domain_size": 2, "values": 5}',
    ):
        path.write_text(text)
        with pytest.raises(InputFormatError):
            load_function_table(path)


def test_csv_table(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("x,fx\n0,5\n2,5\n1,9\n")
    f = load_function_table(path)
    assert f.values == (5, 9, 5)


def test_csv_duplicate_point(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("0,5\n0,6\n1,2\n")
    with pytest.raises(InputFormatError):
        load_function_table(path)


def test_csv_gap_in_domain(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("0,5\n2,6\n")
    with pytest.raises(InputFormatError):
        load_function_table(path)


def test_csv_rows_must_be_two_integers(tmp_path):
    path = tmp_path / "bad.csv"
    for text, message in (
        ("x,fx\n", "CSV table has no data rows"),
        ("\n , \n", "CSV table has no data rows"),
        ("0,5,1\n1,2\n", "expected two integer columns, got ['0', '5', '1']"),
        ("x,fx\n0,5\n1,y\n", "expected two integer columns, got ['1', 'y']"),
        ("0,5\nx,fx\n", "expected two integer columns, got ['x', 'fx']"),
        ("0\n", "expected two integer columns, got ['0']"),
        ("0,a\n0,5\n1,6\n", "expected two integer columns, got ['0', 'a']"),
    ):
        path.write_text(text)
        with pytest.raises(InputFormatError) as exc:
            load_function_table(path)
        assert str(exc.value) == message
    path.write_text(" 1 , 7\n\n0,2\n")
    assert load_function_table(path).values == (2, 7)


def test_poly_inline_and_file(tmp_path):
    inline = '{"p": 7, "coeffs": [0, 0, 1]}'
    f = load_poly(inline)
    assert f.spec.q == 7 and f.coeffs == (0, 0, 1)
    path = tmp_path / "poly.json"
    path.write_text('{"p": 3, "k": 2, "modulus": [1, 0, 1], "coeffs": [0, 0, 3]}')
    g = load_poly(str(path))
    assert g.spec.q == 9 and g.spec.modulus == (1, 0, 1)


def test_poly_canonical_modulus_when_absent():
    f = load_poly('{"p": 3, "k": 2, "coeffs": [0, 1]}')
    assert f.spec.modulus == (1, 0, 1)


def test_poly_rejects_bad_specs():
    with pytest.raises(InputFormatError):
        load_poly('{"coeffs": [1]}')
    with pytest.raises(InputFormatError):
        load_poly('{"p": 3, "k": 2, "modulus": [0, 1, 1], "coeffs": [1]}')
    with pytest.raises(InputFormatError):
        load_poly('{"p": 4, "coeffs": [1]}')


def test_poly_spec_accepts_only_integers():
    for spec in (  # only JSON integers: no bools, floats or strings
        '{"p": 7.9, "coeffs": [true, 0, 1.5]}',
        '{"p": 7, "coeffs": [true, 0, 1]}',
        '{"p": 7, "coeffs": [1, 0, 1.5]}',
        '{"p": "7", "coeffs": [1]}',
        '{"p": 7, "coeffs": "1"}',
        '{"p": 3, "k": 2.0, "coeffs": [1]}',
        '{"p": 3, "k": true, "coeffs": [1]}',
        '{"p": 3, "k": 2, "modulus": [1, 0, true], "coeffs": [1]}',
        '{"p": 3, "k": 2, "modulus": "1,0,1", "coeffs": [1]}',
    ):
        with pytest.raises(InputFormatError):
            load_poly(spec)


def test_subset_inline_and_file(tmp_path):
    assert load_subset("[3, 1, 2]") == [3, 1, 2]
    path = tmp_path / "subset.json"
    path.write_text("[0, 4]")
    assert load_subset(str(path)) == [0, 4]
    with pytest.raises(InputFormatError):
        load_subset('["a"]')


def test_subset_accepts_only_integers():
    for text in ("[true, 2]", "[1.0]", '["1"]'):
        with pytest.raises(InputFormatError):
            load_subset(text)


def test_cayley_csv(tmp_path):
    path = tmp_path / "z3.csv"
    path.write_text("0,1,2\n1,2,0\n2,0,1\n")
    g = load_cayley_csv(path)
    assert g.order == 3 and g.op(1, 2) == 0


def test_code_assignment(tmp_path):
    path = tmp_path / "code.csv"
    path.write_text("c0,alert\nc1,alert\nc2,ok\nc3,ok\nc4,wind\nc5,rain\n")
    table, codewords, messages = load_code_assignment(path)
    assert table.domain_size == 6
    assert len(messages) == 4
    assert table.values == (0, 0, 1, 1, 2, 3)


def test_code_assignment_duplicate_codeword(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("c0,alert\nc0,ok\n")
    with pytest.raises(InputFormatError):
        load_code_assignment(path)


def test_function_table_format_sniffing(tmp_path):
    jpath = tmp_path / "noext"
    jpath.write_text(json.dumps({"domain_size": 2, "values": [1, 1]}))
    assert load_function_table(jpath).values == (1, 1)
