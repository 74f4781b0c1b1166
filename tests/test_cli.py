import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from valuesets import cli, formats, gf
from valuesets.bounds import BK_LIMIT, _bk, triangular_B
from valuesets.cli import main
from valuesets.conditions import ClassificationSummary


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_stats(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text('{"domain_size": 5, "values": [0, 0, 1, 1, 2]}')
    code, report = run_cli(capsys, "stats", str(path))
    assert code == 0
    r = report["result"]
    assert r["image_count"] == 3
    assert r["collision_count_2"] == 4
    assert r["n2_even"] and r["m1_lower"] == 1
    assert report["manifest"]["subcommand"] == "stats"
    assert str(path) in report["manifest"]["input_digests"]


def test_stats_identity_and_constant(tmp_path, capsys):
    p1 = tmp_path / "id.csv"
    p1.write_text("".join(f"{i},{i}\n" for i in range(5)))
    code, report = run_cli(capsys, "stats", str(p1))
    assert code == 0
    assert report["result"]["image_count"] == 5
    assert report["result"]["collision_count_2"] == 0

    p2 = tmp_path / "const.json"
    p2.write_text('{"domain_size": 4, "values": [7, 7, 7, 7]}')
    code, report = run_cli(capsys, "stats", str(p2))
    assert report["result"]["image_count"] == 1
    assert report["result"]["collision_count_2"] == 12


def test_stats_malformed_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["stats", str(path)]) == 2


def test_bounds(capsys):
    code, report = run_cli(capsys, "bounds", "--n", "10", "--s", "2", "--t", "4")
    assert code == 0
    assert report["result"]["lower_int"] == 8
    assert report["result"]["upper_int"] == 8


def test_bounds_parity_error(capsys):
    assert main(["bounds", "--n", "10", "--s", "2", "--t", "3"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "10", "--t", "1000"],  # t > P(10, 2) = 90
        ["--n", "-3", "--t", "2"],
        ["--n", "0", "--t", "0"],
        ["--n", "10", "--s", "3", "--t", "100000"],  # t > P(10, 3) = 720
        ["--n", "10", "--t", "-2"],
        ["--n", str(10**320), "--t", "4"],  # float(n - ...) overflows
        ["--n", str(10**320), "--s", "3", "--t", "6"],  # float(upper) overflows
        ["--n", str(10**200), "--t", str(2 * 10**398 + 2)],  # sqrt(4t + 1) overflows
    ],
)
def test_bounds_outside_domain_exits_2(capsys, argv):
    assert main(["bounds", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and ("--n must" in captured.err or "--t must" in captured.err)


def test_bounds_domain_boundary(capsys):
    code, report = run_cli(capsys, "bounds", "--n", "10", "--t", "90")  # a constant map
    assert code == 0
    assert report["result"]["lower_int"] <= 1 <= report["result"]["upper_int"]


def test_bounds_limit_is_inclusive(capsys):
    n = cli.BOUNDS_LIMIT
    code, report = run_cli(capsys, "bounds", "--n", str(n), "--t", "4")
    assert code == 0
    assert report["result"]["lower_int"] == report["result"]["upper_int"] == n - 2


def test_bounds_s_limit(capsys, monkeypatch):
    s = cli.BOUNDS_S_LIMIT
    code, report = run_cli(capsys, "bounds", "--n", "5", "--s", str(s), "--t", "0")
    assert code == 0
    assert (report["result"]["lower_int"], report["result"]["upper_int"]) == (1, 5)  # ceil(5/999), n

    def refuse(*args):
        raise AssertionError("P(n, s) computed above the limit")

    monkeypatch.setattr(cli.math, "perm", refuse)
    for n, t in ((str(10**300), "5"), ("5", "0")):
        assert main(["bounds", "--n", n, "--s", str(s + 1), "--t", t]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"BOUNDS_S_LIMIT = {s}" in captured.err


def test_bounds_refusal_computes_the_falling_factorial_once(capsys, monkeypatch):
    calls = []
    perm = cli.math.perm

    def counting(*args):
        calls.append(args)
        return perm(*args)

    monkeypatch.setattr(cli.math, "perm", counting)
    for n, s, t in ((10, 2, 91), (10, 3, 721), (5, 6, 1), (10**300, 1000, -4), (10, 2, -2)):
        calls.clear()
        assert main(["bounds", "--n", str(n), "--s", str(s), "--t", str(t)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--t must lie in [0, P(n, s)]" in captured.err
        assert f"got {t}" in captured.err
        if t < 0:  # a negative t is refused before P(n, s) is computed
            assert calls == []
        else:
            assert calls == [(n, s)]
            assert f"[0, {perm(n, s)}]" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--n", "5", "--t", "2", "--jobs", "7"],
        ["bounds", "--n", "5", "--t", "2", "--seed", "3"],
        ["field", "--p", "3", "--budget", "9"],
        ["verify-lemma", "--q", "5", "--jobs", "2"],
        ["classify", "--q", "3", "--seed", "1"],
    ],
)
def test_subcommands_refuse_options_they_do_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_manifest_keeps_default_seed_and_jobs(capsys):
    _, report = run_cli(capsys, "bounds", "--n", "10", "--t", "4")
    manifest = report["manifest"]
    assert (manifest["seed"], manifest["jobs"]) == (0, 1)
    assert manifest["options"] == {"n": 10, "s": 2, "t": 4, "subcommand": "bounds"}


def test_bk(capsys):
    code, report = run_cli(capsys, "bk", "--k", "10")
    assert code == 0
    assert report["result"]["b_k"] == 4
    assert report["result"]["witness_parts"] == [5]


@pytest.mark.parametrize(
    "argv",
    [
        ["bk", "--k", "100000000"],
        ["bounds", "--n", "20001", "--t", "400000000"],
    ],
)
def test_large_bk_finishes(capsys, argv):
    _bk.cache_clear()
    start = time.perf_counter()
    code, report = run_cli(capsys, *argv)
    assert code == 0 and time.perf_counter() - start < 2.0
    if argv[0] == "bk":
        assert report["result"]["b_k"] == 14286
        assert sum(report["result"]["witness_triangulars"]) == 100000000
    else:
        assert report["result"]["extras"]["b_k"] == triangular_B(200000000)[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["bk", "--k", str(BK_LIMIT + 1)],
        ["bounds", "--n", "10000000000000", "--t", str(2 * BK_LIMIT + 2)],
        ["construct", "--kind", "upper", "--n", "10", "--t", str(2 * BK_LIMIT + 2)],
    ],
)
def test_bk_above_limit_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "B_k is computed for k <=" in captured.err


def test_construct_lower(capsys):
    code, report = run_cli(capsys, "construct", "--n", "6", "--t", "4")
    assert code == 0
    r = report["result"]
    assert r["achieved_image_count"] == 4 == r["target_image_count"]
    assert r["achieved_collision_count"] == 4
    assert r["table"]["values"] == [0, 0, 1, 1, 2, 3]


def test_construct_upper(capsys):
    code, report = run_cli(capsys, "construct", "--n", "10", "--t", "12", "--kind", "upper")
    assert code == 0
    r = report["result"]
    assert r["achieved_image_count"] == 7  # one block of 4: V = n + 1 - 4
    assert r["achieved_collision_count"] == 12


def test_construct_infeasible(capsys):
    assert main(["construct", "--n", "3", "--t", "8"]) == 2


def test_construct_limit(capsys, monkeypatch):
    n = cli.CONSTRUCT_LIMIT
    code, report = run_cli(capsys, "construct", "--n", str(n), "--t", "2")
    assert code == 0 and report["result"]["achieved_image_count"] == n - 1

    def refuse(*args):
        raise AssertionError("a table was built above the limit")

    monkeypatch.setattr(cli, "construct_lower_tight", refuse)
    monkeypatch.setattr(cli, "construct_upper_tight", refuse)
    for kind in ("lower", "upper"):
        assert main(["construct", "--kind", kind, "--n", str(n + 1), "--t", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"CONSTRUCT_LIMIT = {n}" in captured.err


class FileText(NamedTuple):
    """An argv entry that write_files writes to a file with this suffix,
    passing the file's path in its place."""

    text: str
    suffix: str = ""


def write_files(argv, directory) -> list:
    """argv with each FileText written to a file in directory and replaced
    by that file's path."""
    out = []
    for i, arg in enumerate(argv):
        if isinstance(arg, FileText):
            path = Path(directory, f"input{i}{arg.suffix}")
            path.write_bytes(arg.text.encode())
            arg = str(path)
        out.append(arg)
    return out


def _nested(depth: int) -> str:
    return "[" * depth + "]" * depth


# Deeper than the JSON decoder admits under any recursion limit a test runs
# with: the CLI's default limit refuses about 1000 levels, and hypothesis
# raises the limit by 2000 frames while its tests run.
_DEEP = 10**5


@pytest.mark.parametrize(
    "argv, message",
    [
        (["construct", "--kind", "upper", "--n", "10", "--t", "5"], "necessarily even"),
        (["field", "--p", "3", "--k", "2", "--modulus", "1,x,1"], "comma-separated integers"),
        (["verify-lemma"], "needs --poly or --q"),
        (["test-conditions", "--poly", '{"p": 5, "coeffs": [0,'], "invalid polynomial spec JSON"),
        (["energy", "--cyclic", "5", "--a", "[0, 1", "--b", "[0]"], "invalid subset JSON"),
        (["test-conditions", "--poly", FileText("[1]")], "must be a JSON object"),
        (
            ["energy", "--cayley", FileText("0,1\n1,x\n"), "--a", "[0]", "--b", "[0]"],
            "Cayley table entries must be integers",
        ),
        (["code-bounds", FileText("")], "code assignment has no rows"),
        (["code-bounds", FileText("c0,m0\nc1,m1,extra\n")], "expected codeword,message rows"),
        (["construct", "--n", "5", "--t", "-2"], "collision count must be non-negative"),
        (["construct", "--kind", "upper", "--n", "10", "--t", "-2"], "collision count must be non-negative"),
        (["construct", "--kind", "upper", "--n", "10", "--t", "-3"], "collision count must be non-negative"),
        # 2003^2003 has more digits than str() converts
        (["classify", "--q", "2003"], "2003^2003 tables, over budget"),
        (["classify", "--q", "0"], "not a prime power"),
        (["classify", "--q", "1"], "not a prime power"),
        (["classify", "--q", "6"], "not a prime power"),
        (["construct", "--n", "0", "--t", "0"], "--n must be at least 1, got 0"),
        (["construct", "--n", "-3", "--t", "0"], "--n must be at least 1, got -3"),
        (["construct", "--kind", "upper", "--n", "0", "--t", "0"], "--n must be at least 1, got 0"),
        (["construct", "--kind", "upper", "--n", "-3", "--t", "0"], "--n must be at least 1, got -3"),
        (["stats", FileText("{not json")], "invalid function table JSON"),
        (["stats", FileText('{"domain_size": 1, "values": ' + _nested(_DEEP) + "}")], "invalid function table JSON"),
        (["energy", "--cyclic", "5", "--a", _nested(_DEEP), "--b", "[0]"], "invalid subset JSON"),
        (["test-conditions", "--poly", '{"p": ' + _nested(_DEEP) + "}"], "invalid polynomial spec JSON"),
    ],
)
def test_malformed_arguments_exit_2(tmp_path, capsys, argv, message):
    assert main(write_files(argv, tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_field(capsys):
    code, report = run_cli(capsys, "field", "--p", "3", "--k", "2")
    assert code == 0
    r = report["result"]
    assert r["q"] == 9 and r["modulus"] == [1, 0, 1]
    assert r["primitive_count"] == 4
    assert r["primitive_elements"] == [4, 5, 7, 8]


def test_field_bad_modulus(capsys):
    assert main(["field", "--p", "3", "--k", "2", "--modulus", "0,1,1"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["test-conditions", "--poly", '{"p": 65537, "coeffs": [0, 0, 1]}'],
        ["verify-lemma", "--poly", '{"p": 65537, "coeffs": [0, 0, 1]}'],
        ["verify-lemma", "--q", "65537", "--random", "1"],
        ["field", "--p", "65537"],
        ["field", "--p", "1000003", "--k", "2"],
        ["field", "--p", "2", "--k", "16"],
        ["test-conditions", "--poly", '{"p": 2, "k": 16, "coeffs": [0, 0, 1]}'],
        ["verify-lemma", "--q", "65536", "--random", "1"],
        ["field", "--p", "2", "--k", "1000000000"],  # refused without computing 2^k
        ["field", "--p", str(10**30 + 57)],  # refused before a primality test
    ],
)
def test_fields_above_the_limit_exit_2_before_any_build(capsys, monkeypatch, argv):
    def forbidden(*args, **kwargs):
        raise AssertionError("a field above the limit was built")

    monkeypatch.setattr(gf, "FieldSpec", forbidden)
    monkeypatch.setattr(gf, "is_prime", forbidden)
    monkeypatch.setattr(cli, "prime_power_decomposition", forbidden)
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 0.5
    assert f"field-size limit q <= {formats.FIELD_LIMIT}" in capsys.readouterr().err


def test_field_limit_admits_the_largest_pinned_fields(capsys):
    # GF(4099), GF(5^5) and GF(3^7) are the largest fields of the tests, CI
    # and the benchmark; the first prime above the limit is refused
    assert 4099 <= formats.FIELD_LIMIT < 10007
    code, report = run_cli(capsys, "field", "--p", "5", "--k", "5")
    assert code == 0 and report["result"]["q"] == 3125
    assert main(["verify-lemma", "--q", "10007", "--random", "1"]) == 2


def test_test_conditions_inline(capsys):
    code, report = run_cli(
        capsys, "test-conditions", "--poly", '{"p": 7, "coeffs": [0, 0, 0, 0, 1]}'
    )
    assert code == 0
    profile = report["result"]["profile"]
    assert (profile["c1"], profile["c2"], profile["c3"], profile["c4"]) == (
        False,
        True,
        True,
        True,
    )
    assert report["result"]["lattice_ok"]


def test_test_conditions_above_table_limit(capsys):
    # q = 2053, above the 2048 of the former dense tables: the kernel's shift
    # rows are built one at a time from the carry-free addition lists
    code, report = run_cli(
        capsys, "test-conditions", "--poly", '{"p": 2053, "coeffs": [0, 0, 0, 1]}'
    )
    assert code == 0
    r = report["result"]
    # 3 | q - 1, so X^3 is 3-to-1 off 0: 1 + 2052/3 values, N_2 = 684 * 3 * 2,
    # and sum_x x^(3k) != 0 first when 2052 | 3k
    assert r["image_count"] == 685
    assert r["profile"]["mask"] == "0000" and r["profile"]["n2"] == 4104
    assert (r["profile"]["c1_witness"], r["profile"]["c2_witness"], r["profile"]["c3_witness"]) == (1, 1, 1)
    assert (r["up_invariant"], r["wsc_lower"]) == (684, 685)


def test_test_conditions_planar_large_extension_field(capsys):
    # X^4 = X^(3+1) is planar over GF(3^7), since 7 is odd; the only pinned
    # extension field above 2048, where every scan runs in full
    start = time.perf_counter()
    code, report = run_cli(
        capsys, "test-conditions", "--poly", '{"p": 3, "k": 7, "coeffs": [0, 0, 0, 0, 1]}'
    )
    assert code == 0 and time.perf_counter() - start < 20.0
    r = report["result"]
    assert r["profile"]["mask"] == "1111" and r["profile"]["n2"] == 2186
    assert (r["image_count"], r["up_invariant"]) == (1094, 1093)


def test_classify(capsys):
    code, report = run_cli(capsys, "classify", "--q", "3")
    assert code == 0
    r = report["result"]
    assert r["total"] == 27
    assert r["masks"] == {"0000": 9, "1111": 18}
    assert r["derived"]["lattice_violations"] == 0
    assert r["derived"]["c2_set_equals_c3_set"] is True


def test_classify_counts_lattice_violations(capsys, monkeypatch):
    def fake_classify_all(q, budget, jobs, modulus):
        return ClassificationSummary(
            q=3, p=3, k=1, modulus=None, total=27,
            mask_counts={"0000": 9, "1000": 5, "0010": 4, "1111": 9},
            witness_indices={"0000": 0, "1000": 1, "0010": 2, "1111": 5},
            witness_polys={"0000": (), "1000": (1,), "0010": (2,), "1111": (0, 0, 1)},
        )

    monkeypatch.setattr(cli, "classify_all", fake_classify_all)
    code, report = run_cli(capsys, "classify", "--q", "3")
    assert code == 1
    assert report["result"]["derived"]["lattice_violations"] == 5 + 4


def test_classify_budget_exceeded(capsys):
    assert main(["classify", "--q", "9"]) == 2


@pytest.mark.parametrize("q", ["99999989", str(10**18 + 9)])
def test_classify_refuses_a_large_q_before_factoring_it(q):
    proc = subprocess.run(
        [sys.executable, "-m", "valuesets.cli", "classify", "--q", q],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 2 and "over budget" in proc.stderr


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_classify_jobs_below_one_exits_2(capsys, jobs):
    assert main(["classify", "--q", "3", "--jobs", jobs]) == 2
    assert "jobs" in capsys.readouterr().err


def test_classify_jobs_invariant_result(capsys):
    _, one = run_cli(capsys, "classify", "--q", "5", "--jobs", "1")
    _, two = run_cli(capsys, "classify", "--q", "5", "--jobs", "2")
    assert one["result"] == two["result"]
    assert one["manifest"]["jobs"] == 1 and two["manifest"]["jobs"] == 2


def test_verify_lemma_random(capsys):
    code, report = run_cli(
        capsys, "verify-lemma", "--q", "9", "--random", "5", "--seed", "1"
    )
    assert code == 0
    r = report["result"]
    assert r["expected"] == 72
    assert all(e["sum"] == 72 and e["ok"] for e in r["polys"])


def test_verify_lemma_random_below_one_exits_2(capsys):
    for count in ("0", "-5"):
        assert main(["verify-lemma", "--q", "7", "--random", count]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--random must be at least 1" in captured.err


def test_verify_lemma_random_over_the_work_budget_exits_2(capsys, monkeypatch):
    # the default --random 25 over GF(9973) is 2.5e9 steps (minutes); it is
    # refused before a field or a coefficient list is built
    def forbidden(*args, **kwargs):
        raise AssertionError("a refused lemma run built something")

    for name in ("field_build", "FieldPoly", "prime_power_decomposition", "verify_average_lemma"):
        monkeypatch.setattr(cli, name, forbidden)
    for argv in (["--q", "9973"], ["--q", "4099", "--random", "6"]):
        start = time.perf_counter()
        assert main(["verify-lemma", *argv]) == 2
        assert time.perf_counter() - start < 0.5
        captured = capsys.readouterr()
        assert captured.out == "" and f"over the budget {cli.LEMMA_BUDGET}" in captured.err


def test_verify_lemma_random_within_the_work_budget_runs(capsys, monkeypatch):
    # --random 1 over GF(4099) (a CI step) and up to 5 = 10^8 // 4099^2
    # polynomials are admitted; the lemma itself is stubbed to keep this fast
    assert 4099**2 * 5 <= cli.LEMMA_BUDGET < 4099**2 * 6
    assert 9973**2 <= cli.LEMMA_BUDGET  # one polynomial over any admitted field
    calls = []

    def stub(poly):
        calls.append(poly)
        q = poly.spec.q
        return q * (q - 1), True

    monkeypatch.setattr(cli, "verify_average_lemma", stub)
    for count in (1, 5):
        calls.clear()
        code, report = run_cli(capsys, "verify-lemma", "--q", "4099", "--random", str(count))
        assert code == 0 and report["result"]["count"] == count and len(calls) == count


def test_verify_lemma_poly(capsys):
    code, report = run_cli(
        capsys, "verify-lemma", "--poly", '{"p": 5, "coeffs": [0, 0, 1]}'
    )
    assert code == 0
    assert report["result"]["polys"][0]["sum"] == 20


def test_json_inputs_accept_only_integers(tmp_path, capsys):
    table = tmp_path / "t.json"
    table.write_text('{"domain_size": 3, "values": [true, 1.7, "2"]}')
    assert main(["stats", str(table)]) == 2
    assert main(["test-conditions", "--poly", '{"p": 7.9, "coeffs": [true, 0, 1.5]}']) == 2
    assert main(["verify-lemma", "--poly", '{"p": 7, "coeffs": [0, 0, true]}']) == 2
    assert main(["energy", "--cyclic", "5", "--a", "[true, 2]", "--b", "[0]"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("error:") == 4


def test_energy_cyclic(capsys):
    code, report = run_cli(
        capsys, "energy", "--cyclic", "10", "--a", "[0, 1]", "--b", "[0, 1]"
    )
    assert code == 0
    r = report["result"]
    assert r["energy"] == 6 and r["collision_count"] == 2
    assert r["product_set_size"] == 3
    assert r["bounds"]["lower_int"] == 3 and r["bounds"]["upper_int"] == 3
    assert r["sandwich_ok"]


def test_energy_cayley(tmp_path, capsys):
    path = tmp_path / "z4.csv"
    path.write_text("0,1,2,3\n1,2,3,0\n2,3,0,1\n3,0,1,2\n")
    code, report = run_cli(
        capsys, "energy", "--cayley", str(path), "--a", "[0, 2]", "--b", "[1, 3]"
    )
    assert code == 0
    assert report["result"]["sandwich_ok"]


def test_energy_product(capsys):
    # Z4 x Z6 x Z5 in mixed radix, the Z4 digit least: 7 = (3, 1, 0), and
    # 1 + 2 = 0 + 3 = 3 is the only collision among the six products
    code, report = run_cli(
        capsys, "energy", "--product", "4,6,5", "--a", "[0, 1, 7]", "--b", "[2, 3]"
    )
    assert code == 0
    r = report["result"]
    assert r["group"] == {"kind": "product", "order": 120}
    assert r["product_set"] == [0, 2, 3, 5, 6]
    assert (r["collision_count"], r["energy"]) == (2, 8)
    assert r["sandwich_ok"]


def test_energy_group_flags_exclusive(capsys):
    assert main(["energy", "--cyclic", "5", "--product", "2,3", "--a", "[0]", "--b", "[0]"]) == 2


def test_energy_bad_cayley_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("0,1\n1,1\n")
    assert main(["energy", "--cayley", str(path), "--a", "[0]", "--b", "[0]"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", "{csv}"],
        ["code-bounds", "{csv}"],
        ["energy", "--cayley", "{csv}", "--a", "[0]", "--b", "[0]"],
    ],
    ids=["stats", "code-bounds", "energy"],
)
def test_csv_cell_over_the_field_size_limit_exits_2(tmp_path, capsys, argv):
    # the csv module refuses a cell over 131072 characters with csv.Error,
    # which is not a ValueError
    path = tmp_path / "big.csv"
    path.write_text("0," + "1" * 200_000 + "\n")
    assert main([a.replace("{csv}", str(path)) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid CSV" in captured.err


def test_inputs_given_as_paths_are_digested(tmp_path, monkeypatch, capsys):
    poly, a, b = tmp_path / "poly.json", tmp_path / "a.json", tmp_path / "b.json"
    poly.write_text('{"p": 5, "coeffs": [0, 0, 1]}')
    a.write_text("[0, 1]")
    b.write_text("[0, 3]")
    # relative names that open with the other kind's inline opener
    monkeypatch.chdir(tmp_path)
    Path("[p].json").write_text(poly.read_text())
    Path("{a}.json").write_text(a.read_text())
    for argv, paths in (
        (["test-conditions", "--poly", str(poly)], [poly]),
        (["verify-lemma", "--poly", str(poly)], [poly]),
        (["energy", "--cyclic", "10", "--a", str(a), "--b", str(b)], [a, b]),
        (["energy", "--cyclic", "10", "--a", "[0, 1]", "--b", "[0, 3]"], []),
        (["test-conditions", "--poly", "[p].json"], [Path("[p].json")]),
        (["energy", "--cyclic", "10", "--a", "{a}.json", "--b", "[0, 3]"], [Path("{a}.json")]),
    ):
        _, report = run_cli(capsys, *argv)
        expected = {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}
        assert report["manifest"]["input_digests"] == expected


def test_a_poly_spec_from_a_fifo_is_digested(tmp_path):
    # a FIFO is no regular file, and it yields its bytes once: the report
    # must rest on that one read and name it by its SHA-256.  The CLI runs in
    # a child process, so a second open (which would wait for a writer
    # forever) fails the test by its timeout instead of hanging it.
    root = Path(__file__).resolve().parents[1]
    fifo = tmp_path / "spec.fifo"
    os.mkfifo(fifo)
    data = b'{"p": 7, "coeffs": [0, 0, 1]}'
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "valuesets.cli", "test-conditions", "--poly", str(fifo)],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
    finally:
        writer.join(timeout=5)
        if writer.is_alive():  # the child never opened the FIFO: release the writer
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["manifest"]["input_digests"] == {str(fifo): hashlib.sha256(data).hexdigest()}
    assert report["result"]["coeffs"] == [0, 0, 1] and report["result"]["profile"]["mask"] == "1111"


def test_every_input_file_is_opened_once_per_call(tmp_path, monkeypatch, capsys):
    poly, a, b = tmp_path / "poly.json", tmp_path / "a.json", tmp_path / "b.json"
    poly.write_text('{"p": 5, "coeffs": [0, 0, 1]}')
    a.write_text("[0, 1]")
    b.write_text("[0, 3]")
    table, code = tmp_path / "t.csv", tmp_path / "code.csv"
    table.write_text("0,1\n1,1\n2,0\n")
    code.write_text("c0,m0\nc1,m0\n")
    opened = []
    path_open = Path.open

    def counting_open(self, *args, **kwargs):
        opened.append(str(self))
        return path_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    for argv, paths in (
        (["test-conditions", "--poly", str(poly)], [poly]),
        (["verify-lemma", "--poly", str(poly)], [poly]),
        (["energy", "--cyclic", "10", "--a", str(a), "--b", str(b)], [a, b]),
        (["stats", str(table)], [table]),
        (["code-bounds", str(code)], [code]),
    ):
        opened.clear()
        assert main(argv) == 0
        assert sorted(opened) == sorted(map(str, paths)), argv
        report = json.loads(capsys.readouterr().out)
        assert sorted(report["manifest"]["input_digests"]) == sorted(opened)


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", "{table}"],
        ["bounds", "--n", "40", "--t", "12"],
        ["bounds", "--n", "12", "--s", "3", "--t", "30"],
        ["bk", "--k", "12"],
        ["construct", "--n", "9", "--t", "4", "--kind", "upper"],
        ["field", "--p", "3", "--k", "2"],
        ["test-conditions", "--poly", '{"p": 3, "k": 2, "coeffs": [1, 2, 0, 1]}'],
        ["classify", "--q", "3"],
        ["verify-lemma", "--q", "5", "--random", "2"],
        ["energy", "--product", "2,3", "--a", "[0, 1, 4]", "--b", "[2, 5]"],
        ["code-bounds", "{code}"],
    ],
    ids=lambda argv: argv[0],
)
def test_stdout_is_the_indented_json_dump(tmp_path, capsys, argv):
    # every report is written as json.dumps(report, indent=2, sort_keys=True)
    # would write it, floats, bools, nulls and the manifest's strings included
    table, code = tmp_path / "t.json", tmp_path / "code.csv"
    table.write_text('{"domain_size": 4, "values": [0, 0, 3, 1]}')
    code.write_text("c0,m0\nc1,m0\nc2,m1\n")
    main([{"{table}": str(table), "{code}": str(code)}.get(x, x) for x in argv])
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def test_code_bounds(tmp_path, capsys):
    path = tmp_path / "code.csv"
    path.write_text("c0,m0\nc1,m0\nc2,m1\nc3,m1\nc4,m2\nc5,m3\n")
    code, report = run_cli(capsys, "code-bounds", str(path))
    assert code == 0
    r = report["result"]
    assert r["codewords"] == 6
    assert r["collision_count"] == 4
    assert r["distinct_messages"] == 4
    assert r["bounds"]["lower_int"] == 4 and r["bounds"]["upper_int"] == 4
    assert r["messages_within_bounds"]


def test_code_bounds_injective_and_constant(tmp_path, capsys):
    inj = tmp_path / "inj.csv"
    inj.write_text("a,1\nb,2\nc,3\n")
    code, report = run_cli(capsys, "code-bounds", str(inj))
    assert report["result"]["collision_count"] == 0
    assert report["result"]["distinct_messages"] == 3

    allone = tmp_path / "allone.csv"
    allone.write_text("a,m\nb,m\nc,m\nd,m\n")
    code, report = run_cli(capsys, "code-bounds", str(allone))
    assert report["result"]["collision_count"] == 12
    assert report["result"]["distinct_messages"] == 1


def test_code_bounds_duplicate_codeword(tmp_path, capsys):
    path = tmp_path / "dup.csv"
    path.write_text("c0,m0\nc0,m1\n")
    assert main(["code-bounds", str(path)]) == 2


def test_reports_are_reproducible(tmp_path, capsys):
    argv = ["verify-lemma", "--q", "7", "--random", "3", "--seed", "42"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_out_flag_writes_identical_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    main(["bk", "--k", "6", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert out.read_text() == stdout


@pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["missing-dir", "a-dir"])
def test_failed_out_write_exits_2_with_no_report(tmp_path, capsys, target):
    # the report is written to --out before it is printed, so a write that
    # fails leaves stdout empty and exits as malformed input does
    assert main(["bounds", "--n", "5", "--t", "2", "--out", str(tmp_path / target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


# -- the CLI under generated argv and input files ------------------------------

class FuzzOut(NamedTuple):
    """An --out value of test_cli_fuzz: a new file in its directory ("file"),
    a file in a missing directory ("missing"), or the directory itself
    ("dir")."""

    kind: str


# ints that are negative, zero, small or far beyond every limit
_ints = st.one_of(st.integers(-3, 40), st.sampled_from([-(10**400), 10**300, 10**300 + 1, 10**400]))
# fields of at most 125 elements, or (p, k) that name no field
_good_fields = st.sampled_from([(2, 1), (2, 3), (2, 6), (3, 1), (3, 2), (3, 4), (5, 1), (5, 3), (7, 1), (11, 2), (97, 1)])
_bad_fields = st.one_of(
    st.tuples(st.sampled_from([-3, 0, 1, 4, 9, 10**400]), _ints),
    st.tuples(st.sampled_from([2, 3, 5]), st.sampled_from([-1, 0, 10**400])),
)
_json_leaves = st.one_of(
    st.none(), st.booleans(), st.floats(), st.integers(-5, 130), st.just(10**400), st.text(max_size=4)
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=24)


def _pick(draw, bad: bool, valid, junk):
    """A draw from valid, or, in a malformed call (bad), from junk when a
    coin says so.  Coins shrink to False, so inputs shrink towards
    well-formed ones."""
    return draw(junk if bad and draw(st.booleans()) else valid)


def _json_text(draw, bad: bool, value, opener: str, closer: str) -> str:
    """The JSON text of a drawn value, or in a malformed call arrays nested
    up to _DEEP deep inside opener ... closer, or arbitrary text."""
    deep = st.integers(1, _DEEP).map(lambda d: opener + _nested(d) + closer)
    return _pick(draw, bad, value.map(json.dumps), deep | _text)


def _json_arg(draw, bad: bool, value, opener: str, closer: str):
    """_json_text, given inline when it is inline JSON and a coin says so,
    else as a file."""
    text = _json_text(draw, bad, value, opener, closer)
    inline = draw(st.booleans()) and text.lstrip()[:1] in ("{", "[")
    return text if inline else FileText(text)


def _poly_spec(draw, bad: bool) -> dict:
    p, k = _pick(draw, bad, _good_fields, _bad_fields)
    q = p**k if p > 1 and 0 < k < 9 else 2
    spec = {"p": p, "k": k, "coeffs": draw(st.lists(st.integers(0, min(q, 200) - 1), max_size=8))}
    for key in list(spec):
        spec[key] = _pick(draw, bad, st.just(spec[key]), _json_values)
    if bad and draw(st.booleans()):
        spec["modulus"] = draw(st.one_of(st.lists(st.integers(-1, 5), max_size=5), _json_values))
    if bad and draw(st.booleans()):
        del spec[draw(st.sampled_from(sorted(spec)))]
    return spec


def _csv_text(rows) -> str:
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


_subsets = st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True)
_junk_subsets = st.lists(st.integers(-1, 12), max_size=5) | _json_values
_junk_rows = st.lists(st.lists(st.one_of(st.integers(-1, 8), _text), min_size=1, max_size=3), max_size=6)


def _table(draw, bad: bool) -> FileText:
    values = _pick(draw, bad, st.lists(st.integers(0, 5), min_size=1, max_size=8),
                   st.lists(st.integers(-1, 5), max_size=8) | _json_values)
    n = len(values) if isinstance(values, list) else 1
    form = draw(st.sampled_from(["json", "csv", "text"] if bad else ["json", "csv"]))
    if form == "json":
        table = {"domain_size": _pick(draw, bad, st.just(n), _json_values), "values": values}
        text = _json_text(draw, bad, st.just(table), '{"domain_size": 1, "values": ', "}")
        return FileText(text, draw(st.sampled_from(["", ".json"])))
    if form == "csv" and isinstance(values, list):
        rows = draw(st.permutations(list(enumerate(values))))
        rows = [("x", "f(x)")] * draw(st.booleans()) + _pick(draw, bad, st.just(rows), _junk_rows)
        return FileText(_csv_text(rows), draw(st.sampled_from(["", ".csv"])))
    return FileText(draw(_text), draw(st.sampled_from(["", ".json", ".csv"])))


def _group(draw, bad: bool) -> list:
    """The group options of an energy call: one flag naming a group of order
    4 to 12, or in a malformed call any flags with any values."""
    flags = st.sampled_from(["--cyclic", "--product", "--cayley"])
    argv = []
    for flag in _pick(draw, bad, st.lists(flags, min_size=1, max_size=1), st.lists(flags, max_size=3)):
        if flag == "--cyclic":
            argv += [flag, str(_pick(draw, bad, st.integers(4, 12), _ints))]
        elif flag == "--product":
            orders = _pick(draw, bad, st.lists(st.integers(2, 4), min_size=2, max_size=3), st.lists(_ints, max_size=3))
            argv += [flag, _pick(draw, bad, st.just(",".join(map(str, orders))), _text)]
        else:
            n = draw(st.integers(4, 5))
            rows = [[(i + j) % n for j in range(n)] for i in range(n)]
            argv += [flag, FileText(_csv_text(_pick(draw, bad, st.just(rows), _junk_rows)), ".csv")]
    return argv


@st.composite
def _argv(draw):
    """One CLI call: a subcommand with generated options and inputs, one
    call in four malformed, and an --out now and then."""
    bad = draw(st.integers(0, 3)) == 3
    command = draw(st.sampled_from(
        ["stats", "bounds", "bk", "construct", "field", "test-conditions", "classify",
         "verify-lemma", "energy", "code-bounds"]
    ))

    def num(valid) -> str:
        return str(_pick(draw, bad, valid, _ints))

    def pairs() -> str:  # an even t, as collision counts are
        return num(st.integers(0, 20).map(lambda h: 2 * h))

    def subset():
        return _json_arg(draw, bad, st.just(_pick(draw, bad, _subsets, _junk_subsets)), "[", "]")

    if command == "stats":
        argv = ["stats", _table(draw, bad)]
    elif command == "bounds":
        argv = ["bounds", "--n", num(st.integers(1, 40)), "--t", pairs()]
        if bad and draw(st.booleans()):
            argv += ["--s", num(_ints)]
    elif command == "bk":
        argv = ["bk", "--k", num(st.integers(0, 40))]
    elif command == "construct":
        argv = ["construct", "--n", num(st.integers(1, 40)), "--t", pairs(),
                "--kind", draw(st.sampled_from(["lower", "upper"]))]
    elif command == "field":
        p, k = _pick(draw, bad, _good_fields, _bad_fields)
        argv = ["field", "--p", str(p), "--k", str(k)]
        if bad and draw(st.booleans()):
            argv += ["--modulus", ",".join(map(str, draw(st.lists(st.integers(-1, 5), max_size=7))))]
    elif command == "test-conditions" or (command == "verify-lemma" and draw(st.booleans())):
        argv = [command, "--poly", _json_arg(draw, bad, st.just(_poly_spec(draw, bad)), '{"p": ', "}")]
    elif command == "classify":
        # q <= 4 classifies at once; 6 is no prime power; 9 and 10^300 are over budget
        q = _pick(draw, bad, st.sampled_from([2, 3, 4]), st.sampled_from([-2, 0, 1, 6, 9, 10**300]))
        argv = ["classify", "--q", str(q), "--jobs", str(_pick(draw, bad, st.just(1), st.sampled_from([0, -1])))]
        if bad and draw(st.booleans()):
            argv += ["--budget", str(draw(st.integers(-2, 300)))]
        if bad and draw(st.booleans()):
            argv += ["--modulus", ",".join(map(str, draw(st.lists(st.integers(-1, 3), max_size=4))))]
    elif command == "verify-lemma":
        argv = ["verify-lemma", "--q", num(st.sampled_from([2, 3, 5, 7, 9, 97])),
                "--random", num(st.sampled_from([1, 3])), "--seed", num(_ints)]
    elif command == "energy":
        argv = ["energy", *_group(draw, bad), "--a", subset(), "--b", subset()]
    else:
        codewords = draw(st.lists(st.text("abc01", min_size=1, max_size=3), min_size=1, max_size=8, unique=True))
        rows = [(c, f"m{draw(st.integers(0, 3))}") for c in codewords]
        text = _pick(draw, bad, st.just(_csv_text(rows)), _text | _junk_rows.map(_csv_text))
        argv = ["code-bounds", FileText(text, ".csv")]
    if draw(st.integers(0, 5)) == 5:
        argv += ["--out", FuzzOut(draw(st.sampled_from(["file", "missing", "dir"])))]
    return argv


@seed(20121017)
@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
@example(["bounds", "--n", "5", "--t", "2", "--out", FuzzOut("missing")])
@example(["bounds", "--n", "5", "--t", "2", "--out", FuzzOut("dir")])
@example(["stats", FileText('{"domain_size": 1, "values": ' + _nested(_DEEP) + "}", ".json")])
@example(["energy", "--cyclic", "5", "--a", _nested(_DEEP), "--b", "[0]"])
@example(["test-conditions", "--poly", '{"p": ' + _nested(_DEEP) + "}"])
def test_cli_fuzz(argv):
    # every call either exits 0 or 1 with its report on stdout, written as
    # dumps_indented writes it, and nothing on stderr, or exits 2 with a
    # message or usage line on stderr and nothing on stdout
    with tempfile.TemporaryDirectory() as tmp:
        outs = {"file": f"{tmp}/report.json", "missing": f"{tmp}/missing/report.json", "dir": tmp}
        args = [outs[arg.kind] if isinstance(arg, FuzzOut) else arg for arg in write_files(argv, tmp)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(args)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        out, err = out.getvalue(), err.getvalue()
        if code in (0, 1):
            assert err == "" and out == formats.dumps_indented(json.loads(out)) + "\n", args
            if FuzzOut("file") in argv:
                assert Path(outs["file"]).read_text() == out
        else:
            assert code == 2 and out == "" and err.startswith(("error:", "usage:")), (args, err)


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "valuesets.cli", "bounds", "--n", "10", "--t", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["result"]["lower_int"] == 8


def test_cli_import_loads_no_worker_pool():
    # only classify with more than one shard starts workers, so a fresh CLI
    # process must not pay for the multiprocessing stack
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "sys.path[:0] = sys.argv[1:]\n"
        "import valuesets.cli\n"
        "loaded = {'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(root / "src")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_bench_tracer_finds_every_span_name():
    # bench/tracer.py patches the library by name, with no default, so a
    # deleted or renamed SPANS entry would break only traced benchmark runs
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "sys.path[:0] = sys.argv[1:]\n"
        "import valuesets.cli, tracer\n"
        "tracer.Tracer().instrument()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(root / "src"), str(root / "bench")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_tracing_leaves_reports_byte_identical(tmp_path):
    # the tracer's wrappers must hand every return value through unchanged,
    # row functions included: each report is printed untraced, then traced
    root = Path(__file__).resolve().parents[1]
    table = tmp_path / "t.json"
    table.write_text('{"domain_size": 6, "values": [0, 0, 1, 1, 2, 5]}')
    runs = [
        ["test-conditions", "--poly", '{"p": 3, "k": 4, "coeffs": [0, 1, 0, 0, 2, 0, 0, 0, 0, 0, 1]}'],
        ["test-conditions", "--poly", '{"p": 5, "k": 3, "coeffs": [0, 0, 1]}'],
        ["verify-lemma", "--q", "49", "--random", "2"],
        ["classify", "--q", "3"],
        ["bounds", "--n", "40", "--t", "12"],
        ["energy", "--product", "4,6,5", "--a", "[0, 1, 7]", "--b", "[2, 3]"],
        ["stats", str(table)],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "sys.path[:0] = sys.argv[1:3]\n"
        "import valuesets.cli as cli, tracer\n"
        "runs = json.loads(sys.argv[3])\n"
        "def reports():\n"
        "    out = []\n"
        "    for argv in runs:\n"
        "        buf = io.StringIO()\n"
        "        with contextlib.redirect_stdout(buf):\n"
        "            code = cli.main(argv)\n"
        "        out.append([code, buf.getvalue()])\n"
        "    return out\n"
        "plain = reports()\n"
        "tracer.Tracer().instrument()\n"
        "print(json.dumps([plain, reports()]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(root / "src"), str(root / "bench"), json.dumps(runs)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    plain, traced = json.loads(proc.stdout)
    assert [c for c, _ in plain] == [0] * len(runs)
    assert all(json.loads(out) for _, out in plain)
    assert traced == plain
