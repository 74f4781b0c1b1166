"""The three seeded workloads: their operations, inputs and reference checks.

Every workload is a list of sessions.  A session runs in a fresh interpreter
(as every CLI call does), so the module-level ``B_k`` memo and the
per-``FieldSpec`` table caches start cold, and executes a fixed list of
operations one after another (a closed loop with one client).  The list
depends only on (seed, session index): operations are drawn by the seed from
a fixed pool of candidates, and the result of every pool entry at the commit
that defined the benchmark is pinned by a digest in ``reference.json``
(regenerate with ``python3 bench/record.py`` only when results are meant to
change).

Each workload class provides:

- ``session_ops(seed, session, variant)``: the operations, plain data;
- ``prepare(vs, ops, workdir)``: build inputs, write input files (set-up);
- ``execute(vs, op, ctx)``: the timed call(s) into valuesets;
- ``canon(op, raw)``: (digestable form of the result, invariants hold);
- ``pool_ops()``: every operation the generator can draw, for recording;
- ``work(op)``: units of work the operation does, for ``work_per_s``.

An operation is correct when its invariants hold and the digest of its
canonical result equals ``reference[op["ref"]][op["i"]]``.

``vs`` is a namespace holding the imported valuesets modules.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

DIGEST_CHARS = 12


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_CHARS]


def run_cli(vs, argv):
    """cli.main with stdout captured; returns (exit code, report text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = vs.cli.main(argv)
    return code, buf.getvalue()


# -- classify-q7 ----------------------------------------------------------------

Q7_MASKS = {
    "0000": 647143,
    "0001": 116424,
    "0011": 51156,
    "0101": 7056,
    "0111": 1470,
    "1111": 294,
}
Q7_WITNESS_INDICES = {
    "0000": 0,
    "0001": 466,
    "0011": 2524,
    "0101": 2882,
    "0111": 3344,
    "1111": 3746,
}


def planar_quadratic_tables(q: int = 7) -> set[tuple[int, ...]]:
    """Value tables of aX^2 + bX + c, a != 0, over the prime field F_q.

    For prime q these are exactly the planar functions, so their number
    (q-1)q^2 and smallest lexicographic index independently check the 1111
    row of the classification."""
    return {
        tuple((a * x * x + b * x + c) % q for x in range(q))
        for a in range(1, q)
        for b in range(q)
        for c in range(q)
    }


def table_index(values, q: int) -> int:
    """Lexicographic index of a value table, values[0] most significant."""
    index = 0
    for v in values:
        index = index * q + v
    return index


def check_classify_report(report: dict, code: int) -> bool:
    """The q=7 report reproduces the pinned masks and witnesses, has no
    lattice violations, and its 1111 row matches the planar quadratics."""
    result = report["result"]
    quads = planar_quadratic_tables(7)
    return (
        code == 0
        and result["total"] == 7**7
        and result["masks"] == Q7_MASKS
        and result["witness_indices"] == Q7_WITNESS_INDICES
        and result["derived"]["lattice_violations"] == 0
        and result["masks"]["1111"] == len(quads) == 6 * 7**2
        and result["witness_indices"]["1111"] == min(table_index(t, 7) for t in quads)
    )


class ClassifyQ7:
    name = "classify-q7"
    min_sessions = 3
    tail_percentile = 100.0  # a run has too few operations for ten beyond any lower
    work_unit = "tables"
    # classify_all spans run in the session; its shards may run in workers
    variants = {"jobs2": 2, "jobs1": 1}

    def session_ops(self, seed, session, variant="jobs2"):
        jobs = self.variants[variant]
        return [{"kind": "classify", "ref": self.name, "i": 0,
                 "argv": ["classify", "--q", "7", "--jobs", str(jobs)]}]

    def pool_ops(self):
        return self.session_ops(0, 0)

    def prepare(self, vs, ops, workdir):
        return None

    def execute(self, vs, op, ctx):
        return run_cli(vs, op["argv"])

    def canon(self, op, raw):
        code, text = raw
        report = json.loads(text)
        return [code, report["result"]], check_classify_report(report, code)

    def work(self, op):
        return 7**7


# -- profile-fields ---------------------------------------------------------------

FIELDS = [(7, 2), (3, 4), (5, 3), (127, 1), (2, 7), (251, 1)]
# Planar polynomials run full C1-C3 scans: a X^e + b X + c with a != 0, where
# X^2 is planar in odd characteristic and X^(p+1) is planar over GF(p^k) for
# odd k.  GF(125) uses X^6 only, to keep a session near ten seconds.
PLANAR_EXPONENT = {(7, 2): 2, (3, 4): 2, (5, 3): 6, (127, 1): 2, (251, 1): 2}
PROFILE_POOL = {"dense": 24, "sparse": 24, "lemma": 8, "planar": 8}
# per field and session; plus one planar polynomial per planar field
PROFILE_SESSION = {"dense": 5, "sparse": 4, "lemma": 1}


def field_key(field) -> str:
    p, k = field
    return f"{p}^{k}"


def _is_do_or_linear(e: int, p: int) -> bool:
    powers = [p**i for i in range(e.bit_length() + 1) if p**i <= e]
    return e in powers or any(a + b == e for a in powers for b in powers)


def profile_entry(kind: str, field, i: int) -> dict:
    """Pool entry i of one kind over one field: a polynomial spec."""
    p, k = field
    q = p**k
    rng = random.Random(f"profile/{kind}/{field_key(field)}/{i}")
    if kind in ("dense", "lemma"):
        coeffs = [rng.randrange(q) for _ in range(q)]
    elif kind == "sparse":
        # three terms of degree at most 8, none linearized (X^(p^i)) or
        # Dembowski-Ostrom (X^(p^i + p^j)), so the scans stop part way
        # instead of running in full like a planar polynomial's
        exps = [e for e in range(9) if e == 0 or p == 2 or not _is_do_or_linear(e, p)]
        d = rng.choice([e for e in exps[2:] if e >= 3])
        coeffs = [0] * (d + 1)
        coeffs[d] = rng.randrange(1, q)
        for j in rng.sample([e for e in exps if e < d], 2):
            coeffs[j] = rng.randrange(q)
    else:
        e = PLANAR_EXPONENT[field]
        coeffs = [0] * (e + 1)
        coeffs[e] = rng.randrange(1, q)
        coeffs[1] = rng.randrange(q)
        coeffs[0] = rng.randrange(q)
    return {"p": p, "k": k, "coeffs": coeffs}


def profile_pool():
    """Every (kind, field, index) the generator can draw."""
    for field in FIELDS:
        for kind in ("dense", "sparse", "lemma"):
            for i in range(PROFILE_POOL[kind]):
                yield kind, field, i
    for field in PLANAR_EXPONENT:
        for i in range(PROFILE_POOL["planar"]):
            yield "planar", field, i


def profile_op(kind, field, i) -> dict:
    sub = "verify-lemma" if kind == "lemma" else "test-conditions"
    return {
        "kind": kind,
        "field": list(field),
        "i": i,
        "sub": sub,
        "spec": profile_entry(kind, field, i),
        "ref": f"{kind}/{field_key(field)}",
    }


class ProfileFields:
    name = "profile-fields"
    min_sessions = 2
    tail_percentile = 90.0  # at least 13 of the >= 130 operations lie beyond
    work_unit = "polynomials"
    variants = {"all": None}

    def session_ops(self, seed, session, variant="all"):
        rng = random.Random(f"profile-fields/{seed}/{session}")
        ops = []
        for field in FIELDS:
            for kind, count in PROFILE_SESSION.items():
                for i in rng.sample(range(PROFILE_POOL[kind]), count):
                    ops.append(profile_op(kind, field, i))
        for field in PLANAR_EXPONENT:
            ops.append(profile_op("planar", field, rng.randrange(PROFILE_POOL["planar"])))
        rng.shuffle(ops)
        return ops

    def prepare(self, vs, ops, workdir):
        """Write one polynomial spec file per operation; return the argvs."""
        argvs = []
        for n, op in enumerate(ops):
            path = workdir / f"poly{n}.json"
            path.write_text(json.dumps(op["spec"]))
            argvs.append([op["sub"], "--poly", str(path)])
        return argvs

    def execute(self, vs, op, ctx):
        return run_cli(vs, ctx[op["seq"]])

    def pool_ops(self):
        return [profile_op(kind, field, i) for kind, field, i in profile_pool()]

    def canon(self, op, raw):
        code, text = raw
        result = json.loads(text)["result"]
        q = result["q"]
        if op["sub"] == "verify-lemma":
            entry = result["polys"][0]
            ok = entry["ok"] and entry["sum"] == q * (q - 1)
        else:
            ok = result["lattice_ok"] and (op["kind"] != "planar"
                                           or result["profile"]["mask"] == "1111")
        return [code, result], ok and code == 0

    def probe(self, vs, op, ctx):
        """Untimed per-condition calls of a traced run: test_c1..test_c4 on
        the operation's polynomial.  Returns {condition: (scanned, q - 1)},
        where a witness w means w shifts were scanned and None a full scan."""
        if op["sub"] != "test-conditions":
            return {}
        poly = vs.formats.parse_poly_spec(op["spec"])
        qm1 = poly.spec.q - 1
        scans = {}
        for c, test in (("c1", vs.conditions.test_c1), ("c2", vs.conditions.test_c2),
                        ("c3", vs.conditions.test_c3)):
            _, witness = test(poly)
            scans[c] = (qm1 if witness is None else witness, qm1)
        vs.conditions.test_c4(poly)
        return scans

    def work(self, op):
        return 1


# -- bounds-stream ----------------------------------------------------------------

KMAX = 20_000  # largest t/2 of an s = 2 query; the first query pays the cold DP
BOUNDS_SESSION = {
    "bound2": 1200,
    "bound3": 300,
    "bound4": 300,
    "bk": 300,
    "lower": 300,
    "upper": 300,
    "energy-cyclic": 150,
    "energy-product": 150,
    "json": 100,
    "csv": 50,
    "code": 50,
}
BOUNDS_POOL = {"cold": 1, **{kind: count + count // 3 for kind, count in BOUNDS_SESSION.items()}}


def _subset(rng, n: int) -> list[int]:
    return sorted(rng.sample(range(n), rng.randint(1, min(n, 40))))


def bounds_entry(kind: str, i: int) -> dict:
    """Pool entry i of one kind: the arguments of a query."""
    rng = random.Random(f"bounds/{kind}/{i}")
    if kind == "cold":
        return {"args": [2 * KMAX, 2, 2 * KMAX]}
    if kind == "bound2":
        return {"args": [rng.randint(2, 2 * KMAX), 2, 2 * rng.randint(1, KMAX)]}
    if kind == "bound3":
        return {"args": [rng.randint(10, 10**5), 3, rng.randint(6, 10**6)]}
    if kind == "bound4":
        return {"args": [rng.randint(10, 10**5), 4, rng.randint(24, 10**7)]}
    if kind == "bk":
        return {"k": rng.randint(0, KMAX)}
    if kind == "lower":
        n = rng.randint(2, 4000)
        return {"n": n, "t": 2 * rng.randint(0, n // 2)}
    if kind == "upper":
        return {"n": rng.randint(400, 4000), "k": rng.randint(0, KMAX)}
    if kind == "energy-cyclic":
        n = rng.randint(10, 200)
        return {"orders": [n], "a": _subset(rng, n), "b": _subset(rng, n)}
    if kind == "energy-product":
        orders = [rng.randint(2, 8) for _ in range(rng.randint(2, 3))]
        n = 1
        for o in orders:
            n *= o
        return {"orders": orders, "a": _subset(rng, n), "b": _subset(rng, n)}
    if kind in ("json", "csv"):
        n = rng.randint(10, 500)
        return {"values": [rng.randrange(n) for _ in range(n)]}
    if kind == "code":
        n = rng.randint(10, 500)
        m = rng.randint(1, n)
        return {"rows": [[f"cw{x}", f"m{rng.randrange(m)}"] for x in range(n)]}
    raise ValueError(f"unknown bounds query kind {kind!r}")


def bounds_pool():
    """Every (kind, index) the generator can draw; the cold query first."""
    for kind, size in BOUNDS_POOL.items():
        for i in range(size):
            yield kind, i


def bounds_op(kind: str, i: int) -> dict:
    return {"kind": kind, "i": i, "ref": kind, **bounds_entry(kind, i)}


class BoundsStream:
    name = "bounds-stream"
    min_sessions = 4
    # p99 leaves >= 128 of the >= 12804 operations beyond it; p99.9 would
    # leave >= 12, but its run-to-run spread on a shared 2-vCPU machine was
    # 0.51 of its median (ten runs), wider than any admissible bound
    tail_percentile = 99.0
    work_unit = "queries"
    variants = {"all": None}

    def session_ops(self, seed, session, variant="all"):
        rng = random.Random(f"bounds-stream/{seed}/{session}")
        ops = []
        for kind, count in BOUNDS_SESSION.items():
            for i in rng.sample(range(BOUNDS_POOL[kind]), count):
                ops.append(bounds_op(kind, i))
        rng.shuffle(ops)
        return [bounds_op("cold", 0)] + ops

    def pool_ops(self):
        return [bounds_op(kind, i) for kind, i in bounds_pool()]

    def prepare(self, vs, ops, workdir):
        """Input objects per operation; CSV inputs are written here, the
        JSON tables are written by the timed save."""
        ctx = []
        for n, op in enumerate(ops):
            kind = op["kind"]
            if kind.startswith("energy"):
                orders = op["orders"]
                group = (vs.energy.GroupSpec.cyclic(orders[0]) if kind == "energy-cyclic"
                         else vs.energy.GroupSpec.product_of_cyclics(orders))
                ctx.append(vs.energy.SubsetPair(group, tuple(op["a"]), tuple(op["b"])))
            elif kind == "json":
                table = vs.functable.FunctionTable.from_values(op["values"])
                ctx.append((table, workdir / f"table{n}.json"))
            elif kind == "csv":
                path = workdir / f"table{n}.csv"
                path.write_text("".join(f"{x},{v}\n" for x, v in enumerate(op["values"])))
                ctx.append(path)
            elif kind == "code":
                path = workdir / f"code{n}.csv"
                path.write_text("".join(f"{c},{m}\n" for c, m in op["rows"]))
                ctx.append(path)
            else:
                ctx.append(None)
        return ctx

    def execute(self, vs, op, ctx):
        b, ft, fm = vs.bounds, vs.functable, vs.formats
        kind = op["kind"]
        arg = ctx[op["seq"]]
        if kind in ("cold", "bound2", "bound3", "bound4"):
            return b.bound_report(*op["args"])
        if kind == "bk":
            return b.triangular_B(op["k"])
        if kind in ("lower", "upper"):
            n = op["n"]
            if kind == "lower":
                table, t = b.construct_lower_tight(n, op["t"]), op["t"]
            else:
                table, t = b.construct_upper_tight(n, op["k"]), 2 * op["k"]
            return (table, ft.image_count(table), ft.collision_count(table, 2),
                    ft.spectrum(table), b.bound_report(n, 2, t))
        if kind.startswith("energy"):
            return vs.energy.energy_bounds(arg), vs.energy.product_set(arg)
        if kind == "json":
            table, path = arg
            fm.save_function_table(table, path)
            return fm.load_function_table(path)
        if kind == "csv":
            return fm.load_function_table(arg)
        table, codewords, messages = fm.load_code_assignment(arg)
        t = ft.collision_count(table, 2)
        return (table, codewords, messages, ft.image_count(table), t,
                b.bound_report(table.domain_size, 2, t))

    def work(self, op):
        return 1

    def canon(self, op, raw):
        return bounds_canon(op, raw)


def bounds_canon(op, raw):
    kind = op["kind"]
    if kind in ("cold", "bound2", "bound3", "bound4"):
        return raw.to_dict(), raw.lower_int <= raw.upper_int
    if kind == "bk":
        bk, w = raw
        tri = sum(r * (r - 1) // 2 for r in w.parts)
        return [bk, list(w.parts)], tri == op["k"] and w.weight == bk
    if kind in ("lower", "upper"):
        table, v, n2, spec, report = raw
        if kind == "lower":
            target_v, target_n2 = op["n"] - op["t"] // 2, op["t"]
        else:
            target_v, target_n2 = op["n"] - report.extras["b_k"], 2 * op["k"]
        ok = (v == target_v and n2 == target_n2
              and report.lower_int <= v <= report.upper_int)
        return [list(table.values), v, n2, list(spec.counts), report.to_dict()], ok
    if kind.startswith("energy"):
        report, prod = raw
        return [report.to_dict(), list(prod)], report.lower_int <= len(prod) <= report.upper_int
    if kind in ("json", "csv"):
        return list(raw.values), list(raw.values) == op["values"]
    table, codewords, messages, v, t, report = raw
    ok = (codewords == [c for c, _ in op["rows"]]
          and report.lower_int <= v <= report.upper_int)
    return [list(table.values), messages, v, t, report.to_dict()], ok


WORKLOADS = {w.name: w for w in (ClassifyQ7(), ProfileFields(), BoundsStream())}
