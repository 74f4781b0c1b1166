"""Command-line toolkit emitting reproducible JSON reports.

Every report embeds a run manifest (subcommand, flags, input digests, seed,
worker count, tool version); reports carry no timestamps and all randomness
is seeded, so re-running an identical manifest reproduces the report
byte-for-byte.  Exit codes: 0 all asserted properties hold, 1 a property was
violated, 2 malformed input or refused budget.  The subcommands that build a
field (field, test-conditions, verify-lemma) refuse q above
formats.FIELD_LIMIT, verify-lemma --random N refuses q^2 * N above
LEMMA_BUDGET, bounds refuses --n or --t above BOUNDS_LIMIT and --s above
BOUNDS_S_LIMIT, and construct refuses --n above CONSTRUCT_LIMIT.
"""

from __future__ import annotations

import argparse
import functools
import math
import random
import sys
from pathlib import Path

from . import __version__
from .bounds import (
    bound_report,
    construct_lower_tight,
    construct_upper_tight,
    triangular_B,
    triangular_number,
    upper_bound_refined_s2,
)
from .conditions import (
    CLASSIFY_BUDGET,
    classify_all,
    condition_profile,
    mask_lattice_ok,
    up_invariant,
    verify_average_lemma,
    wsc_from_up,
)
from .energy import GroupSpec, SubsetPair, energy_bounds, product_set
from .formats import (
    InputFormatError,
    check_field_size,
    dumps_indented,
    function_table_to_dict,
    is_inline,
    load_cayley_csv,
    load_code_assignment,
    load_function_table,
    load_poly,
    load_subset,
    read_input,
)
from .functable import (
    collision_count,
    image_count,
    spectrum,
)
from .gf import FieldPoly, field_build, poly_values, primitive_elements, prime_power_decomposition

# Cap on q^2 * N for verify-lemma --random N: each polynomial costs O(q^2)
# steps, about 15 s at q^2 = 10^8 (one GF(9973) polynomial) on a shared
# 2-vCPU host.  A single polynomial over any field below formats.FIELD_LIMIT
# fits.
LEMMA_BUDGET = 10**8

# Largest --n and --t of bounds: the report carries its real bounds as
# floats, and n or 4t + 1 beyond the float range (about 1.8e308) overflows.
BOUNDS_LIMIT = 10**300

# Largest --s of bounds, checked before P(n, s) is computed: P(10^300, s)
# costs about 0.1 s at s = 1000 and grows superlinearly in s.  Any s >= 171
# admits only t = 0 under BOUNDS_LIMIT, since 171! > 10^300.
BOUNDS_S_LIMIT = 1000

# Largest --n of construct: the report lists all n values, and n = 10^6
# took about 1 s and 160 MB.
CONSTRUCT_LIMIT = 10**5


def _input(args, source: str, what: str | None = None):
    """What a loader reads for a file argument: source itself when it is
    inline JSON of kind what, else the file it names, read once (a pipe or
    FIFO too), whose SHA-256 goes to the manifest."""
    if what is not None and is_inline(source, what):
        return source
    stream, args._digests[str(source)] = read_input(source)
    return stream


# -- subcommand handlers ------------------------------------------------------

def _cmd_stats(args):
    table = load_function_table(_input(args, args.table))
    spec = spectrum(table)
    n2 = collision_count(table, 2)
    result = {
        "n": table.domain_size,
        "image_count": image_count(table),
        "spectrum": {str(r): spec.counts[r] for r in range(1, spec.m + 1) if spec.counts[r]},
        "max_multiplicity": spec.m,
        "collision_count_2": n2,
        "collision_count_3": collision_count(table, 3),
        "n2_even": n2 % 2 == 0,
        "m1_lower": max(0, table.domain_size - n2),
    }
    return result, 0 if result["n2_even"] else 1


def _cmd_bounds(args):
    n, s, t = args.n, args.s, args.t
    if n < 1:
        raise InputFormatError(f"--n must be at least 1, got {n}")
    if max(n, t) > BOUNDS_LIMIT:
        raise InputFormatError("--n and --t must be at most BOUNDS_LIMIT = 10^300 (the report's floats)")
    if s > BOUNDS_S_LIMIT:
        raise InputFormatError(f"--s must be at most BOUNDS_S_LIMIT = {BOUNDS_S_LIMIT}, got {s}")
    if s >= 2:
        if t < 0:  # P(n, s) may have more digits than str() converts
            raise InputFormatError(f"--t must lie in [0, P(n, s)], got {t}")
        cap = math.perm(n, s)
        if t > cap:  # then cap < t <= 10^300 prints
            raise InputFormatError(f"--t must lie in [0, P(n, s)] = [0, {cap}], got {t}")
    report = bound_report(n, s, t)
    return report.to_dict(), 0


def _cmd_bk(args):
    bk, witness = triangular_B(args.k)
    return {
        "k": args.k,
        "b_k": bk,
        "witness_parts": list(witness.parts),
        "witness_triangulars": [triangular_number(r) for r in witness.parts],
        "weight": witness.weight,
    }, 0


def _cmd_construct(args):
    if args.n < 1:
        raise InputFormatError(f"--n must be at least 1, got {args.n}")
    if args.n > CONSTRUCT_LIMIT:
        raise InputFormatError(
            f"--n must be at most CONSTRUCT_LIMIT = {CONSTRUCT_LIMIT} "
            f"(the report lists every value), got {args.n}"
        )
    if args.kind == "lower":
        table = construct_lower_tight(args.n, args.t)
        target_v = args.n - args.t // 2
    else:
        target_v = upper_bound_refined_s2(args.n, args.t)
        table = construct_upper_tight(args.n, args.t // 2)
    achieved_v = image_count(table)
    achieved_n2 = collision_count(table, 2)
    result = {
        "kind": args.kind,
        "n": args.n,
        "t": args.t,
        "table": function_table_to_dict(table),
        "target_image_count": target_v,
        "achieved_image_count": achieved_v,
        "achieved_collision_count": achieved_n2,
    }
    ok = achieved_v == target_v and achieved_n2 == args.t
    return result, 0 if ok else 1


def _cmd_field(args):
    check_field_size(args.p, args.k)
    modulus = _parse_modulus(args.modulus)
    spec = field_build(args.p, args.k, modulus)
    prims = primitive_elements(spec)
    result = {
        "p": spec.p,
        "k": spec.k,
        "q": spec.q,
        "modulus": list(spec.modulus) if spec.modulus else None,
        "modulus_canonical": modulus is None,
        "primitive_count": len(prims),
        "primitive_elements": [e.value for e in prims] if spec.q <= 1024 else None,
        "trace_of_one": spec.traces[1],
    }
    return result, 0


def _cmd_test_conditions(args):
    poly = load_poly(_input(args, args.poly, "polynomial spec"))
    profile = condition_profile(poly)
    u = up_invariant(poly)
    result = {
        "q": poly.spec.q,
        "modulus": list(poly.spec.modulus) if poly.spec.modulus else None,
        "coeffs": list(poly.coeffs),
        "profile": profile.to_dict(),
        "image_count": len(set(poly_values(poly))),
        "up_invariant": u,
        "wsc_lower": wsc_from_up(u),
        "lattice_ok": profile.lattice_ok(),
    }
    return result, 0 if profile.lattice_ok() else 1


def _cmd_classify(args):
    modulus = _parse_modulus(args.modulus)
    budget = args.budget if args.budget is not None else CLASSIFY_BUDGET
    summary = classify_all(args.q, budget=budget, jobs=args.jobs, modulus=modulus)
    violations = sum(
        cnt for mask, cnt in summary.mask_counts.items() if not mask_lattice_ok(mask)
    )
    result = summary.to_dict()
    result["derived"] = {
        "lattice_violations": violations,
        "c2_set_equals_c3_set": summary.count_where(c2=True, c3=False) == 0
        and summary.count_where(c2=False, c3=True) == 0,
        "c2_and_c3_outside_c1": summary.count_where(c1=False, c2=True, c3=True),
    }
    return result, 0 if violations == 0 else 1


def _cmd_verify_lemma(args):
    polys = []
    if args.poly:
        polys.append(load_poly(_input(args, args.poly, "polynomial spec")))
        q = polys[0].spec.q
    else:
        if args.q is None:
            raise InputFormatError("verify-lemma needs --poly or --q with --random")
        if args.random < 1:
            raise InputFormatError(f"--random must be at least 1, got {args.random}")
        check_field_size(args.q, 1)
        work = args.q**2 * args.random
        if work > LEMMA_BUDGET:
            raise InputFormatError(
                f"verify-lemma --q {args.q} --random {args.random} means q^2 * N = {work} "
                f"steps, over the budget {LEMMA_BUDGET}; lower --random"
            )
        p, k = prime_power_decomposition(args.q)
        spec = field_build(p, k)
        rng = random.Random(args.seed)
        for _ in range(args.random):
            coeffs = [rng.randrange(spec.q) for _ in range(spec.q)]
            polys.append(FieldPoly(spec, coeffs))
        q = spec.q
    expected = q * (q - 1)
    entries = []
    all_ok = True
    for poly in polys:
        total, ok = verify_average_lemma(poly)
        all_ok = all_ok and ok
        entries.append({"coeffs": list(poly.coeffs), "sum": total, "ok": ok})
    result = {"q": q, "expected": expected, "count": len(entries), "polys": entries}
    return result, 0 if all_ok else 1


def _build_group(args) -> GroupSpec:
    picked = [x for x in (args.cyclic, args.product, args.cayley) if x is not None]
    if len(picked) != 1:
        raise InputFormatError("give exactly one of --cyclic, --product, --cayley")
    if args.cyclic is not None:
        return GroupSpec.cyclic(args.cyclic)
    if args.product is not None:
        orders = [int(x) for x in args.product.split(",") if x.strip()]
        return GroupSpec.product_of_cyclics(orders)
    return load_cayley_csv(_input(args, args.cayley))


def _cmd_energy(args):
    group = _build_group(args)
    a, b = (load_subset(_input(args, source, "subset")) for source in (args.a, args.b))
    pair = SubsetPair(group, tuple(a), tuple(b))
    report = energy_bounds(pair)
    prod = product_set(pair)
    sandwich_ok = report.lower_int <= len(prod) <= report.upper_int
    result = {
        "group": {"kind": group.kind, "order": group.order},
        "a_size": len(pair.a),
        "b_size": len(pair.b),
        "n": report.n,
        "energy": report.extras["energy"],
        "collision_count": report.collision_count,
        "product_set_size": report.extras["product_set_size"],
        "product_set": list(prod) if len(prod) <= 1000 else None,
        "bounds": report.to_dict(),
        "sandwich_ok": sandwich_ok,
    }
    return result, 0 if sandwich_ok else 1


def _cmd_code_bounds(args):
    table, codewords, messages = load_code_assignment(_input(args, args.assignment))
    n = table.domain_size
    t = collision_count(table, 2)
    v = image_count(table)
    report = bound_report(n, 2, t)
    within = report.lower_int <= v <= report.upper_int
    result = {
        "codewords": n,
        "distinct_messages": v,
        "collision_count": t,
        "bounds": report.to_dict(),
        "messages_within_bounds": within,
        "note": (
            "bounds apply to the number of distinct messages actually used "
            "(the image count of the assignment), with t the ordered count of "
            "distinct-codeword pairs sharing a message"
        ),
    }
    return result, 0 if within else 1


# -- plumbing -----------------------------------------------------------------

def _parse_modulus(text: str | None):
    if text is None:
        return None
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise InputFormatError(f"modulus must be comma-separated integers: {exc}") from exc


def _build_manifest(args) -> dict:
    return {
        "tool": "valuesets",
        "version": __version__,
        "subcommand": args.subcommand,
        "options": {k: v for k, v in vars(args).items() if k not in {"handler", "_digests", "out"}},
        "input_digests": dict(sorted(args._digests.items())),
        "seed": getattr(args, "seed", 0),
        "jobs": getattr(args, "jobs", 1),
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared for the process."""
    parser = argparse.ArgumentParser(
        prog="valuesets",
        description="Image-set statistics, collision bounds, and finite-field planarity conditions",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("stats", help="statistics of a function table file")
    sp.add_argument("table", help="JSON or CSV function table")
    sp.set_defaults(handler=_cmd_stats)

    sp = sub.add_parser("bounds", help="two-sided image-count bounds from (n, s, t)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--s", type=int, default=2)
    sp.add_argument("--t", type=int, required=True)
    sp.set_defaults(handler=_cmd_bounds)

    sp = sub.add_parser("bk", help="minimal triangular-decomposition weight B_k")
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(handler=_cmd_bk)

    sp = sub.add_parser("construct", help="build a bound-attaining function table")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--t", type=int, required=True, help="target pair-collision count")
    sp.add_argument("--kind", choices=("lower", "upper"), default="lower")
    sp.set_defaults(handler=_cmd_construct)

    sp = sub.add_parser("field", help="describe GF(p^k) and its primitive elements")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--k", type=int, default=1)
    sp.add_argument("--modulus", help="little-endian coefficients incl. leading 1")
    sp.set_defaults(handler=_cmd_field)

    sp = sub.add_parser("test-conditions", help="condition profile of a polynomial")
    sp.add_argument("--poly", required=True, help="polynomial spec JSON (path or inline)")
    sp.set_defaults(handler=_cmd_test_conditions)

    sp = sub.add_parser("classify", help="profile all q^q value tables over GF(q)")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--modulus", help="little-endian coefficients incl. leading 1")
    sp.add_argument("--jobs", type=int, default=1, help="min(jobs, CPUs) workers, jobs >= 1 (default 1)")
    sp.add_argument("--budget", type=int, default=None, help="enumeration budget override")
    sp.set_defaults(handler=_cmd_classify)

    sp = sub.add_parser("verify-lemma", help="check sum_a N_2(f+aX) == q(q-1)")
    sp.add_argument("--poly", help="polynomial spec JSON (path or inline)")
    sp.add_argument("--q", type=int, help="field size for --random mode")
    sp.add_argument("--random", type=int, default=25, help="number of random polynomials")
    sp.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    sp.set_defaults(handler=_cmd_verify_lemma)

    sp = sub.add_parser("energy", help="multiplicative energy bounds for subset pairs")
    sp.add_argument("--cyclic", type=int, help="cyclic group Z_n")
    sp.add_argument("--product", help="direct product of cyclics, e.g. 2,3,4")
    sp.add_argument("--cayley", help="CSV Cayley table path")
    sp.add_argument("--a", required=True, help="subset A as JSON array (path or inline)")
    sp.add_argument("--b", required=True, help="subset B as JSON array (path or inline)")
    sp.set_defaults(handler=_cmd_energy)

    sp = sub.add_parser("code-bounds", help="redundancy bounds for a code assignment")
    sp.add_argument("assignment", help="CSV of codeword,message rows")
    sp.set_defaults(handler=_cmd_code_bounds)

    for sp in sub.choices.values():
        sp.add_argument("--out", help="also write the JSON report to this path")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._digests = {}
    try:
        result, code = args.handler(args)
        text = dumps_indented({"manifest": _build_manifest(args), "result": result})
        if args.out:
            Path(args.out).write_text(text + "\n")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
