"""Slow reference implementations that the tests compare the library with.

Each function here computes, by brute force or through character sums, a
quantity the library decides with an exact integer kernel:

- ``spectrum_oracle`` tallies multiplicities one label at a time, where
  ``spectrum`` counts the counts of one ``Counter``;
- ``collision_count_oracle`` walks the s-tuples that ``collision_count``
  counts from the multiplicity spectrum;
- ``energy_oracle`` visits the quadruples that ``energy`` counts from the
  product multiplicities;
- the character-sum count vectors decide |S_h|^2 = q one character at a
  time, where the condition kernel tests difference counts;
- ``reduce_mod_qx`` reduces exponents mod X^q - X, a normal form the tests
  compare ``interpolate`` with;
- ``interpolate_oracle`` divides X^q - X by X - c for every point c, where
  ``interpolate`` inverts the transform of ``poly_values``;
- ``is_primitive_oracle`` raises x to (q - 1)/l for each prime l | q - 1,
  where ``is_primitive`` reads one discrete log;
- ``mul_oracle`` multiplies the digit vectors and divides by the modulus,
  and ``pow_oracle`` squares and multiplies with it, where ``FieldSpec.mul``
  and ``FieldSpec.pow`` read the discrete-log lists;
- ``difference_values`` computes f(x + a) - f(x) with two field calls per
  point, where ``difference_table`` reads the kernel's carry-free row;
- ``dft_oracle``, ``poly_values_horner`` and ``up_invariant_oracle`` compute
  term by term (Horner's rule at every point, the power sums one k at a
  time) what ``FieldSpec.transform`` gets from one integer product;
- ``average_lemma_terms_oracle`` shifts f by every aX with one field
  product per point, where ``verify_average_lemma`` rotates discrete logs;
- ``triangular_B_dp`` runs the Theta(k^1.5) dynamic program over every
  j <= k that the branch and bound of ``triangular_B`` avoids;
- ``bound_report_oracle``, ``energy_bounds_oracle`` and
  ``poly_version_bounds_oracle`` assemble each report from its separate
  bounds and amend it with ``dataclasses.replace``, finding m* by bisection,
  where the library builds every report once from one isqrt(4t + 1).

The enumerations refuse, rather than truncate, inputs over their budgets.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

from valuesets.bounds import (
    BoundReport,
    InfeasibleError,
    ParityError,
    triangular_number,
    upper_bound_refined_s2,
)
from valuesets.energy import SubsetPair
from valuesets.functable import FunctionTable, MultiplicitySpectrum
from valuesets.gf import FieldElement, FieldPoly, FieldSpec, poly_values, prime_factors

ORACLE_BUDGET = 10**8  # max n**s a brute-force oracle will accept
ENERGY_ORACLE_BUDGET = 10**8  # max quadruples the brute-force oracle will visit


class EnumerationBudgetError(RuntimeError):
    """A brute-force oracle refused to run because it would exceed its budget."""


# -- collision counts and energy ---------------------------------------------

def spectrum_oracle(f: FunctionTable) -> MultiplicitySpectrum:
    """M_r by a loop over the labels: one increment per distinct value."""
    tally = Counter(f.values)
    m = max(tally.values())
    counts = [0] * (m + 1)
    for hits in tally.values():
        counts[hits] += 1
    return MultiplicitySpectrum(f.domain_size, m, tuple(counts))


def collision_count_oracle(f: FunctionTable, s: int, budget: int = ORACLE_BUDGET) -> int:
    """Count the same tuples by direct enumeration, for cross-checking.

    Walks every ordered s-tuple of distinct domain points with a common image
    and counts one per tuple.  Refuses (rather than truncates) when the
    worst-case tuple space n**s exceeds the budget.
    """
    if s < 2:
        raise ValueError("collision order s must be >= 2")
    n = f.domain_size
    if n**s > budget:
        raise EnumerationBudgetError(
            f"enumerating up to {n}^{s} = {n**s} tuples exceeds budget {budget}"
        )
    positions: dict[int, list[int]] = {}
    for i, v in enumerate(f.values):
        positions.setdefault(v, []).append(i)

    total = 0
    chosen: list[int] = []

    def extend(candidates: list[int], depth: int):
        nonlocal total
        if depth == s:
            total += 1
            return
        for x in candidates:
            if x not in chosen:
                chosen.append(x)
                extend(candidates, depth + 1)
                chosen.pop()

    for group in positions.values():
        extend(group, 0)
    return total


def energy_oracle(pair: SubsetPair, budget: int = ENERGY_ORACLE_BUDGET) -> int:
    """Count the quadruples literally; refuses rather than truncates."""
    quads = (len(pair.a) * len(pair.b)) ** 2
    if quads > budget:
        raise EnumerationBudgetError(
            f"enumerating {quads} quadruples exceeds budget {budget}"
        )
    op = pair.group.op
    total = 0
    for a in pair.a:
        for b in pair.b:
            ab = op(a, b)
            for a2 in pair.a:
                for b2 in pair.b:
                    if op(a2, b2) == ab:
                        total += 1
    return total


# -- polynomials over GF(q) ---------------------------------------------------

def reduce_mod_qx(f: FieldPoly) -> FieldPoly:
    """Reduced form of f modulo X^q - X: X^j -> X^((j-1) mod (q-1) + 1)."""
    spec = f.spec
    q = spec.q
    out = [0] * q
    for j, c in enumerate(f.coeffs):
        if c == 0:
            continue
        jr = 0 if j == 0 else (j - 1) % (q - 1) + 1
        out[jr] = spec.add(out[jr], c)
    return FieldPoly(spec, out)


def interpolate_oracle(table: FunctionTable, spec: FieldSpec) -> FieldPoly:
    """Unique reduced polynomial with the given value table.

    Uses Lagrange interpolation in the form f = -sum_c y_c * (X^q - X)/(X - c),
    exploiting that the derivative of X^q - X is the constant -1.
    """
    q = spec.q
    if table.domain_size != q:
        raise ValueError(f"table must cover all {q} field elements")
    if any(v >= q for v in table.values):
        raise ValueError("table labels must be field-element encodings")
    coeffs = [0] * q
    minus_one = spec.neg(1)
    for c, y in enumerate(table.values):
        if y == 0:
            continue
        # synthetic division of X^q - X by (X - c), highest coefficient first
        scale = spec.mul(minus_one, y)
        b = 1
        coeffs[q - 1] = spec.add(coeffs[q - 1], scale)
        for j in range(q - 2, 0, -1):
            b = spec.mul(c, b)
            coeffs[j] = spec.add(coeffs[j], spec.mul(scale, b))
        b = spec.add(spec.mul(c, b), minus_one)  # absorbs the -X term
        coeffs[0] = spec.add(coeffs[0], spec.mul(scale, b))
    return FieldPoly(spec, coeffs)


def is_primitive_oracle(x: FieldElement) -> bool:
    """True iff x generates the multiplicative group: x^((q-1)/l) != 1 for
    every prime l dividing q - 1."""
    if x.value == 0:
        raise ValueError("0 is not in the multiplicative group")
    spec = x.spec
    q = spec.q
    return all(
        spec.pow(x.value, (q - 1) // ell) != 1 for ell in prime_factors(q - 1)
    )


def mul_oracle(spec: FieldSpec, a: int, b: int) -> int:
    """a * b in GF(p^k): the product of the base-p digit vectors (highest
    degree first), then long division by the monic modulus."""
    p, k = spec.p, spec.k
    if k == 1:
        return a * b % p

    def digits(x):  # highest degree first
        return [x // p**i % p for i in reversed(range(k))]

    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(digits(a)):
        for j, bj in enumerate(digits(b)):
            prod[i + j] += ai * bj
    modulus = spec.modulus[::-1]  # highest degree first, leading 1
    for i in range(k - 1):  # cancel the terms of degree 2k - 2 - i >= k
        lead = prod[i]
        for j, mj in enumerate(modulus):
            prod[i + j] -= lead * mj
    value = 0
    for d in prod[k - 1 :]:
        value = value * p + d % p
    return value


def pow_oracle(spec: FieldSpec, x: int, e: int) -> int:
    """x^e for e >= 0 by square and multiply over mul_oracle."""
    result = 1
    while e:
        if e & 1:
            result = mul_oracle(spec, result, x)
        x = mul_oracle(spec, x, x)
        e >>= 1
    return result


def difference_values(spec: FieldSpec, values, a: int) -> list[int]:
    """Table of x -> f(x+a) - f(x) from f's value table, two field calls per
    point."""
    if a == 0:
        raise ValueError("difference map needs a != 0")
    return [spec.sub(values[spec.add(x, a)], values[x]) for x in range(spec.q)]


def dft_oracle(spec: FieldSpec, a) -> list[int]:
    """X_j = sum_i a_i g^(ij) for j < q - 1, term by term."""
    n = spec.q - 1
    g = spec.exp[1 % n]
    out = []
    for j in range(n):
        acc = 0
        for i, x in enumerate(a):
            acc = spec.add(acc, spec.mul(x, spec.pow(g, i * j)))
        out.append(acc)
    return out


def poly_values_horner(f: FieldPoly) -> list[int]:
    """f at every point by Horner's rule: q * (deg f + 1) products."""
    spec = f.spec
    out = []
    for x in range(spec.q):
        acc = 0
        for c in reversed(f.coeffs):
            acc = spec.add(spec.mul(acc, x), c)
        out.append(acc)
    return out


def up_invariant_oracle(f: FieldPoly) -> int | None:
    """Least k in [1, q-1] with sum_x f(x)^k != 0, raising every value to
    the next power in turn: u_p(f) * q products."""
    spec = f.spec
    values = poly_values_horner(f)
    powers = [1] * spec.q
    for k in range(1, spec.q):
        total = 0
        for i, v in enumerate(values):
            powers[i] = spec.mul(powers[i], v)
            total = spec.add(total, powers[i])
        if total != 0:
            return k
    return None


def average_lemma_terms_oracle(f: FieldPoly) -> list[int]:
    """N_2(f(X) + aX) for a = 0, 1, ..., q - 1: q shifted value tables, one
    spec.mul per entry, each counted by Counter."""
    spec = f.spec
    values = poly_values(f)
    terms = []
    for a in range(spec.q):
        shifted = [spec.add(v, spec.mul(a, x)) for x, v in enumerate(values)]
        terms.append(sum(m * (m - 1) for m in Counter(shifted).values()))
    return terms


@dataclass(frozen=True)
class CharacterCountVector:
    """Pair counts of trace values: d[j] = #{(x,y) : Tr(h (f(x)-f(y))) = j}."""

    spec: FieldSpec
    h: int
    d: tuple[int, ...]

    def __post_init__(self):
        if sum(self.d) != self.spec.q**2:
            raise ValueError("count vector must cover all q^2 pairs")


def _difference_weights(spec: FieldSpec, values) -> list[int]:
    """w[c] = number of ordered pairs (x, y) with f(x) - f(y) = c."""
    q = spec.q
    counts = Counter(values)
    w = [0] * q
    items = list(counts.items())
    for v1, m1 in items:
        for v2, m2 in items:
            w[spec.sub(v1, v2)] += m1 * m2
    return w


def char_count_vector_from_values(spec: FieldSpec, values, h: int) -> CharacterCountVector:
    if h == 0:
        raise ValueError("the trivial character carries no information; h must be nonzero")
    w = _difference_weights(spec, values)
    d = [0] * spec.p
    for c, wc in enumerate(w):
        if wc:
            d[spec.traces[spec.mul(h, c)]] += wc
    return CharacterCountVector(spec, h, tuple(d))


def char_count_vector(f: FieldPoly, h) -> CharacterCountVector:
    """Count vector of f for the additive character indexed by h != 0."""
    return char_count_vector_from_values(f.spec, poly_values(f), f.spec.encoding(h))


def char_sum_sq_is_q(v: CharacterCountVector) -> bool:
    """Exact test of |S_h(f)|^2 == q over the integers.

    The squared magnitude is sum_j d[j] w^j with w a primitive p-th root of
    unity; since the minimal polynomial of w is 1 + X + ... + X^(p-1), the sum
    equals q iff d[0] - q = d[1] = ... = d[p-1].
    """
    head = v.d[0] - v.spec.q
    return all(dj == head for dj in v.d[1:])


def char_sum_abs_float(f: FieldPoly, h) -> float:
    """|sum_x w^Tr(h f(x))| in floating point; diagnostic companion of the
    exact test (h = 0 gives exactly q)."""
    spec = f.spec
    hv = spec.encoding(h)
    omega = cmath.exp(2j * cmath.pi / spec.p)
    total = 0j
    for value in poly_values(f):
        total += omega ** spec.traces[spec.mul(hv, value)]
    return abs(total)


# -- minimal-weight triangular decompositions ---------------------------------

def bk_dp_table(k: int) -> list[tuple[int, int]]:
    """Rows (B_j, largest part attaining it) for j = 0..k, by the DP over
    every part r with T_r <= j; ties go to the largest part."""
    weight = [0]
    part = [0]
    for j in range(1, k + 1):
        best = None
        best_r = 0
        r = 2
        while triangular_number(r) <= j:
            w = (r - 1) + weight[j - triangular_number(r)]
            if best is None or w < best or (w == best and r > best_r):
                best = w
                best_r = r
            r += 1
        weight.append(best)
        part.append(best_r)
    return list(zip(weight, part))


def triangular_B_dp(k: int, table: list[tuple[int, int]] | None = None) -> tuple[int, tuple[int, ...]]:
    """(B_k, witness parts), the witness taking the largest part at every
    step; ``table`` is a ``bk_dp_table`` of length > k, built when omitted."""
    if table is None:
        table = bk_dp_table(k)
    parts = []
    j = k
    while j > 0:
        r = table[j][1]
        parts.append(r)
        j -= triangular_number(r)
    return table[k][0], tuple(parts)


# -- bound reports, assembled from their parts --------------------------------

def lower_bound_oracle(n: int, s: int, t: int) -> tuple[Fraction, int]:
    """(n - t/s!) / (s - 1) with its ceiling, as a nested Fraction."""
    if s < 2:
        raise ValueError("s must be >= 2")
    if t < 0:
        raise ValueError("collision count must be non-negative")
    value = Fraction(n - Fraction(t, math.factorial(s)), s - 1)
    return value, math.ceil(value)


def max_multiplicity_oracle(s: int, t: int) -> int:
    """Largest m with P(m, s) <= t, by doubling and bisection."""
    if t < math.factorial(s):
        raise InfeasibleError(f"no function has 0 < N_{s} < {s}! (got {t})")
    lo = s
    hi = s + 1
    while math.perm(hi, s) <= t:
        lo = hi
        hi *= 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if math.perm(mid, s) <= t:
            lo = mid
        else:
            hi = mid
    return lo


def upper_bound_exact_oracle(n: int, s: int, t: int) -> int:
    """n - ceil(t / (m* P(m* - 2, s - 2))), with m* by bisection."""
    if s < 2:
        raise ValueError("s must be >= 2")
    if t < 0:
        raise ValueError("collision count must be non-negative")
    if t == 0:
        return n
    m_star = max_multiplicity_oracle(s, t)
    return n - (-(-t // (m_star * math.perm(m_star - 2, s - 2))))


def s2_report_oracle(n: int, t: int) -> BoundReport:
    """The closed-form s = 2 report; its floor n - g takes the least g with
    g(g + 1) >= t from a search, not from the parity of isqrt(4t + 1)."""
    d = 4 * t + 1
    i = math.isqrt(d)
    lower_real = Fraction(2 * n - t, 2)
    if i * i == d:
        upper_real = Fraction(2 * n - i + 1, 2)
    else:
        upper_real = n - (math.sqrt(d) - 1.0) / 2.0
    gap = math.isqrt(t)  # then the least g with g(g + 1) >= t, by search
    while gap * (gap + 1) < t:
        gap += 1
    while gap and (gap - 1) * gap >= t:
        gap -= 1
    return BoundReport(
        n=n,
        s=2,
        collision_count=t,
        lower_real=lower_real,
        lower_int=math.ceil(lower_real),
        upper_real=upper_real,
        upper_int=n - gap,
        provenance={
            "lower": "pair-deficit bound n - t/2",
            "upper": "quadratic-root bound n - 2t/(1+sqrt(4t+1))",
        },
        extras={"m1_lower": max(0, n - t)},
    )


def bound_report_oracle(n: int, s: int, t: int) -> BoundReport:
    """The s = 2 closed form, then n - B_{t/2} and the max-multiplicity bound
    merged in by ``replace``; for other s, the two general bounds."""
    if s == 2:
        if t < 0:
            raise ValueError("collision count must be non-negative")
        if t % 2:
            raise ParityError(f"N_2 is necessarily even, got {t}")
        report = s2_report_oracle(n, t)
        refined = upper_bound_refined_s2(n, t)
        exact = upper_bound_exact_oracle(n, 2, t)
        return replace(
            report,
            upper_int=min(report.upper_int, refined),
            provenance={
                **report.provenance,
                "upper_refined": "triangular-weight refinement n - B_{t/2}",
                "upper_max_multiplicity": (
                    "collision-capacity bound n - ceil(t / (m* P(m*-2, s-2)))"
                ),
            },
            extras={
                **report.extras,
                "upper_int_max_multiplicity": exact,
                "upper_int_refined": refined,
                "b_k": n - refined,
            },
        )
    low_real, low_int = lower_bound_oracle(n, s, t)
    upper = upper_bound_exact_oracle(n, s, t)
    return BoundReport(
        n=n,
        s=s,
        collision_count=t,
        lower_real=low_real,
        lower_int=low_int,
        upper_real=float(upper),
        upper_int=upper,
        provenance={
            "lower": "collision-deficit bound (n - t/s!)/(s-1)",
            "upper": "collision-capacity bound n - ceil(t / (m* P(m*-2, s-2)))",
        },
    )


def energy_bounds_oracle(pair: SubsetPair) -> BoundReport:
    """The closed-form report for t = E - n with the energy lower bound,
    provenance and extras put in by ``replace``."""
    n = len(pair.a) * len(pair.b)
    products = Counter(pair.group.op(a, b) for a in pair.a for b in pair.b)
    e = sum(m * m for m in products.values())
    lower_real = Fraction(3 * n - e, 2)
    lower = "energy-deficit bound (3n - E)/2"
    if lower_real < 1:
        lower_real = Fraction(1)
        lower += " (clamped to 1)"
    return replace(
        s2_report_oracle(n, e - n),
        lower_real=lower_real,
        lower_int=math.ceil(lower_real),
        provenance={"lower": lower, "upper": "quadratic-root bound with t = E - n"},
        extras={"energy": e, "product_set_size": len(products)},
    )


def poly_version_bounds_oracle(q: int) -> BoundReport:
    """The closed-form report for t = q - 1 with the hypothesis appended."""
    report = s2_report_oracle(q, q - 1)
    hypothesis = "collision count at its average value q-1"
    return replace(report, provenance={**report.provenance, "hypothesis": hypothesis})
