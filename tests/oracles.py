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
- ``dft_oracle``, ``poly_values_horner`` and ``up_invariant_oracle`` compute
  term by term (Horner's rule at every point, the power sums one k at a
  time) what ``FieldSpec.transform`` gets from one integer product;
- ``average_lemma_terms_oracle`` shifts f by every aX with one field
  product per point, where ``verify_average_lemma`` rotates discrete logs;
- ``triangular_B_dp`` runs the Theta(k^1.5) dynamic program over every
  j <= k that the branch and bound of ``triangular_B`` avoids.

The enumerations refuse, rather than truncate, inputs over their budgets.
"""

from __future__ import annotations

import cmath
from collections import Counter
from dataclasses import dataclass

from valuesets.bounds import triangular_number
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
            d[spec.trace_int(spec.mul(h, c))] += wc
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
        total += omega ** spec.trace_int(spec.mul(hv, value))
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
