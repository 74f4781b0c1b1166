"""Collision-structure conditions on functions over small finite fields.

For a polynomial (or raw value table) f over GF(q), four progressively weaker
conditions are tested:

  C1  every difference map x -> f(x+a) - f(x), a != 0, is a bijection
      (f is planar);
  C2  every nontrivial additive character sum over f has squared magnitude
      exactly q;
  C3  every difference map has exactly one root;
  C4  the pair-collision count N_2(f) equals q - 1.

C1 implies C2 and C3, and C2/C3 each imply C4.  The module also verifies the
exact average identity sum_a N_2(f(X) + aX) = q(q-1), computes the power-sum
invariant used by the Wan-Shiue-Chen lower bound, and classifies all q^q
value tables over small fields by their 4-bit condition mask.

One integer kernel decides C1-C3 on a value table, for single polynomials
and for the classification alike.  With c(h) = #{(x, y) : f(x) - f(y) = h},
|S_h|^2 = sum_u c(u) psi(hu), and Fourier inversion over the additive
characters gives: C2 holds iff c(0) = 2q - 1 and c(h) = q - 1 for h != 0.

The rest of the per-polynomial path makes no field call per pair (x, a) or
(x, y).  The average identity reads f(x) + ax by discrete-log rotation: one
map chain and one Counter per a.  A table failing C2 names its least failing
h from the trace counts of its value counts, and never builds c(h).  u_p = 1
is read from the coefficients, sum_x f(x) = -sum c_e over e >= 1 with
(q - 1) | e, before any value or transform is computed, and so is u_p of a
monomial.

The C1 and C3 scans of one polynomial visit only the shifts a that its
coefficients leave open (_scan_shifts); the classification scans them all.
For f = alpha X^e plus an affine part (terms of degree 0 and p^i only),
every difference map is a scaled copy of the one at a = 1, so C1 needs that
row alone, and C3 too when the affine part is a constant.  When every
coefficient lies in GF(p), the rows a and a^p agree, so the scans visit the
least element of each Frobenius orbit only.  The lattice then saves the rest
(profile_from_values): a planar table meets C2 and C3 with no further scan,
and when C1 fails first at a1 the C3 scan starts at a1, since every earlier
difference map is a bijection and has exactly one root.
"""

from __future__ import annotations

import math
import operator
import os
from collections import Counter
from dataclasses import dataclass

from .bounds import S2_PROVENANCE, BoundReport, s2_report
from .functable import FunctionTable
from .gf import (
    FieldPoly,
    FieldSpec,
    _digits_of,
    field_build,
    interpolate,
    poly_values,
    prime_power_decomposition,
)

CLASSIFY_BUDGET = 1_000_000  # default cap on q**q table enumerations


class ClassificationBudgetError(ValueError):
    """classify_all refused to enumerate; raise the budget to override."""


def mask_lattice_ok(mask: str) -> bool:
    """The implications C1->C2, C1->C3, C3->C4 and C2->C4 all hold on a
    condition mask such as '0111' (the bits of C1, C2, C3, C4)."""
    c1, c2, c3, c4 = (bit == "1" for bit in mask)
    return all(not a or b for a, b in ((c1, c2), (c1, c3), (c3, c4), (c2, c4)))


@dataclass(frozen=True)
class ConditionProfile:
    c1: bool
    c2: bool
    c3: bool
    c4: bool
    n2: int
    c1_witness: int | None = None  # an a with a non-bijective difference map
    c2_witness: int | None = None  # an h whose character sum is off-magnitude
    c3_witness: int | None = None  # an a whose difference map has != 1 roots
    note: str | None = None

    @property
    def mask(self) -> str:
        return "".join("1" if c else "0" for c in (self.c1, self.c2, self.c3, self.c4))

    def lattice_ok(self) -> bool:
        """The implications C1->C2, C1->C3, C3->C4, C2->C4 all hold."""
        return mask_lattice_ok(self.mask)

    def to_dict(self) -> dict:
        return {**vars(self), "mask": self.mask}


@dataclass(frozen=True)
class ClassificationSummary:
    q: int
    p: int
    k: int
    modulus: tuple[int, ...] | None
    total: int
    mask_counts: dict[str, int]
    witness_indices: dict[str, int]
    witness_polys: dict[str, tuple[int, ...]]

    def count_where(self, c1=None, c2=None, c3=None, c4=None) -> int:
        """Number of functions whose profile matches the given constraints."""
        want = (c1, c2, c3, c4)
        total = 0
        for mask, cnt in self.mask_counts.items():
            if all(w is None or (mask[i] == "1") == w for i, w in enumerate(want)):
                total += cnt
        return total

    def to_dict(self) -> dict:
        return {
            "q": self.q,
            "p": self.p,
            "k": self.k,
            "modulus": list(self.modulus) if self.modulus else None,
            "total": self.total,
            "masks": dict(sorted(self.mask_counts.items())),
            "witnesses": {m: list(c) for m, c in sorted(self.witness_polys.items())},
            "witness_indices": dict(sorted(self.witness_indices.items())),
        }


# -- value-table level tests ------------------------------------------------

def difference_table(f: FieldPoly, a) -> FunctionTable:
    """FunctionTable of the difference map x -> f(x + a) - f(x), a != 0,
    read from the kernel's row as _c1_scan reads it."""
    spec = f.spec
    a = spec.encoding(a)
    if a == 0:
        raise ValueError("difference map needs a != 0")
    S, N = _spread_lists(spec, poly_values(f))
    red = spec.reduce
    return FunctionTable(spec.q, tuple(red[S[s] + n] for s, n in zip(spec.add_rows()(a), N)))


# The kernel works on a value table f with the field's carry-free lists
# (FieldSpec.spread, nspread, reduce): f(u) - f(v) = reduce[S[u] + N[v]] for
# the per-table lists S = spread of f and N = nspread of f.  Shifts read the
# rows add(a)[x] = x + a of a row function: FieldSpec.add_rows builds each row
# when called, and the classification passes __getitem__ of its prebuilt rows.

def _value_counts(values, q: int) -> list[int]:
    counts = [0] * q
    for v in values:
        counts[v] += 1
    return counts


def _n2(counts) -> int:
    """N_2 = sum of m(m - 1) over the value multiplicities m."""
    return sum(m * (m - 1) for m in counts)


def _spread_lists(spec: FieldSpec, values) -> tuple[list[int], list[int]]:
    """The per-table lists S = spread of f and N = nspread of f."""
    return list(map(spec.spread.__getitem__, values)), list(map(spec.nspread.__getitem__, values))


def _c1_scan(S, N, red, add, shifts=None) -> int | None:
    """First a among shifts (default: every a != 0, increasing) whose
    difference map is not a bijection, else None."""
    for a in range(1, len(S)) if shifts is None else shifts:
        seen = set()
        for s, n in zip(add(a), N):  # s = x + a, n = nspread f(x)
            d = red[S[s] + n]  # f(x + a) - f(x)
            if d in seen:
                return a
            seen.add(d)
    return None


def _difference_counts(spec: FieldSpec, counts) -> list[int]:
    """c[h] = #{(x, y) : f(x) - f(y) = h}, from the value counts of f."""
    spread, nspread, red = spec.spread, spec.nspread, spec.reduce
    c = [0] * len(counts)
    support = [(v, m) for v, m in enumerate(counts) if m]
    negatives = [(nspread[v], m) for v, m in support]
    for v1, m1 in support:
        s1 = spread[v1]
        for t2, m2 in negatives:
            c[red[s1 + t2]] += m1 * m2
    return c


def _c2_holds(spec: FieldSpec, counts, n2: int) -> bool:
    """C2: c(0) = 2q - 1 and c(h) = q - 1 for every h != 0.  Since
    c(0) = q + N_2, a table that fails C4 fails here at once, and one that
    meets C4 is refuted first by c(1) = sum_v m(v) m(v - 1), O(q) from the
    value counts m; only a table with c(1) = q - 1 pays for every c(h)."""
    q = len(counts)
    if n2 != q - 1:
        return False
    spread, red, minus_one = spec.spread, spec.reduce, spec.nspread[1]
    if sum(m * counts[red[spread[v] + minus_one]] for v, m in enumerate(counts) if m) != q - 1:
        return False
    # c[0] = 2q - 1, so the q - 1 entries equal to q - 1 must be all the others
    return _difference_counts(spec, counts).count(q - 1) == q - 1


def _c2_scan(spec: FieldSpec, counts, n2: int) -> int | None:
    """First h != 0 with |S_h|^2 != q, else None.  Only a table failing the
    integer test is scanned, from the trace counts t[i] = #{x : Tr(h f(x)) =
    i} of character h: O(|support|) per h from the value counts.  Tr is
    additive, so the pair counts d[j] = #{(x, y) : Tr(h (f(x) - f(y))) = j}
    are d[j] = sum_i t[i] t[i - j] (indices mod p), summed over the pairs of
    nonzero t[i]: at most p^2 products per h, and p^2 <= q when k >= 2.
    |S_h|^2 = sum_j d[j] w^j for a primitive p-th root of unity w, whose
    minimal polynomial is 1 + X + ... + X^(p-1), so it equals q iff
    d[0] - q = d[1] = ... = d[p-1].

    Over GF(p) a table failing the integer test needs no scan: its least
    failing h is 1, since the Galois map w -> w^h takes |S_1|^2 to |S_h|^2
    and fixes q, so |S_1|^2 = q would give |S_h|^2 = q for every h."""
    q, p = spec.q, spec.p
    if _c2_holds(spec, counts, n2):
        return None
    if spec.k == 1:
        return 1
    mul, tr = spec.mul, spec.traces
    support = [(v, m) for v, m in enumerate(counts) if m]
    for h in range(1, q):
        t = [0] * p
        for v, m in support:
            t[tr[mul(h, v)]] += m
        nonzero = [(i, ti) for i, ti in enumerate(t) if ti]
        d = [0] * p
        for i, ti in nonzero:
            for j, tj in nonzero:
                d[i - j] += ti * tj  # a negative index is i - j + p
        if any(dj != d[0] - q for dj in d[1:]):
            return h
    raise AssertionError("integer C2 test failed but every |S_h|^2 equals q")


def _c3_scan(values, add, shifts=None) -> int | None:
    """First a among shifts (default: every a != 0, increasing) whose
    difference map has root count != 1, else None."""
    for a in range(1, len(values)) if shifts is None else shifts:
        roots = 0
        for s, v in zip(add(a), values):  # s = x + a, v = f(x)
            if values[s] == v:
                roots += 1
                if roots > 1:
                    break
        if roots != 1:
            return a
    return None


def profile_from_values(
    spec: FieldSpec, values, c1_shifts=None, c3_shifts=None
) -> ConditionProfile:
    """Condition profile of a value table.  The C1 and C3 scans visit only
    c1_shifts and c3_shifts (default: every a != 0), which must include the
    least failing a of the full scan when there is one (_scan_shifts).

    The lattice saves the later scans: C1 implies C2 and C3, so a planar
    table is done after C1.  A bijective difference map has exactly one
    root, so when C1 fails first at a1 the C3 scan starts at a1."""
    q = spec.q
    add = spec.add_rows()
    counts = _value_counts(values, q)
    n2 = _n2(counts)
    a1 = _c1_scan(*_spread_lists(spec, values), spec.reduce, add, c1_shifts)
    h2 = a3 = None
    if a1 is not None:
        h2 = _c2_scan(spec, counts, n2)
        later = range(a1, q) if c3_shifts is None else [a for a in c3_shifts if a >= a1]
        a3 = _c3_scan(values, add, later)
    note = None
    if spec.p == 2:
        note = "even characteristic: N_2 is even, so C4 (and with it C1) cannot hold"
    return ConditionProfile(
        c1=a1 is None,
        c2=h2 is None,
        c3=a3 is None,
        c4=n2 == q - 1,
        n2=n2,
        c1_witness=a1,
        c2_witness=h2,
        c3_witness=a3,
        note=note,
    )


# -- polynomial level API -----------------------------------------------------

def _is_p_power(e: int, p: int) -> bool:
    while e % p == 0:
        e //= p
    return e == 1


def _scan_shifts(f: FieldPoly) -> tuple:
    """The shifts a that decide C1 and C3 for f, as (C1 shifts, C3 shifts),
    None meaning every a != 0; each holds the least failing a of its full
    scan when there is one.

    Monomial plus affine part: for f = alpha X^e + L(X) + c with L additive
    (terms X^(p^i) only), D_a f(ay) = alpha a^e D_1(X^e)(y) + L(a), so every
    row is a bijection iff row 1 is, and C1 needs the shift 1 alone.  With
    L = 0 the roots of D_a f are a times those of D_1 f, so C3 needs the
    shift 1 alone too.

    Frobenius: when every coefficient lies in GF(p), f(x^p) = f(x)^p, so
    D_(a^p) f(x^p) = (D_a f(x))^p, and rows a and a^p agree on bijectivity
    and root count.  The scans visit the orbit minima, in increasing order;
    the least failing a is one of them."""
    spec = f.spec
    p = spec.p
    terms = [e for e, c in enumerate(f.coeffs) if c and e]
    orbits = spec.frobenius_minima if spec.k > 1 and all(c < p for c in f.coeffs) else None
    c1 = (1,) if sum(not _is_p_power(e, p) for e in terms) <= 1 else orbits
    c3 = (1,) if len(terms) <= 1 else orbits
    return c1, c3


def test_c1(f: FieldPoly) -> tuple[bool, int | None]:
    spec = f.spec
    shifts, _ = _scan_shifts(f)
    a = _c1_scan(*_spread_lists(spec, poly_values(f)), spec.reduce, spec.add_rows(), shifts)
    return a is None, a


def test_c2(f: FieldPoly) -> tuple[bool, int | None]:
    counts = _value_counts(poly_values(f), f.spec.q)
    h = _c2_scan(f.spec, counts, _n2(counts))
    return h is None, h


def test_c3(f: FieldPoly) -> tuple[bool, int | None]:
    _, shifts = _scan_shifts(f)
    a = _c3_scan(poly_values(f), f.spec.add_rows(), shifts)
    return a is None, a


def n2_poly(f: FieldPoly) -> int:
    return _n2(_value_counts(poly_values(f), f.spec.q))


def test_c4(f: FieldPoly) -> bool:
    return n2_poly(f) == f.spec.q - 1


def condition_profile(f: FieldPoly) -> ConditionProfile:
    return profile_from_values(f.spec, poly_values(f), *_scan_shifts(f))


def _average_lemma_terms(f: FieldPoly) -> list[int]:
    """N_2(f(X) + aX) for every a, in encoding order.

    For a = g^r and x = g^l, ax = g^(r+l): row a reads the sums
    f(g^l) + g^(r+l), l < q - 1, carry-free from the spreads of f's values
    in log order plus the spreads E[m] = spread[g^m] rotated by r.  Each
    row is one map chain and one Counter; x = 0 adds f(0) to every row, and
    N_2 = sum m^2 - q over the row's value counts m.  Row a = 0 is N_2(f)."""
    spec = f.spec
    q, n = spec.q, spec.q - 1
    spread, red, exp = spec.spread, spec.reduce, spec.exp
    values = poly_values(f)
    f0 = values[0]
    base = [spread[values[x]] for x in exp]  # spread f(g^l)
    rotations = [spread[x] for x in exp] * 2  # spread g^m, m < 2(q - 1)
    terms = [_n2(_value_counts(values, q))] * q
    for r, a in enumerate(exp):
        m = Counter(map(red.__getitem__, map(operator.add, base, rotations[r : r + n])))
        m[f0] += 1
        terms[a] = sum(map(operator.mul, m.values(), m.values())) - q
    return terms


def verify_average_lemma(f: FieldPoly) -> tuple[int, bool]:
    """Exact check of sum over a of N_2(f(X) + aX) == q(q-1).

    The identity holds for every f: each ordered pair x != y collides in
    exactly one f + aX, the one with a = -(f(x) - f(y)) / (x - y).  So the
    check tests the field arithmetic, not f: the products ax come from the
    discrete-log rotation of exp and the sums f(x) + ax from spread and
    reduce, with no mul call (_average_lemma_terms)."""
    q = f.spec.q
    total = sum(_average_lemma_terms(f))
    return total, total == q * (q - 1)


def poly_version_bounds(q: int) -> BoundReport:
    """Image-count bounds for a polynomial whose N_2 equals the average q-1."""
    hypothesis = "collision count at its average value q-1"
    return s2_report(q, q - 1, provenance={**S2_PROVENANCE, "hypothesis": hypothesis})


def up_invariant(f: FieldPoly) -> int | None:
    """Least k in [1, q-1] with sum_x f(x)^k != 0 in the field; None if all
    power sums vanish (they are (q-1)-periodic, so no further k can work).

    k = 1 is read from the coefficients: sum_x x^e is -1 when e >= 1 and
    (q-1) | e, and 0 otherwise (q * 1 = 0 at e = 0), so sum_x f(x) is minus
    the sum of those c_e.  When that is nonzero, u_p = 1 and no value is
    computed.  A monomial alpha X^e, e >= 1, has sum_x f(x)^k =
    alpha^k sum_x x^(ek), so u_p is the least k with (q-1) | ek, that is
    (q-1) / gcd(e, q-1).  Otherwise, for k >= 1, sum_x f(x)^k =
    sum_l m(g^l) g^(lk), where m(v) is the number of x with f(x) = v, taken
    mod p: the transform's X_(k mod (q-1)) of m(g^l) mod p."""
    spec = f.spec
    n = spec.q - 1
    first = 0
    for c in f.coeffs[n::n]:  # c_e for e = q - 1, 2(q - 1), ...
        first = spec.add(first, c)
    if first:
        return 1
    terms = [e for e, c in enumerate(f.coeffs) if c]
    if len(terms) == 1 and terms[0]:
        return n // math.gcd(terms[0], n)
    counts = _value_counts(poly_values(f), spec.q)
    sums = spec.transform([counts[v] % spec.p for v in spec.exp])
    return next((k for k in range(1, n + 1) if sums[k % n]), None)


def wsc_from_up(u: int | None) -> int | None:
    """Wan-Shiue-Chen lower bound V(f) >= u_p(f) + 1 from u = u_p(f), when
    u_p is finite."""
    return None if u is None else u + 1


def wsc_lower(f: FieldPoly) -> int | None:
    """Wan-Shiue-Chen lower bound V(f) >= u_p(f) + 1, when u_p is finite."""
    return wsc_from_up(up_invariant(f))


# -- exhaustive classification ------------------------------------------------

def index_to_values(index: int, q: int) -> list[int]:
    """Lexicographic enumeration: index digits base q, values[0] most significant."""
    return _digits_of(index, q, q)[::-1]


def _classify_shard(args) -> dict[str, tuple[int, int]]:
    """Profile every value table with index in [lo, hi); returns, per 4-bit
    mask name met, its count and the first (least) index seen."""
    p, k, modulus, lo, hi = args
    spec = field_build(p, k, modulus)
    q = spec.q
    qm1 = q - 1
    spread, nspread, red = spec.spread, spec.nspread, spec.reduce
    shift = spec.add_rows()
    add = [shift(a) for a in range(q)].__getitem__  # q rows of q entries, read by every table

    counts = [0] * 16
    first: list[int | None] = [None] * 16

    vals = index_to_values(lo, q)
    S, N = _spread_lists(spec, vals)
    cnt = _value_counts(vals, q)
    n2 = _n2(cnt)
    for idx in range(lo, hi):
        mask = (
            (8 if _c1_scan(S, N, red, add) is None else 0)
            | (4 if _c2_holds(spec, cnt, n2) else 0)
            | (2 if _c3_scan(vals, add) is None else 0)
            | (1 if n2 == qm1 else 0)
        )
        counts[mask] += 1
        if first[mask] is None:
            first[mask] = idx

        # odometer increment; moving one x from value v to w changes N_2 by
        # 2 * (count of w before) - 2 * (count of v after)
        for pos in range(qm1, -1, -1):
            v = vals[pos]
            w = v + 1 if v < qm1 else 0
            vals[pos] = w
            S[pos] = spread[w]
            N[pos] = nspread[w]
            cnt[v] -= 1
            n2 += 2 * (cnt[w] - cnt[v])
            cnt[w] += 1
            if w:
                break
    return {format(m, "04b"): (counts[m], first[m]) for m in range(16) if counts[m]}


def classify_all(
    q: int,
    budget: int = CLASSIFY_BUDGET,
    jobs: int = 1,
    modulus=None,
) -> ClassificationSummary:
    """Profile all q^q value tables over GF(q) and aggregate by condition mask.

    Enumeration is lexicographic on value tables.  The range is split into
    min(jobs, CPUs) contiguous shards, one per worker process (none for a
    single shard), whose merge in shard order (count sums, each mask's first
    index) makes the summary independent of the shard count.  jobs must be
    an int >= 1.
    """
    if type(jobs) is not int or jobs < 1:
        raise ValueError(f"jobs must be an int >= 1, got {jobs!r}")
    # q^q >= 2^q > budget once q exceeds the budget's bit length: refused
    # before q is factored or q^q formed
    if q > budget.bit_length() or q**q > budget:
        raise ClassificationBudgetError(
            f"classifying GF({q}) means {q}^{q} tables, over budget "
            f"{budget}; pass an explicit larger budget to force it"
        )
    p, k = prime_power_decomposition(q)
    total = q**q
    spec = field_build(p, k, modulus)
    mod = spec.modulus

    step = -(-total // min(jobs, os.cpu_count() or 1))
    shards = [(p, k, mod, lo, min(lo + step, total)) for lo in range(0, total, step)]
    if len(shards) == 1:
        results = [_classify_shard(shards[0])]
    else:
        # Imported here: the pool's multiprocessing stack would otherwise
        # load with every CLI subcommand, and only this branch uses it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(shards)) as pool:
            results = list(pool.map(_classify_shard, shards))

    # the shards cover [0, q^q) in order, so the first to meet a mask holds
    # its least index
    mask_counts: dict[str, int] = {}
    witness_indices: dict[str, int] = {}
    for tally in results:
        for mask, (count, first) in tally.items():
            mask_counts[mask] = mask_counts.get(mask, 0) + count
            witness_indices.setdefault(mask, first)
    witness_polys = {
        mask: interpolate(FunctionTable(q, tuple(index_to_values(idx, q))), spec).coeffs
        for mask, idx in witness_indices.items()
    }

    return ClassificationSummary(
        q=q,
        p=p,
        k=k,
        modulus=mod,
        total=total,
        mask_counts=mask_counts,
        witness_indices=witness_indices,
        witness_polys=witness_polys,
    )
