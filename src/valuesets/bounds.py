"""Bounds on the image count V(f) in terms of the collision count N_s(f).

The two-sided bound for general s is implemented in its exact integer form:
the upper bound derives from the largest multiplicity m* compatible with the
collision count, never from an asymptotic expansion.  For s = 2 the upper
bound has a closed form tied to triangular numbers, and a strictly better
refinement is available through the minimal-weight triangular decomposition
B_k.  B_k is computed exactly by a memoized branch and bound over the largest
part, pruned with the lower bound ceil((sqrt(8k+1) - 1)/2), for k up to
BK_LIMIT.

The one integer gap of the s = 2 bound, g = ceil((sqrt(4t+1) - 1)/2), is
_gap(t), the only root isqrt(4t + 1) in the package; it also prunes the B_k
search.  Every s = 2 report is assembled in one pass by s2_report from that
gap: the closed form, its floor n - g and m* = g + [g(g + 1) = t],
and bound_report passes B_{t/2} in, so each BoundReport is built once.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .functable import FunctionTable


class ParityError(ValueError):
    """A pair-collision count must be even."""


class InfeasibleError(ValueError):
    """No function with the requested parameters exists."""


@dataclass(frozen=True)
class BoundReport:
    """Two-sided bound on V(f) for given (n, s, collision count)."""

    n: int
    s: int
    collision_count: int
    lower_real: Fraction
    lower_int: int
    upper_real: Fraction | float
    upper_int: int
    provenance: dict[str, str]
    extras: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        upper_exact = isinstance(self.upper_real, Fraction)
        return {
            "n": self.n,
            "s": self.s,
            "collision_count": self.collision_count,
            "lower_real": float(self.lower_real),
            "lower_real_exact": f"{self.lower_real.numerator}/{self.lower_real.denominator}",
            "lower_int": self.lower_int,
            "upper_real": float(self.upper_real),
            "upper_real_exact": (
                f"{self.upper_real.numerator}/{self.upper_real.denominator}"
                if upper_exact
                else None
            ),
            "upper_int": self.upper_int,
            "provenance": dict(self.provenance),
            "extras": dict(self.extras),
        }


@dataclass(frozen=True)
class TriangularDecomposition:
    """A multiset of triangular numbers T_r summing to k, with its weight."""

    k: int
    parts: tuple[int, ...]  # the r_i, non-increasing, each >= 2
    weight: int

    def __post_init__(self):
        parts = self.parts
        if list(parts) != sorted(parts, reverse=True):
            raise ValueError("parts must be non-increasing")
        if parts and parts[-1] < 2:  # the least part, once the order holds
            raise ValueError("parts must be >= 2")
        total = sum(parts)
        # sum T_r = k, doubled: sum r(r - 1) = sum r^2 - sum r = 2k
        if sum(map(operator.mul, parts, parts)) - total != 2 * self.k:
            raise ValueError("parts do not sum to k")
        if self.weight != total - len(parts):
            raise ValueError("weight must equal sum of (r_i - 1)")


def triangular_number(r: int) -> int:
    """T_r = r(r-1)/2."""
    return r * (r - 1) // 2


def lower_bound(n: int, s: int, t: int) -> tuple[Fraction, int]:
    """Exact lower bound (n - t/s!) / (s-1) on V(f), with its ceiling.

    For s = 2 this reads n - t/2.
    """
    if s < 2:
        raise ValueError("s must be >= 2")
    if t < 0:
        raise ValueError("collision count must be non-negative")
    f = math.factorial(s)
    value = Fraction(n * f - t, f * (s - 1))
    return value, math.ceil(value)


def max_multiplicity_for(s: int, t: int) -> int:
    """Largest m with P(m, s) <= t; the maximal multiplicity any f with
    N_s(f) = t can have.  Requires t >= s!.

    Found by doubling and bisection for every s; the s = 2 reports read
    m* from _gap instead (s2_report)."""
    if t < math.factorial(s):
        raise InfeasibleError(f"no function has 0 < N_{s} < {s}! (got {t})")
    lo = s  # P(s, s) = s! <= t
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


def upper_bound_exact(n: int, s: int, t: int) -> int:
    """Exact integer upper bound on V(f) given N_s(f) = t.

    With m* the largest multiplicity compatible with t, every such f
    satisfies sum (r-1) M_r >= t / (m* P(m*-2, s-2)), whence
    V <= n - ceil of that ratio.  t = 0 short-circuits to n.
    """
    if s < 2:
        raise ValueError("s must be >= 2")
    if t < 0:
        raise ValueError("collision count must be non-negative")
    if t == 0:
        return n
    m_star = max_multiplicity_for(s, t)  # raises when 0 < t < s!
    denom = m_star * math.perm(m_star - 2, s - 2)
    return n - (-(-t // denom))


def _gap(t: int) -> int:
    """Least g with g(g + 1) >= t, i.e. ceil((sqrt(4t+1) - 1)/2), exactly.

    With i = isqrt(4t+1): when 4t+1 = i^2 (i odd) the root is (i-1)/2;
    otherwise (sqrt(4t+1)-1)/2 lies strictly between (i-1)/2 and i/2, so
    its ceiling is (i+1)//2.  For t = 2k this is a lower bound on B_k:
    parts a_i with sum T_{a_i} = k and weight w = sum (a_i - 1) satisfy
    2k = sum a_i(a_i - 1) <= w(w + 1).
    """
    d = 4 * t + 1
    i = math.isqrt(d)
    return (i - 1) // 2 if i * i == d else (i + 1) // 2


S2_PROVENANCE = {
    "lower": "pair-deficit bound n - t/2",
    "upper": "quadratic-root bound n - 2t/(1+sqrt(4t+1))",
}

_REFINED_PROVENANCE = {
    **S2_PROVENANCE,
    "upper_refined": "triangular-weight refinement n - B_{t/2}",
    "upper_max_multiplicity": "collision-capacity bound n - ceil(t / (m* P(m*-2, s-2)))",
}


def s2_report(
    n: int,
    t: int,
    lower_real: Fraction | None = None,
    provenance: dict[str, str] | None = None,
    extras: dict[str, int] | None = None,
    *,
    bk: int | None = None,
) -> BoundReport:
    """The s = 2 report for N_2 = t, built once and without checking t.

    The lower bound defaults to the pair deficit n - t/2 and the extras to
    m1_lower; the applications (planar functions, product sets) pass their
    own lower bound, provenance and extras instead.  The upper bound
    n - 2t/(1+sqrt(4t+1)) equals n - (sqrt(4t+1)-1)/2, and its floor is
    n - g for the gap g = _gap(t), with no floating point; when g(g + 1) = t,
    i.e. 4t+1 = (2g + 1)^2, the bound is attained exactly.  bound_report
    passes only bk = B_{t/2}: the report then folds in the refinement
    n - B_{t/2}, and its provenance and extras add that and the
    max-multiplicity bound n - ceil(t/m*), with m* = g + 1 when attained
    and g otherwise.
    """
    gap = _gap(t)
    attained = gap * (gap + 1) == t  # 4t + 1 = (2g + 1)^2
    upper_int = n - gap
    if attained:
        upper_real: Fraction | float = Fraction(n - gap)
    else:
        upper_real = n - (math.sqrt(4 * t + 1) - 1.0) / 2.0  # diagnostic only
    if lower_real is None:
        lower_real = Fraction(2 * n - t, 2)
    if bk is None:
        if provenance is None:
            provenance = dict(S2_PROVENANCE)
        if extras is None:
            extras = {"m1_lower": max(0, n - t)}
    else:
        refined = n - bk
        upper_int = min(upper_int, refined)
        m_star = gap + attained  # largest m with m(m - 1) <= t
        provenance = dict(_REFINED_PROVENANCE)
        extras = {
            "m1_lower": max(0, n - t),
            "upper_int_max_multiplicity": n - (-(-t // m_star)),
            "upper_int_refined": refined,
            "b_k": bk,
        }
    return BoundReport(
        n=n,
        s=2,
        collision_count=t,
        lower_real=lower_real,
        lower_int=math.ceil(lower_real),
        upper_real=upper_real,
        upper_int=upper_int,
        provenance=provenance,
        extras=extras,
    )


def _check_pair_count(t: int) -> None:
    if t < 0:
        raise ValueError("collision count must be non-negative")
    if t % 2:
        raise ParityError(f"N_2 is necessarily even, got {t}")


def bounds_s2(n: int, t: int) -> BoundReport:
    """Two-sided bound for s = 2; t must be even (pair collisions pair up)."""
    _check_pair_count(t)
    return s2_report(n, t)


# Largest k whose B_k is searched.  The search grows like (8k)^(1/4): cold
# calls for k near 10**20 took 0.1-0.3 s on a 2-vCPU host under Python 3.11.
BK_LIMIT = 10**20


@functools.lru_cache(maxsize=1 << 16)
def _bk(j: int) -> tuple[int, int]:
    """(B_j, largest part of a minimal-weight decomposition of j).

    Branch and bound over the largest part r, scanned downward from the
    largest r with T_r <= j.  A decomposition of weight w whose largest part
    is R has j <= R w / 2, so once r (best - 1) < 2j no smaller largest part
    can improve on the best; a branch r whose least possible weight
    r - 1 + _gap(2(j - T_r)) is already >= best is skipped.  Only a strict
    improvement replaces the best, so ties keep the largest part.
    """
    if j == 0:
        return 0, 0
    r = (math.isqrt(8 * j + 1) + 1) // 2  # largest r with T_r <= j
    rest = j - triangular_number(r)
    best, best_r = j + 1, 0
    while r >= 2 and r * (best - 1) >= 2 * j:
        if r - 1 + _gap(2 * rest) < best:
            w = r - 1 + _bk(rest)[0]
            if w < best:
                best, best_r = w, r
        r -= 1
        rest += r  # j - T_r for the new r
    return best, best_r


def _check_bk_domain(k: int) -> None:
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > BK_LIMIT:
        raise ValueError(f"B_k is computed for k <= {BK_LIMIT}, got k = {k}")


def triangular_B(k: int) -> tuple[int, TriangularDecomposition]:
    """Minimal weight B_k over all triangular decompositions of k, with a witness.

    The witness is reconstructed deterministically, preferring the largest
    triangular part at every step.
    """
    _check_bk_domain(k)
    bk = _bk(k)[0]
    parts = []
    j = k
    while j > 0:
        r = _bk(j)[1]
        parts.append(r)
        j -= triangular_number(r)
    return bk, TriangularDecomposition(k, tuple(parts), bk)


def upper_bound_refined_s2(n: int, t: int) -> int:
    """Refined s = 2 upper bound n - B_{t/2}; dominates the closed form."""
    _check_pair_count(t)
    _check_bk_domain(t // 2)
    return n - _bk(t // 2)[0]


def construct_lower_tight(n: int, t: int) -> FunctionTable:
    """Function on n points with N_2 = t attaining V = n - t/2 exactly.

    The first t points are paired off in order (points 2i, 2i+1 share label
    i); the rest get fresh labels.
    """
    _check_pair_count(t)
    if t > n:
        raise InfeasibleError(f"pairing construction needs 0 <= t <= n, got t={t}, n={n}")
    values = sorted(list(range(t // 2)) * 2)
    values += range(t // 2, t // 2 + n - t)
    return FunctionTable(n, tuple(values))


def construct_upper_tight(n: int, k: int) -> FunctionTable:
    """Function on n points with N_2 = 2k attaining V = n - B_k exactly.

    Builds one block of equal values per part of the minimal-weight witness
    and is injective elsewhere.
    """
    _, witness = triangular_B(k)
    used = sum(witness.parts)
    if used > n:
        raise InfeasibleError(
            f"witness blocks need {used} points but the domain has only {n}"
        )
    values = []
    for label, r in enumerate(witness.parts):
        values += [label] * r
    blocks = len(witness.parts)
    values += range(blocks, blocks + n - used)
    return FunctionTable(n, tuple(values))


def wan_degree_bound(q: int, d: int) -> int:
    """Degree-based upper bound q - floor((q-1)/d) on V(f).

    Valid only for non-permutation polynomials of degree d over a field of
    q elements; callers are responsible for that hypothesis.
    """
    if d <= 0:
        raise ValueError("degree must be positive")
    return q - (q - 1) // d


def bound_report(n: int, s: int, t: int) -> BoundReport:
    """Assembled report for arbitrary s; for s = 2 includes the refinement."""
    if s == 2:
        _check_pair_count(t)
        k = t // 2
        _check_bk_domain(k)
        return s2_report(n, t, bk=_bk(k)[0])
    low_real, low_int = lower_bound(n, s, t)
    upper = upper_bound_exact(n, s, t)
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
