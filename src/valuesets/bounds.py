"""Bounds on the image count V(f) in terms of the collision count N_s(f).

The two-sided bound for general s is implemented in its exact integer form:
the upper bound derives from the largest multiplicity m* compatible with the
collision count, never from an asymptotic expansion.  For s = 2 the upper
bound has a closed form tied to triangular numbers, and a strictly better
refinement is available through the minimal-weight triangular decomposition
B_k, computed by dynamic programming.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
        if list(self.parts) != sorted(self.parts, reverse=True):
            raise ValueError("parts must be non-increasing")
        if any(r < 2 for r in self.parts):
            raise ValueError("parts must be >= 2")
        if sum(triangular_number(r) for r in self.parts) != self.k:
            raise ValueError("parts do not sum to k")
        if self.weight != sum(r - 1 for r in self.parts):
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
    value = Fraction(n - Fraction(t, math.factorial(s)), s - 1)
    return value, math.ceil(value)


def max_multiplicity_for(s: int, t: int) -> int:
    """Largest m with P(m, s) <= t; the maximal multiplicity any f with
    N_s(f) = t can have.  Requires t >= s!."""
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


def s2_report(n: int, t: int) -> BoundReport:
    """The closed-form s = 2 report for N_2 = t, without checking t: the
    applications (planar functions, product sets) derive theirs from it.

    The upper bound n - 2t/(1+sqrt(4t+1)) equals n - (sqrt(4t+1)-1)/2, so
    its floor n - gap comes exactly from i = isqrt(4t+1); no floating point
    is involved.  When 4t+1 = i^2 (i odd) the bound is attained exactly;
    otherwise (sqrt(4t+1)-1)/2 lies strictly between (i-1)/2 and i/2, so its
    ceiling, the gap, is (i+1)//2.
    """
    lower_real = Fraction(2 * n - t, 2)
    d = 4 * t + 1
    i = math.isqrt(d)
    if i * i == d:
        upper_real: Fraction | float = Fraction(2 * n - i + 1, 2)
        gap = (i - 1) // 2
    else:
        upper_real = n - (math.sqrt(d) - 1.0) / 2.0  # diagnostic only
        gap = (i + 1) // 2
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


def bounds_s2(n: int, t: int) -> BoundReport:
    """Two-sided bound for s = 2; t must be even (pair collisions pair up)."""
    if t < 0:
        raise ValueError("collision count must be non-negative")
    if t % 2:
        raise ParityError(f"N_2 is necessarily even, got {t}")
    return s2_report(n, t)


# Minimal-weight triangular decompositions, memoized across calls.  The table
# is append-only; entry j holds (B_j, largest part attaining it).
_bk_weight: list[int] = [0]
_bk_part: list[int] = [0]


def _extend_bk_table(k: int):
    while len(_bk_weight) <= k:
        j = len(_bk_weight)
        best = None
        best_r = 0
        r = 2
        while triangular_number(r) <= j:
            w = (r - 1) + _bk_weight[j - triangular_number(r)]
            if best is None or w < best or (w == best and r > best_r):
                best = w
                best_r = r
            r += 1
        _bk_weight.append(best)
        _bk_part.append(best_r)


def triangular_B(k: int) -> tuple[int, TriangularDecomposition]:
    """Minimal weight B_k over all triangular decompositions of k, with a witness.

    The witness is reconstructed deterministically, preferring the largest
    triangular part at every step.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    _extend_bk_table(k)
    parts = []
    j = k
    while j > 0:
        r = _bk_part[j]
        parts.append(r)
        j -= triangular_number(r)
    witness = TriangularDecomposition(k, tuple(parts), _bk_weight[k])
    return _bk_weight[k], witness


def upper_bound_refined_s2(n: int, t: int) -> int:
    """Refined s = 2 upper bound n - B_{t/2}; dominates the closed form."""
    if t % 2:
        raise ParityError(f"N_2 is necessarily even, got {t}")
    bk, _ = triangular_B(t // 2)
    return n - bk


def construct_lower_tight(n: int, t: int) -> FunctionTable:
    """Function on n points with N_2 = t attaining V = n - t/2 exactly.

    The first t points are paired off in order (points 2i, 2i+1 share label
    i); the rest get fresh labels.
    """
    if t % 2:
        raise ParityError(f"N_2 is necessarily even, got {t}")
    if t < 0 or t > n:
        raise InfeasibleError(f"pairing construction needs 0 <= t <= n, got t={t}, n={n}")
    values = []
    for i in range(t // 2):
        values += [i, i]
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
        report = bounds_s2(n, t)
        refined = upper_bound_refined_s2(n, t)
        exact = upper_bound_exact(n, 2, t)
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
