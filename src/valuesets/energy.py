"""Product sets and multiplicative energy of subset pairs in finite groups.

Groups are given as cyclic groups, direct products of cyclics, or explicit
Cayley tables (validated on load).  Elements are indices 0..n-1; the energy
E(A, B) counts quadruples (a, a', b, b') with ab = a'b', and E - |A||B| is
exactly the pair-collision count of the multiplication map on A x B.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product, starmap
from operator import mul

from .bounds import BoundReport, s2_report
from .functable import FunctionTable


class GroupAxiomError(ValueError):
    """A Cayley table failed the group-axiom checks."""


class GroupSpec:
    """A finite group with elements 0..order-1 and a multiplication map."""

    def __init__(self, kind: str, order: int, op, identity: int):
        self.kind = kind
        self.order = order
        self.op = op
        self.identity = identity

    @classmethod
    def cyclic(cls, n: int) -> "GroupSpec":
        if type(n) is not int or n < 1:
            raise GroupAxiomError(f"cyclic group order must be a positive int, got {n!r}")
        return cls("cyclic", n, lambda i, j: (i + j) % n, 0)

    @classmethod
    def product_of_cyclics(cls, orders) -> "GroupSpec":
        orders = tuple(orders)
        if not orders or any(type(n) is not int or n < 1 for n in orders):
            raise GroupAxiomError(f"component orders must be positive ints, got {orders!r}")
        total = math.prod(orders)

        def op(i: int, j: int) -> int:
            out = 0
            base = 1
            for n in orders:
                out += ((i % n + j % n) % n) * base
                i //= n
                j //= n
                base *= n
            return out

        return cls("product", total, op, 0)

    @classmethod
    def from_cayley(cls, table) -> "GroupSpec":
        """Build from an n x n multiplication table, checking the group axioms."""
        table = [list(row) for row in table]
        n = len(table)
        if n == 0 or any(len(row) != n for row in table):
            raise GroupAxiomError("Cayley table must be square and non-empty")
        for row in table:
            for v in row:
                if type(v) is not int or not 0 <= v < n:
                    raise GroupAxiomError(f"entry {v!r} is not an element index")
        full = set(range(n))
        for i in range(n):
            if set(table[i]) != full:
                raise GroupAxiomError(f"row {i} is not a permutation")
            if {table[j][i] for j in range(n)} != full:
                raise GroupAxiomError(f"column {i} is not a permutation")
        identity = None
        for e in range(n):
            if all(table[e][j] == j for j in range(n)) and all(
                table[i][e] == i for i in range(n)
            ):
                identity = e
                break
        if identity is None:
            raise GroupAxiomError("no two-sided identity element")
        for a in range(n):
            if not any(
                table[a][b] == identity and table[b][a] == identity for b in range(n)
            ):
                raise GroupAxiomError(f"element {a} has no two-sided inverse")
        for a in range(n):
            for b in range(n):
                tab = table[a][b]
                for c in range(n):
                    if table[tab][c] != table[a][table[b][c]]:
                        raise GroupAxiomError(
                            f"associativity fails at ({a}, {b}, {c})"
                        )
        return cls("cayley", n, lambda i, j: table[i][j], identity)


@dataclass(frozen=True)
class SubsetPair:
    group: GroupSpec
    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        for name, attr in (("A", "a"), ("B", "b")):
            subset = tuple(getattr(self, attr))
            if not subset:
                raise ValueError(f"subset {name} must be non-empty")
            if any(type(x) is not int or not 0 <= x < self.group.order for x in subset):
                raise ValueError(
                    f"subset {name} has elements that are not int indices in [0, {self.group.order})"
                )
            if len(set(subset)) != len(subset):
                raise ValueError(f"subset {name} has duplicate elements")
            object.__setattr__(self, attr, tuple(sorted(subset)))

    @cached_property
    def _tally(self) -> tuple[tuple[int, ...], int]:
        # The sorted distinct products ab and the energy E = sum of their
        # squared multiplicities, from one pass of op over A x B.  Not a
        # dataclass field, so equality, hashing and repr see only the group
        # and the subsets; the multiplicities themselves are not kept.
        counts = Counter(starmap(self.group.op, product(self.a, self.b)))
        m = counts.values()
        return tuple(sorted(counts)), sum(map(mul, m, m))


def product_set(pair: SubsetPair) -> tuple[int, ...]:
    """Sorted distinct products {ab : a in A, b in B}."""
    return pair._tally[0]


def energy(pair: SubsetPair) -> int:
    """E(A, B): quadruples with ab = a'b', via squared product multiplicities."""
    return pair._tally[1]


def n2_from_energy(pair: SubsetPair) -> int:
    """Pair-collision count of the multiplication map: E(A, B) - |A||B|."""
    return energy(pair) - len(pair.a) * len(pair.b)


def multiplication_table(pair: SubsetPair) -> FunctionTable:
    """The map (a, b) -> ab as a FunctionTable on |A||B| points (a-major)."""
    op = pair.group.op
    values = tuple(op(a, b) for a in pair.a for b in pair.b)
    return FunctionTable(len(values), values)


def energy_bounds(pair: SubsetPair) -> BoundReport:
    """Two-sided bound on |A.B| from the energy: lower (3n - E)/2 clamped to
    1, upper from the pair-collision bound with t = E - n."""
    n = len(pair.a) * len(pair.b)
    products, e = pair._tally
    lower_real = Fraction(3 * n - e, 2)
    lower = "energy-deficit bound (3n - E)/2"
    if lower_real < 1:
        lower_real = Fraction(1)
        lower += " (clamped to 1)"
    return s2_report(
        n,
        e - n,
        lower_real,
        {"lower": lower, "upper": "quadratic-root bound with t = E - n"},
        {"energy": e, "product_set_size": len(products)},
    )
