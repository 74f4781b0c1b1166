"""Finite-domain functions and their image statistics.

A function f: A -> B with |A| = n is stored as the sequence of its values.
Codomain labels are arbitrary non-negative integers compared only for
equality; gaps in the label range are allowed.  All counts are exact Python
integers, so they never overflow regardless of magnitude.

Every statistic of a table (V, N_s, M_r) is read from its multiplicity
spectrum, which is tallied from the values once, on first use, and kept on
the table.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class FunctionTable:
    """A function on the domain {0, ..., domain_size-1} given by its values."""

    domain_size: int
    values: tuple[int, ...]

    def __post_init__(self):
        if type(self.domain_size) is not int or self.domain_size <= 0:
            raise ValueError(f"domain_size must be a positive integer, got {self.domain_size!r}")
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != self.domain_size:
            raise ValueError(
                f"expected {self.domain_size} values, got {len(self.values)}"
            )
        for v in self.values:
            if type(v) is not int or v < 0:  # bool is an int subclass
                raise ValueError(f"codomain labels must be non-negative integers, got {v!r}")

    @classmethod
    def from_values(cls, values) -> "FunctionTable":
        values = tuple(values)
        return cls(len(values), values)

    @classmethod
    def identity(cls, n: int) -> "FunctionTable":
        return cls(n, tuple(range(n)))

    @classmethod
    def constant(cls, n: int, label: int = 0) -> "FunctionTable":
        return cls(n, (label,) * n)

    @cached_property
    def _spectrum(self) -> "MultiplicitySpectrum":
        # Not a dataclass field, so equality, hashing, repr and replace()
        # see only domain_size and values.  Always counted from the values,
        # never filled in by a constructor, so statistics stay independent
        # checks of the tables built to meet them.
        by_multiplicity = Counter(Counter(self.values).values())
        m = max(by_multiplicity)
        counts = [0] * (m + 1)
        for r, labels in by_multiplicity.items():
            counts[r] = labels
        return MultiplicitySpectrum(self.domain_size, m, tuple(counts))


@dataclass(frozen=True)
class MultiplicitySpectrum:
    """Counts of codomain labels by multiplicity.

    counts[r] is the number of labels hit exactly r times, for 1 <= r <= m;
    counts[0] is a padding zero so indexing matches the multiplicity.
    """

    n: int
    m: int
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.m + 1 or self.counts[0] != 0:
            raise ValueError("counts must be indexed 0..m with counts[0] == 0")
        if self.counts[self.m] <= 0:
            raise ValueError("counts[m] must be positive (m is the maximal multiplicity)")
        if sum(r * c for r, c in enumerate(self.counts)) != self.n:
            raise ValueError("sum of r*counts[r] must equal the domain size")

    def multiplicity(self, r: int) -> int:
        """M_r: the number of labels hit exactly r times (0 for r > m)."""
        if r < 1:
            raise ValueError("multiplicity index must be >= 1")
        return self.counts[r] if r <= self.m else 0

    @property
    def image_count(self) -> int:
        return sum(self.counts)


def spectrum(f: FunctionTable) -> MultiplicitySpectrum:
    """How many labels are hit exactly r times, for each r (shared, immutable)."""
    return f._spectrum


def image_count(f: FunctionTable) -> int:
    """Number of distinct values taken by f: the sum of M_r."""
    return f._spectrum.image_count


def falling_factorial(r: int, s: int) -> int:
    """Number of s-permutations of r objects: r(r-1)...(r-s+1); 0 when r < s."""
    if r < 0 or s < 0:
        raise ValueError("falling_factorial requires non-negative arguments")
    return math.perm(r, s)


def collision_count(f: FunctionTable, s: int) -> int:
    """Number of ordered s-tuples of pairwise-distinct points with equal images.

    Computed from the multiplicity spectrum: each label of multiplicity r
    contributes P(r, s) tuples.  s must be an int >= 2.
    """
    if type(s) is not int or s < 2:  # bool is an int subclass
        raise ValueError(f"collision order s must be an integer >= 2, got {s!r}")
    counts = f._spectrum.counts
    return sum(math.perm(r, s) * counts[r] for r in range(s, len(counts)))
