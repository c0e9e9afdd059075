"""Permutation and cycle-type arithmetic.

The index of a permutation g in S_n is

    ind(g) = n - #orbits(g) = sum over cycles of (length - 1),

which for a tame inertia generator equals the exponent of p in the relative
discriminant.  For a pair (g1, g2) acting on {1..m} x {1..n}, each cycle pair
(c, d) splits into gcd(|c|, |d|) orbits of length lcm(|c|, |d|), so

    ind(g1, g2) = m*n - sum_{c,d} gcd(|c|, |d|),

and when the ramification indices e_i = lcm of cycle lengths are coprime this
collapses to ind1*n + ind2*m - ind1*ind2.  Everything here is exact integer
arithmetic; brute-force orbit counting on the embedded permutation serves as
the oracle for both product formulas.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd, lcm

from .errors import CoprimalityViolation

__all__ = [
    "Permutation",
    "CycleType",
    "cycle_type",
    "index_of",
    "embed_product",
    "orbit_count",
    "product_index_coprime",
    "product_index_general",
]


# one or more cycles of ASCII-digit points, separated by commas or whitespace
_CYCLES = re.compile(r"(?:\(\s*[0-9]+(?:\s*,\s*[0-9]+|\s+[0-9]+)*\s*\)\s*)+")


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n}, stored as the tuple of images (1-based)."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if n == 0:
            raise ValueError("degree must be >= 1")
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection on 1..{n}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> "Permutation":
        """The permutation of images that are a bijection by construction, with no check."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "images", images)
        return perm

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (p * q)(i) = p(q(i)), a bijection as p and q are."""
        if other.degree != self.degree:
            raise ValueError("degree mismatch")
        return Permutation._unchecked(tuple(self.images[j - 1] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation._unchecked(tuple(inv))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_cycles(cls, cycles, degree: int | None = None) -> "Permutation":
        """Build from cycles given as sequences of points, e.g. [(1,2), (3,4,5)]."""
        points = [p for c in cycles for p in c]
        if len(set(points)) != len(points):
            raise ValueError("cycles are not disjoint")
        if points and min(points) < 1:
            raise ValueError("cycle points must be >= 1")
        n = degree if degree is not None else (max(points) if points else 1)
        if points and max(points) > n:
            raise ValueError("cycle point exceeds degree")
        images = list(range(1, n + 1))
        for c in cycles:
            for i, p in enumerate(c):
                images[p - 1] = c[(i + 1) % len(c)]
        return cls(tuple(images))

    @classmethod
    def parse(cls, text: str, degree: int | None = None) -> "Permutation":
        """Parse cycle notation: "(12)(345)" or "(1,2)(3 4 5)", or "e", "()" or ""
        for the identity; the whole text must be cycles, else ValueError.  A
        cycle without separators has one-digit points."""
        text = text.strip()
        if text in ("e", "()", ""):
            return cls.identity(degree if degree is not None else 1)
        if not _CYCLES.fullmatch(text):
            raise ValueError(f"cannot parse permutation {text!r}")
        cycles = []
        for grp in re.findall(r"\(([^()]*)\)", text):
            points = re.split(r"[,\s]+", grp.strip())
            if len(points) == 1:
                points = points[0]  # "(123)": one point per digit
            cycles.append(tuple(map(int, points)))
        return cls.from_cycles(cycles, degree=degree)

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles including fixed points, each starting at its least point."""
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            j = self(start)
            while j != start:
                cyc.append(j)
                seen[j - 1] = True
                j = self(j)
            out.append(tuple(cyc))
        return out

    def __repr__(self):
        nontrivial = [c for c in self.cycles() if len(c) > 1]
        if not nontrivial:
            return f"Permutation(e, deg={self.degree})"
        body = "".join("(" + ",".join(map(str, c)) + ")" for c in nontrivial)
        return f"Permutation({body}, deg={self.degree})"


@dataclass(frozen=True)
class CycleType:
    """Canonical cycle type: parts sorted descending, summing to the degree."""

    degree: int
    parts: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.parts, reverse=True) != list(self.parts):
            raise ValueError("parts must be sorted descending")
        if any(p < 1 for p in self.parts):
            raise ValueError("parts must be positive")
        if sum(self.parts) != self.degree:
            raise ValueError(f"parts {self.parts} do not sum to degree {self.degree}")

    @classmethod
    def from_parts(cls, parts) -> "CycleType":
        parts = tuple(sorted(parts, reverse=True))
        return cls(sum(parts), parts)

    @property
    def ramification_index(self) -> int:
        """lcm of the cycle lengths: the order of any permutation of this type."""
        return lcm(*self.parts) if self.parts else 1

    def is_identity(self) -> bool:
        return all(p == 1 for p in self.parts)

    def to_json(self) -> list[int]:
        return list(self.parts)


def cycle_type(p: Permutation) -> CycleType:
    return CycleType.from_parts(len(c) for c in p.cycles())


def index_of(ct: CycleType) -> int:
    """ind = degree - #parts."""
    return ct.degree - len(ct.parts)


def orbit_count(p: Permutation) -> int:
    return len(p.cycles())


def pair_index(i: int, j: int, n: int) -> int:
    """The point of {1..m*n} carrying the pair (i, j), 1 <= j <= n."""
    return (i - 1) * n + j


def embed_product(p1: Permutation, p2: Permutation) -> Permutation:
    """Embed (p1, p2) in S_{m*n} acting on pairs: (i,j) -> (p1(i), p2(j)).

    Pairs are indexed lexicographically, (i,j) -> (i-1)*n + j.
    """
    m, n = p1.degree, p2.degree
    images = [0] * (m * n)
    for i in range(1, m + 1):
        gi = p1(i)
        for j in range(1, n + 1):
            images[pair_index(i, j, n) - 1] = pair_index(gi, p2(j), n)
    return Permutation(tuple(images))


def product_index_general(ct1: CycleType, ct2: CycleType) -> int:
    """ind of the embedded pair: m*n - sum over cycle pairs of gcd(|c|, |d|)."""
    m, n = ct1.degree, ct2.degree
    total = sum(gcd(a, b) for a in ct1.parts for b in ct2.parts)
    return m * n - total


def product_index_coprime(ct1: CycleType, ct2: CycleType) -> int:
    """ind1*n + ind2*m - ind1*ind2, valid when the ramification indices are coprime."""
    e1, e2 = ct1.ramification_index, ct2.ramification_index
    if gcd(e1, e2) != 1:
        raise CoprimalityViolation(
            f"ramification indices {e1} and {e2} share a factor"
        )
    m, n = ct1.degree, ct2.degree
    i1, i2 = index_of(ct1), index_of(ct2)
    return i1 * n + i2 * m - i1 * i2


def representative(ct: CycleType) -> Permutation:
    """A permutation with the given cycle type (consecutive cycles)."""
    cycles = []
    next_pt = 1
    for p in ct.parts:
        cycles.append(tuple(range(next_pt, next_pt + p)))
        next_pt += p
    return Permutation.from_cycles(cycles, degree=ct.degree)
