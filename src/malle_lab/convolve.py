"""Exact product distributions P_{a,b}(X).

P_{a,b}(X) = #{(s1, s2) : s_i in S_i, s1^a * s2^b <= X} for multisets of
positive integers S_i with counting functions F_i(X) ~ A_i X^{n_i} ln^{r_i} X.

Exact counts use a hyperbola split on integers, made once: alpha = a*L,
beta = b*L and X^L = num/den, with L the least common denominator of a, b.
As s^beta is an integer, s^beta <= num/(den s1^alpha) exactly when
s <= iroot(num // (den s1^alpha), beta); so

    P = sum_{s1 <= t1} m1(s1) F2(iroot(num // (den s1^alpha), beta))
      + sum_{s2 <= t2} m2(s2) F1(iroot(num // (den s2^beta), alpha))
      - F1(t1) F2(t2),

with t1 = iroot(num // den, 2 alpha) and t2 = iroot(num // den, 2 beta):
each loop runs to roughly the square root of the window.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat

from .arith import iroot
from .errors import InsufficientData, InsufficientRange

__all__ = [
    "CountingSequence",
    "product_count_exact",
    "empirical_fit",
    "FitResult",
]


class CountingSequence:
    """A sorted multiset of positive integers: explicit, or the positive
    integers or squares (`integers()`, `squares()`).

    Those two have the closed-form counts v and isqrt(v), never run out of
    range, and have `entries` and `complete_to` None.  An explicit sequence
    carries a completeness bound and raises InsufficientRange past it.  It
    takes distinct positive values with positive multiplicities, all of type
    int (TypeError otherwise, as an exact count must not round its input).
    """

    def __init__(self, entries, complete_to: int | None = None):
        # (value, multiplicity) pairs of ints, sorted at most once and never
        # rebuilt; input in strictly ascending order (np.unique's) is kept
        entries = list(entries)
        values = [v for v, _ in entries]  # bisected by count_upto
        counts = [m for _, m in entries]
        if not {*map(type, values), *map(type, counts)} <= {int}:
            raise TypeError("values and multiplicities must be ints")
        ascending = all(map(operator.lt, values, islice(values, 1, None)))
        if not ascending:
            entries.sort()
            values = [v for v, _ in entries]
            counts = [m for _, m in entries]
        if entries and (values[0] < 1 or min(counts) < 1):
            raise ValueError("values and multiplicities must be positive")
        if not ascending and not all(map(operator.lt, values, values[1:])):
            raise ValueError("duplicate values; merge multiplicities first")
        self.entries = entries
        self._values = values
        self.complete_to = complete_to if complete_to is not None else (
            values[-1] if entries else 0
        )
        self._prefix = list(accumulate(counts))

    @classmethod
    def _closed_form(cls, squares: bool) -> "CountingSequence":
        """The positive integers, or their squares, each once."""
        seq = cls.__new__(cls)
        seq.entries = seq.complete_to = None
        seq._squares = squares
        return seq

    @classmethod
    def integers(cls) -> "CountingSequence":
        return cls._closed_form(False)

    @classmethod
    def squares(cls) -> "CountingSequence":
        return cls._closed_form(True)

    def count_upto(self, v: int) -> int:
        """F(v) = number of elements <= v, with multiplicity."""
        if v < 1:
            return 0
        if self.entries is None:
            return math.isqrt(v) if self._squares else v
        if v > self.complete_to:
            raise InsufficientRange(
                f"sequence complete to {self.complete_to}, asked for {v}"
            )
        idx = bisect.bisect_right(self._values, v)
        return self._prefix[idx - 1] if idx else 0

    def iter_upto(self, v: int):
        """Yield (value, multiplicity) for values <= v."""
        if self.entries is None:
            s = range(1, self.count_upto(v) + 1)
            yield from zip(map(operator.mul, s, s) if self._squares else s, repeat(1))
            return
        if v > self.complete_to:
            raise InsufficientRange(
                f"sequence complete to {self.complete_to}, asked for {v}"
            )
        for val, m in self.entries:
            if val > v:
                break
            yield val, m


def _exact_fraction(x) -> Fraction:
    """An int or Fraction as a Fraction; anything else, a float included, is
    refused with TypeError, since an exact count must not round its input."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"an exact count needs an int or Fraction, got {x!r}")


def product_count_exact(s1: CountingSequence, s2: CountingSequence, a, b, x) -> int:
    """Exact #{(s1, s2) : s1^a s2^b <= x} via the hyperbola split; a, b and x
    must be ints or Fractions (TypeError for a float)."""
    a, b, x = _exact_fraction(a), _exact_fraction(b), _exact_fraction(x)
    if a <= 0 or b <= 0:
        raise ValueError("weights must be positive")
    if x < 1:
        return 0
    if s1.entries == [] or s2.entries == []:
        return 0
    lcm_den = math.lcm(a.denominator, b.denominator)
    alpha, beta = int(a * lcm_den), int(b * lcm_den)
    num, den = x.numerator**lcm_den, x.denominator**lcm_den  # X' = num / den
    t1 = iroot(num // den, 2 * alpha)
    t2 = iroot(num // den, 2 * beta)
    total = 0
    for v, m in s1.iter_upto(t1):
        total += m * s2.count_upto(iroot(num // (den * v**alpha), beta))
    for v, m in s2.iter_upto(t2):
        total += m * s1.count_upto(iroot(num // (den * v**beta), alpha))
    total -= s1.count_upto(t1) * s2.count_upto(t2)
    return total


def product_count_brute(s1: CountingSequence, s2: CountingSequence, a, b, x) -> int:
    """O(|S1|*|S2|) reference double loop (test oracle)."""
    a, b, x = _exact_fraction(a), _exact_fraction(b), _exact_fraction(x)
    if x < 1:
        return 0  # s1^a s2^b >= 1
    lcm_den = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
    alpha, beta, xp = int(a * lcm_den), int(b * lcm_den), x**lcm_den
    total = 0
    for v1, m1 in s1.iter_upto(iroot(math.floor(xp), alpha)):
        lhs = v1**alpha
        for v2, m2 in s2.iter_upto(iroot(math.floor(xp / lhs), beta)):
            if lhs * v2**beta <= xp:
                total += m1 * m2
    return total


@dataclass(frozen=True)
class FitResult:
    coefficient: float
    residual: float  # max relative deviation over the fit window
    points_used: int


def empirical_fit(counts, exponent, logpower: int) -> FitResult:
    """Fit N(X) / (X^e ln^r X), e an int or Fraction, to a constant over the top decade
    of X; InsufficientData for fewer than 8 points, a span under 3 decades or a point
    past the float range."""
    try:
        pts = sorted((float(x), float(n)) for x, n in counts)
    except OverflowError:
        raise InsufficientData("a point lies outside the float range") from None
    if len(pts) < 8:
        raise InsufficientData(f"need >= 8 points, got {len(pts)}")
    if pts[0][0] <= 0 or pts[-1][0] / pts[0][0] < 10**3:
        raise InsufficientData("points must span at least 3 decades")
    e = float(_exact_fraction(exponent))
    xmax = pts[-1][0]
    window = [(x, n) for x, n in pts if x >= xmax / 10]
    ratios = [n / (x**e * math.log(x) ** logpower) for x, n in window]
    coeff = sum(ratios) / len(ratios)
    resid = max(abs(r - coeff) for r in ratios) / coeff if coeff else float("inf")
    return FitResult(coefficient=coeff, residual=resid, points_used=len(window))
