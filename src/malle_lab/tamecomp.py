"""Tame local discriminant composition for S_n x A.

An element c of an abelian group A of order m acts in the regular
representation with cycle type [ord(c), ..., ord(c)] (m/ord(c) cycles), so
ind(c) = m - m/ord(c) and the minimal non-identity index is m*(p-1)/p for p
the smallest prime divisor of m.  Composing a tame S_n inertia class k with c
gives the compositum exponent product_index_general(k, c), and the verifiers
below check the ratio inequalities

    ind(k, c)/m > threshold(k)          (delta lemmas, n = 3, 4, 5)
    ind(k, c)/m - ind(k) + r_k >= 1     (uniformity lemma)

over every c != e, in exact rational arithmetic.  The pair index sums
gcd(a, b) over pairs of cycles, and the m/d cycles of c, d = ord(c), are
alike, so ind(k, c) = (m/d) ind(k, (d)) and the ratio is ind(k, (d))/d: it
depends on c only through d.  The orders that occur are exactly the divisors
of exp(A), the lcm of the cyclic factors C_f: every order divides exp(A), and
for d | exp(A) the element whose C_f component has order gcd(d, f) has order
lcm_f gcd(d, f) = gcd(d, exp(A)) = d.  So the verifiers walk the divisors
d > 1 of exp(A) and never build A or its regular representation.

c = identity gives ratio exactly ind(k), which would falsify the inequalities
as written; it corresponds to pairs ramified only on the S_n side and is
reported as a separate sub-case, never folded into the main verdict.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from .arith import divisors, factor, is_prime
from .errors import HypothesisViolated, IncompleteRkTable, TrivialGroup
from .permgroup import CycleType, index_of, product_index_general
from .util import json_typed, json_typed_items

__all__ = [
    "AbelianGroupSpec",
    "RkTable",
    "ExponentTableRow",
    "ind_abelian",
    "min_index_abelian",
    "disc_table",
    "verify_delta",
    "verify_unin",
    "DEFAULT_RK",
    "COPRIMALITY",
]

# coprimality hypothesis per n: |A| must be coprime to COPRIMALITY[n]
COPRIMALITY = {3: 2, 4: 6, 5: 30}


@dataclass(frozen=True)
class AbelianGroupSpec:
    """An abelian group given by its cyclic factor orders (all >= 2).

    An empty factor tuple is the trivial group.
    """

    cyclic_factors: tuple[int, ...]

    def __post_init__(self):
        if any(f < 2 for f in self.cyclic_factors):
            raise ValueError("cyclic factors must be >= 2")

    @classmethod
    def parse(cls, text: str) -> "AbelianGroupSpec":
        """Parse "7", "3x3", "C5xC5", "C9", "3 x 3": factors C?<digits> joined
        by x, case-insensitive; anything else raises ValueError."""
        if not re.fullmatch(r"\s*c?[0-9]+(?:\s*x\s*c?[0-9]+)*\s*", text, re.IGNORECASE):
            raise ValueError(f"cannot parse abelian group {text!r}")
        return cls(tuple(map(int, re.findall(r"[0-9]+", text))))

    @property
    def order(self) -> int:
        return prod(self.cyclic_factors)

    def element_order(self, c: tuple[int, ...]) -> int:
        o = 1
        for ci, fi in zip(c, self.cyclic_factors, strict=True):
            oi = fi // gcd(fi, ci)
            o = o * oi // gcd(o, oi)
        return o


def ind_abelian(a: AbelianGroupSpec, c: tuple[int, ...]) -> int:
    """ind of c in the regular representation: m - m/ord(c)."""
    m = a.order
    return m - m // a.element_order(c)


def min_index_abelian(a: AbelianGroupSpec) -> int:
    """m*(p-1)/p for p the smallest prime divisor of m."""
    m = a.order
    if m < 2:
        raise TrivialGroup("need |A| >= 2")
    p = min(factor(m))
    return m - m // p


# ---------------------------------------------------------------------------
# Exponent tables for S_3 x C_{l^k}

_S3_CLASSES = {"(12)": CycleType.from_parts([2, 1]), "(123)": CycleType.from_parts([3])}


@dataclass(frozen=True)
class ExponentTableRow:
    sn_class: CycleType
    sn_label: str
    r: int
    a_element_index: int
    compositum_exponent: int


def disc_table(l: int, k: int) -> list[ExponentTableRow]:
    """Compositum disc exponents for S_3 classes against C_{l^k} elements.

    Rows for each S_3 class in {(12), (123)} and each r in 0..k-1, where the
    A-side element has order l^(k-r) (a product of l^r cycles of length
    l^(k-r)), hence index l^k - l^r; its compositum exponent is l^r times
    that of the one cycle of length l^(k-r).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if l == 2 or not is_prime(l):
        raise ValueError("l must be an odd prime")
    rows = []
    for label, ct in _S3_CLASSES.items():
        for r in range(k):
            rows.append(
                ExponentTableRow(
                    sn_class=ct,
                    sn_label=label,
                    r=r,
                    a_element_index=l**k - l**r,
                    compositum_exponent=l**r * product_index_general(
                        ct, CycleType.from_parts([l ** (k - r)])),
                )
            )
    return rows


# ---------------------------------------------------------------------------
# r_k tables

def _cycle_types_of_sn(n: int) -> list[CycleType]:
    """All cycle types of S_n (partitions of n), identity included."""
    def parts(n, maxpart):
        if n == 0:
            yield ()
            return
        for p in range(min(n, maxpart), 0, -1):
            for rest in parts(n - p, p):
                yield (p,) + rest
    return [CycleType(n, t) for t in parts(n, n)]


def nonidentity_classes(n: int) -> list[CycleType]:
    return [ct for ct in _cycle_types_of_sn(n) if not ct.is_identity()]


@dataclass(frozen=True)
class RkTable:
    """Uniformity exponents r_k per non-identity inertia class of S_n.

    The shipped defaults carry proved exponents for the totally ramified
    classes of S_3/S_5 and the overramified classes of S_4; the remaining
    classes are configuration values, not proved ones (see `notes`).
    """

    n: int
    rk: dict[tuple[int, ...], Fraction]
    notes: str = ""

    def value(self, ct: CycleType) -> Fraction:
        try:
            return self.rk[ct.parts]
        except KeyError:
            raise IncompleteRkTable(f"no r_k entry for class {ct.parts} in S_{self.n}")

    def validate_cover(self):
        missing = [ct.parts for ct in nonidentity_classes(self.n) if ct.parts not in self.rk]
        if missing:
            raise IncompleteRkTable(f"r_k table for S_{self.n} missing classes {missing}")

    @classmethod
    def zeros(cls, n: int) -> "RkTable":
        return cls(n, {ct.parts: Fraction(0) for ct in nonidentity_classes(n)}, notes="all-zero")

    @classmethod
    def from_json(cls, obj) -> "RkTable":
        """{"n": 3, "rk": [{"cycle_type": [2,1], "r": "1"}, ...]}: n and every
        cycle-type part JSON integers, else TypeError; a cycle type given
        twice, ValueError."""
        n = json_typed(obj["n"], int, "n")
        rk = {}
        for entry in obj["rk"]:
            ct = CycleType.from_parts(json_typed_items(entry["cycle_type"], int, "cycle type part"))
            if ct.degree != n:
                raise ValueError(f"cycle type {ct.parts} has degree != {n}")
            if ct.parts in rk:
                raise ValueError(f"r_k table lists cycle type {ct.parts} twice")
            rk[ct.parts] = Fraction(str(entry["r"]))
        return cls(n, rk, notes=str(obj.get("notes", "")))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "rk": [
                {"cycle_type": list(parts), "r": str(v)}
                for parts, v in sorted(self.rk.items())
            ],
            "notes": self.notes,
        }


DEFAULT_RK = {
    3: RkTable(
        3,
        {(2, 1): Fraction(1), (3,): Fraction(2)},
        notes="(123): totally ramified cubic uniformity exponent 2; "
        "(12): partially ramified, configuration value 1",
    ),
    4: RkTable(
        4,
        {
            (2, 1, 1): Fraction(1),
            (3, 1): Fraction(1),
            (2, 2): Fraction(2),
            (4,): Fraction(2),
        },
        notes="(12)(34), (1234): overramified quartic uniformity exponent 2; "
        "(12), (123): configuration value 1",
    ),
    5: RkTable(
        5,
        {
            (5,): Fraction(4, 15),
            (2, 1, 1, 1): Fraction(1),
            (2, 2, 1): Fraction(1),
            (3, 1, 1): Fraction(1),
            (3, 2): Fraction(1),
            (4, 1): Fraction(1),
        },
        notes="(12345): totally ramified quintic uniformity exponent 4/15; "
        "other classes: configuration value 1, not a proved exponent",
    ),
}


# ---------------------------------------------------------------------------
# Lemma verifiers

def _check_hypothesis(n: int, a: AbelianGroupSpec):
    if n not in COPRIMALITY:
        raise ValueError("n must be 3, 4 or 5")
    m = a.order
    if gcd(m, COPRIMALITY[n]) != 1 or m < 2:
        raise HypothesisViolated(n, m)


def _orders(a: AbelianGroupSpec) -> list[int]:
    """The orders d > 1 of the elements of A: the divisors d > 1 of exp(A)."""
    return divisors(lcm(*a.cyclic_factors))[1:]


def _min_ratio(ct: CycleType, orders: list[int]) -> tuple[Fraction, int]:
    """Min over c != e of ind(ct, c)/m = ind(ct, (d))/d, d = ord(c) over
    `orders` (`_orders(A)`); returns (ratio, argmin order), the smaller
    order on a tie."""
    return min((Fraction(product_index_general(ct, CycleType.from_parts([d])), d), d)
               for d in orders)


# per-class strict lower bounds asserted by the delta lemmas for n = 3, 4
_DELTA_THRESHOLDS = {
    3: {(2, 1): 2, (3,): 1},
    4: {(2, 1, 1): 2, (2, 2): 1, (3, 1): 3, (4,): 2},
}


@dataclass(frozen=True)
class DeltaClassReport:
    ct: CycleType
    min_ratio: Fraction
    identity_ratio: int
    threshold: Fraction | None
    passed: bool


@dataclass(frozen=True)
class DeltaReport:
    classes: tuple[DeltaClassReport, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.classes)


def verify_delta(n: int, a: AbelianGroupSpec) -> DeltaReport:
    """Exhaustively check the per-class ratio bounds for S_n x A.

    n = 3, 4 check strict bounds per class; n = 5 checks
    ind(k, c)/m >= ind(k) + 6/7 for every class (margin (5-ind(k))*(p-1)/p
    with p >= 7).  c = identity is reported separately via identity_ratio.
    """
    _check_hypothesis(n, a)
    orders = _orders(a)
    reports = []
    for ct in nonidentity_classes(n):
        ratio, _ = _min_ratio(ct, orders)
        ind_k = index_of(ct)
        if n in _DELTA_THRESHOLDS:
            thr = Fraction(_DELTA_THRESHOLDS[n][ct.parts])
            passed = ratio > thr
        else:
            thr = ind_k + 1 - Fraction(1, 7)
            passed = ratio >= thr
        reports.append(
            DeltaClassReport(
                ct=ct,
                min_ratio=ratio,
                identity_ratio=ind_k,
                threshold=thr,
                passed=passed,
            )
        )
    return DeltaReport(tuple(reports))


@dataclass(frozen=True)
class UninClassReport:
    ct: CycleType
    rk: Fraction
    min_margin: Fraction  # min over c != e of ind(k,c)/m - ind(k) + r_k
    identity_margin: Fraction  # the c = e sub-case: equals r_k
    identity_ok: bool
    passed: bool


@dataclass(frozen=True)
class UninReport:
    classes: tuple[UninClassReport, ...]
    witness: tuple[tuple[int, ...], int] | None  # (class parts, element order)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.classes)


def verify_unin(n: int, a: AbelianGroupSpec, rk: RkTable) -> UninReport:
    """Check ind(k, c)/m - ind(k) + r_k >= 1 over all classes k, c != e.

    The c = identity margin (which equals r_k) is reported per class and
    flagged, but only c != e enters the verdict: the pairs it describes are
    ramified only on the S_n side at that prime.
    """
    _check_hypothesis(n, a)
    if rk.n != n:
        raise ValueError(f"r_k table is for S_{rk.n}, not S_{n}")
    rk.validate_cover()
    orders = _orders(a)
    reports = []
    witness = None
    for ct in nonidentity_classes(n):
        r_val = rk.value(ct)
        ratio, argmin = _min_ratio(ct, orders)
        margin = ratio - index_of(ct) + r_val
        passed = margin >= 1
        if not passed and witness is None:
            witness = (ct.parts, argmin)
        reports.append(
            UninClassReport(
                ct=ct,
                rk=r_val,
                min_margin=margin,
                identity_margin=r_val,
                identity_ok=r_val >= 1,
                passed=passed,
            )
        )
    return UninReport(tuple(reports), witness)
