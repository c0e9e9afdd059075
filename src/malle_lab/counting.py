"""Pair counting for S_n x A: compositum discriminants and truncations.

For a pair (K, L) with linearly disjoint Galois closures, Disc(KL) is the
product bound Disc(K)^degL * Disc(L)^degK divided by the deficit
p^(degL vK + degK vL - e) at each prime p ramified in both fields, where vK,
vL and e are the exponents of p in Disc(K), Disc(L) and Disc(KL); a prime
ramified in one field only has no deficit.  At a shared prime tame in both
fields, e is product_index_general of the two inertia cycle types; at one
wild in at least one field, e comes from a user-supplied wild table in exact
mode, or from the interval

    [max(degL * vK, degK * vL), degL * vK + degK * vL]

in interval mode.  Both ends are proved bounds at every prime, wild ones
included: the upper end is the product bound, and the lower end is the
tower bound, since Disc(KL) = Disc(K)^[KL:K] * N_{K/Q}(d_{KL/K}) (Serre,
Local Fields, III.4) with [KL:K] = degL, and symmetrically for L.  So the
interval counts [n_lo, n_hi] bracket N(X), and a wild-table entry outside
the interval raises InvariantViolation where it is used.  Records are rows
of checked field lists: |disc| = prod p^e, and no p appears twice.  That is
what lets the bound stand in for the product rule at every prime.

Disc_Y takes no deficit above the cutoff Y, so Disc_Y >= Disc and the
truncated counts N_Y(X) increase to N(X) with Y.  d_Sigma is the exact
ratio product-bound / Disc_Y, the deficits at the shared primes <= Y.

Pair counts split on shared ramification.  When Disc(K) and Disc(L) share
no ramified prime, every prime is ramified on one side only, so every local
factor is the product rule and Disc(KL) = Disc(K)^degL * Disc(L)^degK in
both modes and on every Y rung (d_Sigma = 1).  count_pairs counts those
pairs with the hyperbola engine of `convolve.product_count_exact` and
composes locally only the pairs that share a prime; `count_pairs_brute` is
the double-loop oracle.

Sharing pairs are screened by the tower bound: every value of a pair,
exact or either interval end, is at least lcm(Disc(K)^degL, Disc(L)^degK),
so a pair whose lcm exceeds X is never composed.  The candidates come from
the field lists' columns, not from every pair that shares a prime: the K
rows are grouped by (p, v_p(Disc K)) in order of disc, and for each prime p
of each L, with v = v_p(Disc L) and w the group's exponent,

    lcm(Disc(K)^degL, Disc(L)^degK) >= Disc(K)^degL * p^max(0, degK v - degL w),

exact at p and taking the gcd at L's other primes to be all of Disc(L)^degK.
A K ramified at no other prime of L has the lcm exactly
Disc(K)^degL * p^max(0, degK v - degL w) * r^degK, with r the part of
Disc(L) prime to p.  So each group is cut by bisection at two exact integer
bounds, Disc(K) <= iroot(X // (p^max(0, degK v - degL w) * r^degK), degL)
for every K and Disc(K) <= iroot(X // p^max(0, degK v - degL w), degL) for
the K with gcd(Disc(K), r) > 1: every pair with lcm <= X is a candidate,
and the exact lcm decides which are composed.
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd

from . import convolve
from .arith import iroot, prime_mask
from .convolve import CountingSequence, FitResult, empirical_fit
from .errors import (
    InadmissiblePair,
    IncompleteList,
    InsufficientData,
    InvariantViolation,
    MissingWildEntry,
)
from .fields.records import DISC_LIMIT, FieldList, FieldRecord, LocalRamification
from .permgroup import product_index_general
from .tamecomp import COPRIMALITY
from .util import json_typed

__all__ = [
    "WildTable",
    "CountReport",
    "compose_disc",
    "disc_truncated",
    "count_pairs",
    "euler_constant",
]

def _tame_key(loc: LocalRamification) -> str:
    if loc.kind == "tame":
        return "tame-" + ",".join(map(str, loc.tame_cycle_type.parts))
    return loc.wild_label


@dataclass(frozen=True)
class WildTable:
    """Exponent of Disc_p(KL) keyed by the two local labels at p.

    Tame sides are keyed as "tame-<parts>", e.g. "tame-2,1"; wild sides by
    their opaque wild_label.  Entries are validated at use against the
    tower bound max(degL * vK, degK * vL) below and the product bound
    degL * vK + degK * vL above: no field pair has an exponent outside them.
    """

    entries: dict[tuple[str, str], int] = field(default_factory=dict)

    @classmethod
    def from_json(cls, obj) -> "WildTable":
        """{"pairs": [{"k_label": "3-e3-v4", "l_label": "3-C3-cond-9", "exp": 14}]}:
        string labels and an integer exp, else TypeError; a label pair given
        twice, ValueError."""
        entries = {}
        for row in obj.get("pairs", []):
            k_label = json_typed(row["k_label"], str, "k_label")
            key = (k_label, json_typed(row["l_label"], str, "l_label"))
            if key in entries:
                raise ValueError(f"wild table lists the label pair {key} twice")
            entries[key] = json_typed(row["exp"], int, "exp")
        return cls(entries)


EMPTY_WILD = WildTable()


@lru_cache(maxsize=64, typed=True)
def _check_labels(k_label: str, k_degree: int, l_label: str, l_degree: int) -> None:
    """InadmissiblePair unless a K and an L of these labels and degrees may pair.

    Cached: the pairs of two field lists repeat a few label pairs, and a
    raise is never cached, so a bad pair raises on every call.
    """
    if k_label not in ("S3", "S4", "S5"):
        raise InadmissiblePair(f"left field must be S3/S4/S5, got {k_label}")
    n = int(k_label[1])
    if k_degree != n:
        raise InadmissiblePair(f"{k_label} field with degree {k_degree}")
    if not l_label.startswith("C"):
        raise InadmissiblePair(f"right field must be abelian (C...), got {l_label}")
    if gcd(l_degree, COPRIMALITY[n]) != 1:
        raise InadmissiblePair(f"|A| = {l_degree} not coprime to {COPRIMALITY[n]} for n = {n}")


def _local_exponent(k_loc: LocalRamification, l_loc: LocalRamification, m: int, n: int,
                    wild: WildTable, mode: str) -> tuple[int, int]:
    """(lo, hi) exponent of p in Disc(KL) from the entries of K and L (degrees m
    and n) at a prime p ramified in both; lo == hi when exact."""
    if k_loc.kind == "tame" and l_loc.kind == "tame":
        e = product_index_general(k_loc.tame_cycle_type, l_loc.tame_cycle_type)
        return e, e
    # wild on at least one side: the product and tower bounds
    vk, vl = k_loc.disc_exponent, l_loc.disc_exponent
    hi = n * vk + m * vl
    lo = max(n * vk, m * vl)
    if mode == "interval":
        return lo, hi
    e = wild.entries.get((_tame_key(k_loc), _tame_key(l_loc)))
    if e is None:
        raise MissingWildEntry(
            f"no wild entry for ({_tame_key(k_loc)}, {_tame_key(l_loc)}) at p={k_loc.p}"
        )
    if not lo <= e <= hi:
        raise InvariantViolation(
            f"wild exponent {e} at p={k_loc.p} outside [{lo}, {hi}], the tower and product bounds"
        )
    return e, e


def _compose(
    k_rec: FieldRecord, l_rec: FieldRecord, wild: WildTable, mode: str, y: int | None = None
):
    """The product bound over the deficit at each shared prime (<= y, when given)."""
    if mode not in ("exact", "interval"):
        raise ValueError("mode must be exact or interval")
    _check_labels(k_rec.group_label, k_rec.degree, l_rec.group_label, l_rec.degree)
    m, n = k_rec.degree, l_rec.degree
    lo = hi = disc_product_bound(k_rec, l_rec)
    for k_loc in k_rec.ramification:
        p = k_loc.p
        l_loc = l_rec.local_at(p)
        if l_loc is None or y is not None and p > y:
            continue
        elo, ehi = _local_exponent(k_loc, l_loc, m, n, wild, mode)
        full = n * k_loc.disc_exponent + m * l_loc.disc_exponent
        lo //= p ** (full - elo)
        hi //= p ** (full - ehi)
    return lo if mode == "exact" else (lo, hi)


def _ends(d) -> tuple[int, int]:
    """(lo, hi) of a composed value: an exact integer or an interval."""
    return (d, d) if isinstance(d, int) else d


def compose_disc(
    k_rec: FieldRecord,
    l_rec: FieldRecord,
    wild: WildTable = EMPTY_WILD,
    mode: str = "exact",
):
    """Disc(KL): an integer in exact mode, else (lo, hi) interval."""
    return _compose(k_rec, l_rec, wild, mode)


def disc_product_bound(k_rec: FieldRecord, l_rec: FieldRecord) -> int:
    return k_rec.abs_disc**l_rec.degree * l_rec.abs_disc**k_rec.degree


def disc_truncated(
    k_rec: FieldRecord,
    l_rec: FieldRecord,
    wild: WildTable,
    y: int,
    mode: str = "exact",
):
    """Hybrid disc: exact local factors for p <= y, product bound above."""
    return _compose(k_rec, l_rec, wild, mode, y)


@dataclass(frozen=True)
class CountReport:
    grid: tuple[int, ...]
    n_lo: tuple[int, ...]
    n_hi: tuple[int, ...]
    n_y: dict  # y -> tuple of counts (lower ends)
    fit: FitResult | None
    fit_exponent: Fraction
    mode: str

    @property
    def n_exact(self) -> tuple[int, ...]:
        if self.mode != "exact":
            raise ValueError("exact counts only in exact mode")
        return self.n_lo


def default_grid(x_max: int, points: int = 16) -> list[int]:
    """Powers of 2 descending from x_max: x_max, x_max/2, ..."""
    # x_max >> k >= 1 only for k < x_max.bit_length()
    grid = [x_max >> k for k in range(min(points, x_max.bit_length()))]
    return sorted(g for g in grid if g >= 1)


def _sharing_pairs(ks: FieldList, nk: int, ls: FieldList, nl: int, deg_k: int, deg_l: int, x: int):
    """(i, j, product bound), K-major, for the rows i < nk of ks and j < nl of ls
    that share a prime and have lcm(Disc(K)^degL, Disc(L)^degK) <= x; the
    product bound is Disc(K)^degL * Disc(L)^degK.

    The K entry slots are grouped by (p, v_p(Disc K)), each group in row
    order, so by disc, and each group is cut by bisection at exact integer
    bounds for each prime p of each L (see the module docstring); the exact
    lcm decides among the candidates.
    """
    import numpy as np

    l_discs = ls.abs_discs[:nl].tolist()
    l_offsets = ls.offsets[: nl + 1].tolist()
    l_ids = ls.entry_ids[: l_offsets[-1]].tolist()
    l_p, l_v = ls.entry_p.tolist(), ls.entry_exp.tolist()
    l_primes = set(map(l_p.__getitem__, l_ids))
    # the K entry slots at the primes of the L window, by group
    groups: dict[tuple[int, int], int] = {}
    group_of = np.array([groups.setdefault(pv, len(groups)) if pv[0] in l_primes else -1
                         for pv in zip(ks.entry_p.tolist(), ks.entry_exp.tolist())], np.int64)
    rows = ks.slot_rows(nk)
    group = group_of[ks.entry_ids[: rows.size]]
    rows, group = rows[group >= 0], group[group >= 0]
    order = np.lexsort((rows, group))
    rows = rows[order]
    discs = ks.abs_discs[rows]
    starts = np.searchsorted(group[order], np.arange(len(groups) + 1)).tolist()
    by_prime = defaultdict(list)
    for (p, w), g in groups.items():
        by_prime[p].append((w, starts[g], starts[g + 1]))
    found = []
    for j, l_disc in enumerate(l_discs):
        for e in l_ids[l_offsets[j]: l_offsets[j + 1]]:
            p, v = l_p[e], l_v[e]
            rest = l_disc // p**v  # Disc(L) away from p
            for w, lo, hi in by_prime.get(p, ()):
                at_p = p ** max(0, deg_k * v - deg_l * w)
                limits = [min(iroot(x // c, deg_l), DISC_LIMIT - 1)
                          for c in (at_p * rest**deg_k, at_p)]
                tight, loose = lo + discs[lo:hi].searchsorted(limits, "right")
                found.append(rows[lo:tight] * nl + j)
                # past the tight cut, only a K ramified at another prime of L
                found.append(rows[tight:loose][np.gcd(discs[tight:loose], rest) > 1] * nl + j)
    if not found:
        return []
    k_discs = ks.abs_discs[:nk].tolist()
    l_powers = [d**deg_k for d in l_discs]
    pairs = (divmod(key, nl) for key in np.unique(np.concatenate(found)).tolist())
    powers = ((i, j, k_discs[i] ** deg_l, l_powers[j]) for i, j in pairs)
    return [(i, j, a * b) for i, j, a, b in powers if math.lcm(a, b) <= x]


def _counting_sequence(field_list: FieldList, n: int, x: int) -> CountingSequence:
    """The |disc| of the first n records, complete to x."""
    import numpy as np

    values, counts = np.unique(field_list.abs_discs[:n], return_counts=True)
    return CountingSequence(entries=zip(values.tolist(), counts.tolist()), complete_to=x)


def count_pairs(
    sn_list: FieldList,
    ab_list: FieldList,
    x: int,
    wild: WildTable = EMPTY_WILD,
    mode: str = "exact",
    y_ladder=(),
    grid=None,
) -> CountReport:
    """Count pairs (K, L) with Disc(KL) <= X over a grid, plus N_Y ladders.

    The K window is Disc(K) <= X^(1/degL), the exact integer root, and
    symmetrically for L: by the tower bound Disc(KL) >= Disc(K)^degL and
    Disc(KL) >= Disc(L)^degK, so no pair outside the windows counts.  In
    exact mode n_lo == n_hi is the count; in interval mode [n_lo, n_hi] is
    a proved bracket of it, n_lo counting upper ends and n_hi lower ends.

    The windowed pairs are counted by coprime split.  A pair whose
    discriminants share no ramified prime has every local factor given by
    the product rule, so its lower end, upper end, exact value and every
    Disc_Y all equal the product bound Disc(K)^degL * Disc(L)^degK.  Each
    count at g therefore starts from the number of windowed pairs with
    product bound <= g, a hyperbola count (`product_count_exact`) shared by
    n_lo, n_hi and every rung.  Only the pairs sharing a prime go through
    compose_disc and disc_truncated, in K-major order, one view per K; each
    adds [value <= g] - [product bound <= g] to the count it belongs to.  A
    sharing pair with lcm(Disc(K)^degL, Disc(L)^degK) > X is never composed,
    since each of its values is at least that lcm (`_sharing_pairs`).
    Each list holds one kind of field (see `fields.records`), so the labels
    are checked once per call, when both windows hold a field.  A list with
    no rows has no degree, so it windows nothing of the other list; it must
    itself still be complete over the window that the other list's degree
    fixes.
    """
    if mode not in ("exact", "interval"):
        raise ValueError("mode must be exact or interval")
    if grid is None:
        grid = default_grid(x)
    grid = tuple(sorted(g for g in grid if g <= x))
    deg_k, deg_l = sn_list.degree, ab_list.degree
    # X < 0 windows nothing, and neither does an empty list on the other
    # side: it fixes no degree
    k_window, l_window = (iroot(max(x, 0), d) if d else 0 for d in (deg_l, deg_k))
    if sn_list.x_max < k_window:
        raise IncompleteList(
            f"S_n list complete to {sn_list.x_max}, window needs {k_window}"
        )
    if ab_list.x_max < l_window:
        raise IncompleteList(
            f"abelian list complete to {ab_list.x_max}, window needs {l_window}"
        )
    nk, nl = sn_list.count_upto(k_window), ab_list.count_upto(l_window)
    if not nk or not nl:
        zeros = tuple(0 for _ in grid)
        return CountReport(
            grid=grid, n_lo=zeros, n_hi=zeros,
            n_y={y: zeros for y in y_ladder}, fit=None,
            fit_exponent=Fraction(1, deg_l or 1), mode=mode,
        )
    _check_labels(sn_list.group_label, deg_k, ab_list.group_label, deg_l)
    l_recs = {}  # the L views, made at their first pair
    discs_lo, discs_hi, bounds = [], [], []
    trunc = {y: [] for y in y_ladder}
    k_at = None
    for i, j, bound in _sharing_pairs(sn_list, nk, ab_list, nl, deg_k, deg_l, x):
        if i != k_at:
            k_at, k_rec = i, sn_list[i]
        l_rec = l_recs.get(j)
        if l_rec is None:
            l_rec = l_recs[j] = ab_list[j]
        lo, hi = _ends(compose_disc(k_rec, l_rec, wild, mode))
        if lo > x:
            continue  # every value of the pair, bound included, is > x >= g
        discs_lo.append(lo)
        discs_hi.append(hi)
        bounds.append(bound)
        for y in trunc:  # once per distinct rung
            trunc[y].append(_ends(disc_truncated(k_rec, l_rec, wild, y, mode))[1])
    # the windowed lists are the whole population counted, so they are
    # complete as far as any count at g <= x can ask
    k_seq, l_seq = _counting_sequence(sn_list, nk, x), _counting_sequence(ab_list, nl, x)
    bounds.sort()
    # pairs with product bound <= g, less the sharing pairs among them
    coprime = [
        convolve.product_count_exact(k_seq, l_seq, deg_l, deg_k, math.floor(g))
        - bisect.bisect_right(bounds, g)
        for g in grid
    ]

    def plus_shared(values):
        values.sort()
        return tuple(c + bisect.bisect_right(values, g) for c, g in zip(coprime, grid))

    # N_hi counts pairs that may satisfy disc <= X (optimistic: lower ends);
    # N_lo counts pairs that surely do (upper ends)
    n_hi = plus_shared(discs_lo)
    n_lo = plus_shared(discs_hi)
    n_y = {y: plus_shared(values) for y, values in trunc.items()}
    # invariants.product_a/product_b with a(S_n) = b(S_n) = 1: since
    # n * a(A) >= 3|A|/2 > |A|, the S_n side has the larger slope, 1/|A| =
    # 1/degL, and the log power is b(S_n) - 1 = 0
    exponent = Fraction(1, deg_l)
    try:
        fit = empirical_fit([(g, c) for g, c in zip(grid, n_lo) if c > 0], exponent, 0)
    except InsufficientData:
        fit = None
    return CountReport(
        grid=grid,
        n_lo=n_lo,
        n_hi=n_hi,
        n_y=n_y,
        fit=fit,
        fit_exponent=exponent,
        mode=mode,
    )


def count_pairs_brute(
    sn_list: FieldList,
    ab_list: FieldList,
    x: int,
    wild: WildTable = EMPTY_WILD,
    mode: str = "exact",
) -> int:
    """Oracle: unwindowed double loop over the full lists, for tests only.

    Counts by the same end of the interval as count_pairs' n_lo.
    """
    total = 0
    ls = list(ab_list)
    for k_rec in sn_list:
        for l_rec in ls:
            if _ends(compose_disc(k_rec, l_rec, wild, mode))[1] <= x:
                total += 1
    return total


# ---------------------------------------------------------------------------
# Euler product

def c3_exact() -> float:
    """3058 * 3^-5 + 4 * 3^(4/3)."""
    return 3058.0 / 243.0 + 4.0 * 3.0 ** (4.0 / 3.0)


@dataclass(frozen=True)
class EulerReport:
    p_max: int
    value: float
    c3: float
    log_tail_last_decade: float  # sum of |ln c_p| over the top decade of p


# isqrt(2^53): up to it p^2 is a float64
_FLOAT_SQUARE = math.isqrt(2**53)


def _over_square(num, p):
    """num / p^2 for the integer columns num and p, p ascending and positive,
    each rounded once as Python's int division rounds: in float64 while p^2
    is one, in Python ints past isqrt(2^53)."""
    import numpy as np

    k = int(np.searchsorted(p, _FLOAT_SQUARE, "right"))
    out = p.astype(float)
    square = out[:k]
    square *= square
    np.divide(num[:k], square, out=square)
    out[k:] = np.fromiter((int(c) / int(m) ** 2 for c, m in zip(num[k:], p[k:])), float, p.size - k)
    return out


def _log_factors(p):
    """ln c_p for each prime p >= 5 of the ascending int64 array p, as float64.

    Bit for bit the scalar formula of `euler_constant` in Python floats:
    +, * and / round alike in numpy, the quotients by p^2 come from
    `_over_square`, and p^(7/3) and ln from math.pow and math.log, whose
    last bit numpy's power and log do not always share.  The steps work in
    place, so that few columns of p's length are held at once.
    """
    import numpy as np

    inv = 1.0 / p
    one = p % 3 == 1
    base = inv + 1.0
    base += _over_square(np.where(one, 5, 1), p)
    base[one] += 2.0 / np.fromiter(map(math.pow, p[one], repeat(7 / 3)), float, int(one.sum()))
    base *= np.subtract(1.0, inv, out=inv)
    return np.fromiter(map(math.log, base), float, p.size)


def euler_constant(p_max: int) -> EulerReport:
    """Partial product 2 * c3 * prod_{5 <= p <= p_max} c_p, c3 = c3_exact().

    c_p = (1 + 1/p + 5/p^2 + 2/p^(7/3))(1 - 1/p) for p = 1 mod 3 and
    (1 + 1/p + 1/p^2)(1 - 1/p) for p = 2 mod 3, each sum taken left to right.

    The value is exp of the sum of ln c_p, and log_tail_last_decade the sum
    of |ln c_p| over p > p_max / 10; both sums run in order of p, one
    rounding per term (a cumulative sum: numpy's sum pairs terms, and
    Python's sum compensates on 3.12), so every field is bit-identical to
    the loop over the primes in Python floats.

    The value is the paper's Euler product as it stands, not normalised to
    count_pairs' n_lo: it has no factor 1/(3 zeta(3)) and no (Pi - 1)/2 over
    the nontrivial L.
    """
    if p_max < 5:
        raise ValueError("p_max must be >= 5")
    import numpy as np

    c3 = c3_exact()
    p = np.flatnonzero(prime_mask(p_max))[2:]  # from 5 on
    lg = _log_factors(p)
    # Bertrand: a prime lies in (p_max / 2, p_max], so neither sum is empty
    log_sum = float(np.cumsum(lg)[-1])
    log_tail = float(np.cumsum(np.abs(lg[p > p_max / 10]))[-1])
    return EulerReport(
        p_max=p_max,
        value=2.0 * c3 * math.exp(log_sum),
        c3=c3,
        log_tail_last_decade=log_tail,
    )
