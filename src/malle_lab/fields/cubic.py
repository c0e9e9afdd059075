"""S_3 cubic fields over Q via integral binary cubic forms.

Cubic rings correspond to GL_2(Z)-classes of integral binary cubic forms
F = (a, b, c, d) (meaning a x^3 + b x^2 y + c x y^2 + d y^3) with
disc(R(F)) = disc(F); maximal irreducible forms with non-square disc are
exactly the S_3 cubic fields, one class per field.  The class action used
throughout is the twisted one, (M.F)(x, y) = F((x, y) M) / det M.

Reduction domains (derived from scratch; every bound is re-checked by the
brute-force box test in the suite and by exact agreement with the
independent polynomial-search route):

disc > 0.  The Hessian H = (P, Q, R) with P = b^2 - 3ac, Q = bc - 9ad,
R = c^2 - 3bd is positive definite with 4PR - Q^2 = 3D.  Call F reduced when
|Q| <= P <= R.  Then P <= sqrt(D) (from 3D = 4PR - Q^2 >= 3P^2), and
eliminating c, d from the Hessian entries yields the identity
P b^2 - 3aQ b + 9a^2 R - P^2 = 0, a quadratic in b with discriminant
4P^3 - 27 a^2 D.  Hence 4P^3 >= 27 a^2 D and
b = (3aQ +- sqrt(4P^3 - 27 a^2 D)) / (2P), so

    729 a^4 <= 16 D,      |b| <= 3a/2 + sqrt(P) <= 3a/2 + D^(1/4),

with c determined by P in (0, sqrt(D)] and d confined to |Q| <= P.

disc < 0.  F has one real root theta and a complex pair phi, conj(phi); take
phi in the upper half plane.  Call F reduced when phi lies in the classical
fundamental domain |Re phi| <= 1/2, |phi| >= 1.  Both conditions are exact
integer sign tests: with a > 0, theta < t iff F(t_num, t_den) > 0, and
|phi|^2 = -d/(a theta).  For irreducible F the boundary cases force a
rational root, so they never occur and the reduced representative is unique
up to the mirror (a, -b, c, -d) (the det = -1 identification).  Writing
u = Re phi, v = Im phi, w = |theta - u|, one has
|D| = 4 a^4 v^2 (w^2 + v^2)^2, v^2 >= 3/4, giving

    27 a^4 <= 16|D|,  w^2 + v^2 <= sqrt(|D|/3)/a^2,  w <= |D|^(1/4)/(3^(1/4) a),

and the coefficient bounds used by the search loops:

    |b| = a|3u +- w| <= 3a/2 + (|D|/3)^(1/4)
    |c| = a|3u^2 +- 2uw + v^2| <= 3a/4 + (|D|/3)^(1/4) + sqrt(|D|/3)/a.

d then runs over the integer window where |D(a,b,c,d)| <= X (a downward
parabola in d), cut to the window of |Re phi| <= 1/2.  That condition is
the pair of sign tests g(a - b) >= 0 and g(-a - b) <= 0 on
g(x) = x^3 + b x^2 + ac x + a^2 d (F(x, a) = a g(x)), and both are linear
in d:

    g(a - b)  = a ((a - b)(a - b + c) + a d),
    g(-a - b) = a (a d - (a + b)(a + b + c)),

so with a > 0 they say -(a - b)(a - b + c)/a <= d <= (a + b)(a + b + c)/a,
that is -((a - b)(a - b + c) // a) <= d <= (a + b)(a + b + c) // a in
integers.  The exact test _neg_reduced still decides each form; the window
only drops forms it would reject (at X = 1e5 the d loop visits 79,419
forms instead of 333,867).

Search bounds.  The loops take these bounds at |D| <= X in integers.  An
integer n >= 0 has n^k <= t for a real t exactly when n <= iroot(floor(t), k),
so no root is ever rounded the wrong way.  With s = iroot(16X // 3, 4), the
floor of 2 (X/3)^(1/4), and m = isqrt(16X // 3), the floor of 4 sqrt(X/3):

    disc > 0:  a <= iroot(16X // 729, 4),  2b - 3a <= iroot(16X, 4),
               0 < P <= isqrt(X),  |Q| <= P <= R;
    disc < 0:  a <= iroot(16X // 27, 4),   2b - 3a <= s,
               4a|c| <= 3a^2 + 2a(s + 1) + m,

the last because 4a|c| <= 3a^2 + 4a (X/3)^(1/4) + 4 sqrt(X/3), which is
below 3a^2 + 2a(s + 1) + m + 1.

Irreducibility.  A form with no root in P^1(F_p) has no rational root.  For
p = 5, 7, 11, 13 and 17 a p^4-entry bytearray marks the forms mod p with no
root in P^1(F_p), [1:0] (that is, p | a) counted as a root; the tables are
built once per process, on the first is_irreducible call, by clearing the
d = -(a r^3 + b r^2 + c r) entry for every a != 0 and root r.  A form no
table marks goes to the exact rational-root test (roots x/y with y | a and
x | d), which every reducible form reaches.

Maximality.  R(F) is non-maximal at p iff p divides the content of F, or F
mod p has a multiple root [x0:y0] in P^1(F_p) with p^2 | F(x0, y0) (the value
at a lift is well defined mod p^2 because the gradient vanishes at a multiple
root, and scaling by a unit keeps p^2 | F).  Only primes with p^2 | D can
fail.  When p | D and p does not divide the content, F mod p has exactly one
multiple root, double or triple, and `_multiple_root` finds it:

- p >= 5: the Hessian decides.  If p | P, Q, R then F mod p is a cube: if a
  is a unit mod p, P = Q = R = 0 forces F = a (x + b y/(3a))^3, the root
  [-b:3a], and if p | a then P = b^2 and R = c^2 force F = d y^3, the root
  [1:0].  Otherwise the root is double, and H = P (x - r y)^2 mod p when it
  is [r:1], so it is [-Q:2P], or [1:0] when p | P.
- p = 2, 3: scan the residues; a finite root x0 is triple when the x^2
  coefficient 3a x0 + b of F(x + x0, 1) vanishes, and [1:0] is triple when
  p | c as well as a and b.

Mirror pairs.  The mirror (a, b, c, d) -> (a, -b, c, -d), i.e. F(x, -y), is
in the class of F and keeps disc.  It maps each reduced set to itself: for
disc > 0 the Hessian goes from (P, Q, R) to (P, -Q, R); for disc < 0 the roots
are negated, so phi goes to -conj(phi), which stays in the fundamental domain.
The b, c and d windows below are symmetric under (b, d) -> (-b, -d).  So the
search loops take b >= 0 only, and d >= 1 when b = 0 (d = 0 is reducible):
one form of each mirror pair, half the forms to test for the same fields.

Factoring.  Every |disc| <= x is factored from one smallest-prime-factor
table over [0, x] (an array('i'), 4 bytes an entry), built once per
enumerate_cubic call; forked workers inherit it, spawned workers build their
own once.

Local data.  For a maximal form, p ramifies exactly when p | disc, and p is
totally ramified (e = 3) exactly when F mod p is a cube, that is when the
multiple root of F mod p is triple: the same rule as for maximality, at
every p.  If v_p(D) = 1 then e = 2 with no root to find: were F mod p a cube,
a unimodular change of variables (which keeps D) would move its root to
[1:0], making p | a, b, c, and every term of
D = 18abcd + b^2c^2 - 4ac^3 - 4b^3d - 27a^2d^2 has two of those factors, so
p^2 | D.  So `_ramification` factors |D| once, calls `_multiple_root` only
where v_p(D) >= 2, and returns both the maximality verdict and the entries;
it runs in the workers, where maximality is decided.  The entry at p
depends only on (p, v_p(disc), e), so each call builds and checks each
distinct entry once and the records share it (at 1e5, 4,367 entries for
21,794 fields); chunks that come back from other processes carry their own
copies, which enumerate_cubic re-interns so that sharing holds for any
worker count.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import cache
from math import gcd, isqrt

from ..arith import divisors, factor, iroot, spf_table
from ..errors import InvariantViolation
from ..permgroup import CycleType
from ..util import pmap
from .records import FieldList, FieldRecord, LocalRamification

__all__ = ["disc_form", "hessian", "enumerate_cubic", "canonical_form"]

Form = tuple[int, int, int, int]

_TAME_2_1 = CycleType.from_parts((2, 1))
_TAME_3 = CycleType.from_parts((3,))


def disc_form(f: Form) -> int:
    a, b, c, d = f
    return (
        18 * a * b * c * d
        + b * b * c * c
        - 4 * a * c**3
        - 4 * b**3 * d
        - 27 * a * a * d * d
    )


def hessian(f: Form) -> tuple[int, int, int]:
    a, b, c, d = f
    return (b * b - 3 * a * c, b * c - 9 * a * d, c * c - 3 * b * d)


def transform(f: Form, m: tuple[int, int, int, int]) -> Form:
    """(M.F)(x,y) = F(m11 x + m21 y, m12 x + m22 y) / det M, M = (m11,m12,m21,m22)."""
    a, b, c, d = f
    m11, m12, m21, m22 = m
    det = m11 * m22 - m12 * m21
    if det not in (1, -1):
        raise ValueError("matrix must be unimodular")
    # F(m11 x + m21 y, m12 x + m22 y) expanded
    a2 = a * m11**3 + b * m11**2 * m12 + c * m11 * m12**2 + d * m12**3
    b2 = (
        3 * a * m11**2 * m21
        + b * (m11**2 * m22 + 2 * m11 * m12 * m21)
        + c * (2 * m11 * m12 * m22 + m12**2 * m21)
        + 3 * d * m12**2 * m22
    )
    c2 = (
        3 * a * m11 * m21**2
        + b * (2 * m11 * m21 * m22 + m12 * m21**2)
        + c * (m11 * m22**2 + 2 * m12 * m21 * m22)
        + 3 * d * m12 * m22**2
    )
    d2 = a * m21**3 + b * m21**2 * m22 + c * m21 * m22**2 + d * m22**3
    if det == 1:
        return (a2, b2, c2, d2)
    return (-a2, -b2, -c2, -d2)


_SMALL_MATS = tuple(
    (m11, m12, m21, m22)
    for m11 in (-1, 0, 1)
    for m12 in (-1, 0, 1)
    for m21 in (-1, 0, 1)
    for m22 in (-1, 0, 1)
    if m11 * m22 - m12 * m21 in (1, -1)
)


def _hessian_reduced(f: Form) -> bool:
    p, q, r = hessian(f)
    return 0 < p <= r and abs(q) <= p


def _reduce_pos(f: Form) -> Form:
    """Gaussian-reduce the Hessian, carrying the transform to the form."""
    for _ in range(10_000):
        p, q, r = hessian(f)
        if p <= 0:
            raise ValueError("Hessian not positive definite (disc <= 0?)")
        if p > r:
            f = transform(f, (0, -1, 1, 0))
            continue
        if abs(q) > p:
            # under (1, 0, t, 1): Q -> Q + 2Pt; nearest integer to -Q/(2P)
            t = (-q + p) // (2 * p)
            if t == 0:
                t = -1 if q > 0 else 1
            f = transform(f, (1, 0, t, 1))
            continue
        return f
    raise RuntimeError("reduction did not terminate")


def canonical_form(f: Form) -> Form:
    """Canonical representative of the GL_2(Z)-class (disc != 0, irreducible).

    disc > 0: lex-min over all Hessian-reduced forms reachable by one
    entries<=1 unimodular transform from a reduced representative (classical
    fact: equivalences between reduced positive quadratics have entries <= 1).
    disc < 0: reduce the complex root into the fundamental domain, then
    lex-min with the mirror.
    """
    d = disc_form(f)
    if d == 0:
        raise ValueError("degenerate form")
    if d > 0:
        f0 = _reduce_pos(f)
        p, q, r = hessian(f0)
        if abs(q) < p < r:
            # interior of the reduction domain: the only reduced images are
            # ±f0 and ±mirror (stabilizer {±1} x mirror)
            mirror = (f0[0], -f0[1], f0[2], -f0[3])
            return min(
                f0,
                tuple(-x for x in f0),
                mirror,
                tuple(-x for x in mirror),
            )
        cands = set()
        for m in _SMALL_MATS:
            g = transform(f0, m)
            if _hessian_reduced(g):
                cands.add(g)
                cands.add(tuple(-x for x in g))
        return min(cands)
    f0 = _reduce_neg(f)
    mirror = (f0[0], -f0[1], f0[2], -f0[3])
    return min(f0, mirror)


# -- negative discriminant reduction ----------------------------------------

def _eval_form(f: Form, x: int, y: int) -> int:
    a, b, c, d = f
    return a * x**3 + b * x**2 * y + c * x * y**2 + d * y**3


def _neg_reduced(f: Form) -> bool:
    """Exact fundamental-domain test for disc < 0, a > 0 forms.

    theta = the unique real root of F(t, 1).  Conditions:
      |2 Re phi| <= 1   <=>  -b/a - 1 <= theta <= -b/a + 1
      |phi|^2    >= 1   <=>  -d/a >= theta when theta > 0, else -d/a <= theta
    and theta > 0 iff d < 0.  Since F is irreducible, F never vanishes at the
    rational test points, so strict signs decide.  F(x, a) = a * g(x) with
    g(x) = x^3 + b x^2 + ac x + a^2 d, and F(-d, a) = a * h with
    h = d (a^2 - ac + bd - d^2)... expanded below.
    """
    a, b, c, d = f
    if a <= 0:
        raise ValueError("normalize a > 0 first")
    ac = a * c
    aad = a * a * d
    x = a - b  # g(a - b) >= 0  <=>  theta <= -b/a + 1
    if ((x + b) * x + ac) * x + aad < 0:
        return False
    x = -a - b  # g(-a - b) <= 0  <=>  theta >= -b/a - 1
    if ((x + b) * x + ac) * x + aad > 0:
        return False
    h = d * (a * a - c * a) + d * d * (b - d)  # = -d^3 + b d^2 - acd + a^2 d
    if d < 0:  # theta > 0: need -d/a >= theta <=> g(-d) >= 0
        return h >= 0
    return h <= 0


def _real_root_interval(f: Form) -> tuple:
    """Bracket the real root of F(t,1) between two rationals (num, den)."""
    a, b, c, d = f
    bound = 1 + max(abs(b), abs(c), abs(d)) // a + 1
    lo, hi = Fraction(-bound), Fraction(bound)
    flo = _eval_form(f, lo.numerator, lo.denominator)
    assert flo < 0 and _eval_form(f, hi.numerator, hi.denominator) > 0
    return lo, hi


def _reduce_neg(f: Form) -> Form:
    """Walk the complex root pair into the fundamental domain (exact tests)."""
    a = f[0]
    if a == 0:
        raise ValueError("reducible form (a = 0)")
    if a < 0:
        f = tuple(-x for x in f)
    for _ in range(10_000):
        if _neg_reduced(f):
            return f
        a, b, c, d = f
        # Re phi = (-b/a - theta)/2, whose nearest integer is
        # (-b/a - theta + 1) // 2; bisect theta until both ends of its bracket
        # give the same one (Re phi is never a half-integer here)
        lo, hi = _real_root_interval(f)
        while True:
            t = (Fraction(-b, a) - hi + 1) // 2
            if t == (Fraction(-b, a) - lo + 1) // 2:
                break
            mid = (lo + hi) / 2
            if _eval_form(f, mid.numerator, mid.denominator) > 0:
                hi = mid
            else:
                lo = mid
        if t != 0:
            # x -> x + t y shifts theta by -t and Re phi along with it
            f = transform(f, (1, 0, t, 1))
            continue
        # |Re phi| <= 1/2 but not reduced: |phi| < 1, invert (x,y) -> (-y,x)
        g = transform(f, (0, -1, 1, 0))
        if g[0] < 0:
            g = tuple(-x for x in g)
        if g == f:
            raise RuntimeError("reduction stalled")
        f = g
    raise RuntimeError("reduction did not terminate")


# -- irreducibility ----------------------------------------------------------

_SCREEN_PRIMES = (5, 7, 11, 13, 17)


@cache
def _no_root_tables() -> tuple[tuple[int, bytearray], ...]:
    """(p, table) for the screen primes, built on first use (not at import).

    table[((a p + b) p + c) p + d] is 1 when F = (a, b, c, d) mod p has no
    root in P^1(F_p), [1:0] included.  Forked workers inherit the tables
    once built.
    """
    return tuple((p, _no_root_table(p)) for p in _SCREEN_PRIMES)


def _no_root_table(p: int) -> bytearray:
    q = p**3
    table = bytearray(q) + b"\x01" * (q * (p - 1))  # a = 0: root [1:0]
    for a in range(1, p):
        for r in range(p):
            for b in range(p):
                row = (a * p + b) * p * p
                k = (a * r + b) * r * r
                for c in range(p):
                    # F(r, 1) = 0 exactly at d = -(a r^3 + b r^2 + c r)
                    table[row + c * p + (-(k + c * r)) % p] = 0
    return table


def is_irreducible(f: Form) -> bool:
    """No rational linear factor (and a != 0)."""
    a, b, c, d = f
    if a == 0:
        return False
    if d == 0:
        return False  # root [0:1]
    # modular screens: a form with no root mod p has none over Q
    for p, table in _no_root_tables():
        if table[((a % p * p + b % p) * p + c % p) * p + d % p]:
            return True
    # exact rational root test: roots p/q with q | a, p | d
    d_divisors = divisors(abs(d))
    for q in divisors(abs(a)):
        for p in d_divisors:
            if gcd(p, q) != 1:
                continue
            if _eval_form(f, p, q) == 0 or _eval_form(f, -p, q) == 0:
                return False
    return True


# -- maximality and local data ----------------------------------------------

def _multiple_root(f: Form, p: int) -> tuple[int, int, bool]:
    """(x0, y0, triple): the multiple root [x0:y0] of F mod p, and whether it is triple.

    Assumes p | disc(F) and p does not divide the content of F.
    """
    a, b, c, d = f
    if p >= 5:
        hp, hq, hr = hessian(f)
        if hp % p:
            return -hq % p, 2 * hp % p, False
        if hq % p or hr % p:
            return 1, 0, False
        if a % p:
            return -b % p, 3 * a % p, True
        return 1, 0, True
    for r in range(p):
        if _eval_form(f, r, 1) % p == 0 and (3 * a * r * r + 2 * b * r + c) % p == 0:
            return r, 1, (3 * a * r + b) % p == 0
    return 1, 0, c % p == 0


def _local_entry(p: int, v: int, triple: bool) -> LocalRamification:
    """The entry at p of a field with v_p(disc) = v, totally ramified when `triple`."""
    if not triple:
        if p == 2:
            return LocalRamification(p=2, kind="wild", disc_exponent=v, wild_label=f"2-e2-v{v}")
        if v != 1:
            raise InvariantViolation(f"tame e=2 at p={p} but v_p(disc)={v}")
        return LocalRamification(p=p, kind="tame", disc_exponent=1, tame_cycle_type=_TAME_2_1)
    if p == 3:
        return LocalRamification(p=3, kind="wild", disc_exponent=v, wild_label=f"3-e3-v{v}")
    if v != 2:
        raise InvariantViolation(f"tame e=3 at p={p} but v_p(disc)={v}")
    return LocalRamification(p=p, kind="tame", disc_exponent=2, tame_cycle_type=_TAME_3)


def _ramification(f: Form, dsc: int, spf: array | None, entries: dict):
    """The local entries of the field of F with disc(F) = dsc, or None when R(F) is not maximal.

    One factorisation of |dsc| decides both: R(F) is maximal when no p with
    p^2 | dsc has p^2 | F(x0, y0) at the multiple root, and then every
    p | dsc ramifies, with e = 3 exactly when that root is triple (never
    when v_p(dsc) = 1).  `entries` holds the entry of each (p, v_p, triple)
    built so far, shared by every field that has it.
    """
    a, b, c, d = f
    if gcd(gcd(a, b), gcd(c, d)) != 1:
        return None
    ram = []
    for p, v in factor(abs(dsc), spf).items():
        if v == 1:
            key = p, 1, False
        else:
            x0, y0, triple = _multiple_root(f, p)
            if _eval_form(f, x0, y0) % (p * p) == 0:
                return None
            key = p, v, triple
        loc = entries.get(key)
        if loc is None:
            loc = entries[key] = _local_entry(*key)
        ram.append(loc)
    return tuple(ram)


def is_maximal(f: Form, d: int | None = None, spf: array | None = None) -> bool:
    """True when the cubic ring of F is maximal (p-maximal at every p).

    `d` is disc(F) when already known; `spf` is a smallest-prime-factor
    table used to factor |d| when it covers it.
    """
    return _ramification(f, disc_form(f) if d is None else d, spf, {}) is not None


# -- enumeration -------------------------------------------------------------

def _pos_candidates(x: int, a_range):
    """Hessian-reduced candidates with 0 < disc <= x, a in a_range, one per mirror pair."""
    out = []
    pmax = isqrt(x)
    x4 = iroot(16 * x, 4)
    for a in a_range:
        for b in range((3 * a + x4) // 2 + 1):
            # c window from 0 < P <= sqrt(X)
            c_lo = -(-(b * b - pmax) // (3 * a))  # ceil
            c_hi = (b * b - 1) // (3 * a)
            for c in range(c_lo, c_hi + 1):
                p = b * b - 3 * a * c
                # d window from |Q| <= P
                d_lo = -(-(b * c - p) // (9 * a)) if b else 1
                d_hi = (b * c + p) // (9 * a)
                for d in range(d_lo, d_hi + 1):
                    if c * c - 3 * b * d < p:
                        continue
                    f = (a, b, c, d)
                    dsc = disc_form(f)
                    if 0 < dsc <= x:
                        out.append((f, dsc))
    return out


def _neg_candidates(x: int, a_range):
    """Fundamental-domain-reduced candidates with -x <= disc < 0, a in a_range, one per mirror pair."""
    out = []
    m = isqrt(16 * x // 3)
    s = iroot(16 * x // 3, 4)
    for a in a_range:
        cmax = (3 * a * a + 2 * a * (s + 1) + m) // (4 * a)
        a2 = 27 * a * a
        for b in range((3 * a + s) // 2 + 1):
            for c in range(-cmax, cmax + 1):
                # |Re phi| <= 1/2: -(a - b)(a - b + c)/a <= d <= (a + b)(a + b + c)/a
                w_lo = -((a - b) * (a - b + c) // a)
                w_hi = (a + b) * (a + b + c) // a
                if not b:
                    w_lo = max(w_lo, 1)
                if w_lo > w_hi:
                    continue
                # disc(d) = -a2 d^2 + a1 d + a0; live window where -x <= disc,
                # minus the middle where disc >= 0
                a1 = 18 * a * b * c - 4 * b**3
                a0 = b * b * c * c - 4 * a * c**3
                disc_quad = a1 * a1 + 4 * a2 * (a0 + x)
                if disc_quad < 0:
                    continue
                sq = isqrt(disc_quad)
                d_lo = max(-(-(a1 - sq) // (2 * a2)), w_lo)
                d_hi = min((a1 + sq) // (2 * a2), w_hi)
                zero_quad = a1 * a1 + 4 * a2 * a0
                if zero_quad >= 0:
                    zq = isqrt(zero_quad)
                    mid_lo = (a1 - zq) // (2 * a2) + 1  # first d with disc > ... inside
                    mid_hi = -(-(a1 + zq) // (2 * a2)) - 1
                    segments = ((d_lo, min(mid_lo - 1, d_hi)), (max(mid_hi + 1, d_lo), d_hi))
                else:
                    segments = ((d_lo, d_hi),)
                for seg_lo, seg_hi in segments:
                    for d in range(seg_lo, seg_hi + 1):
                        dsc = a0 + d * (a1 - a2 * d)
                        if -x <= dsc < 0:
                            f = (a, b, c, d)
                            if _neg_reduced(f):
                                out.append((f, dsc))
    return out


def _amax_pos(x: int) -> int:
    return iroot(16 * x // 729, 4)


def _amax_neg(x: int) -> int:
    return iroot(16 * x // 27, 4)


# The smallest-prime-factor table and the shared local entries of the running
# enumerate_cubic.  pmap has no per-worker set-up, and a table passed with
# each task would be pickled once per task: forked workers inherit these,
# spawned workers build their own once.  They only save work; _collect_chunk
# checks that the table covers x.
_spf: array | None = None
_entries: dict[tuple[int, int, bool], LocalRamification] | None = None


def _collect_chunk(args):
    """({canonical form: disc}, {canonical form: local entries}) for the S_3 fields of one task.

    Two dicts rather than one of (disc, entries) pairs: the pairs, freed
    once the records are built, left holes among the objects that live on,
    and enumerate_cubic(2e5) followed by write_jsonl peaked about 6 MB
    higher in RSS.
    """
    global _spf, _entries
    x, sign, a_values = args
    if _spf is None or len(_spf) <= x:
        _spf = spf_table(x)
    if _entries is None:
        _entries = {}
    spf, entries = _spf, _entries
    cands = _pos_candidates(x, a_values) if sign > 0 else _neg_candidates(x, a_values)
    discs, rams = {}, {}
    for f, dsc in cands:
        if sign > 0 and isqrt(dsc) ** 2 == dsc:
            continue  # cyclic cubic (Galois <=> square disc)
        if not is_irreducible(f):
            continue
        ram = _ramification(f, dsc, spf, entries)
        if ram is None:
            continue  # not maximal
        canon = canonical_form(f)
        discs[canon], rams[canon] = dsc, ram
    return discs, rams


def _reintern(rams: dict) -> None:
    """Give `rams` one object per distinct entry, across chunks that workers built apart.

    A chunk comes back from its worker with its own copy of each entry it
    shares (pickle keeps the sharing inside one chunk), so entries are
    matched by id first and by value once per copy.  Every copy was alive
    when this began and none is made here, so no id a lookup meets is reused.
    """
    by_value: dict[LocalRamification, LocalRamification] = {}
    by_id: dict[int, LocalRamification] = {}
    for f, ram in rams.items():
        shared = []
        for loc in ram:
            one = by_id.get(id(loc))
            if one is None:
                one = by_id[id(loc)] = by_value.setdefault(loc, loc)
            shared.append(one)
        rams[f] = tuple(shared)


def enumerate_cubic(x: int, workers: int = 1) -> FieldList:
    """All S_3 cubic fields over Q with |disc| <= x, both signatures.

    Fields of equal discriminant are ordered by canonical form.
    """
    global _spf, _entries
    if x < 1:
        raise ValueError("x must be >= 1")
    tasks = [(x, +1, [a]) for a in range(1, _amax_pos(x) + 1)]
    tasks += [(x, -1, [a]) for a in range(1, _amax_neg(x) + 1)]
    discs: dict[Form, int] = {}
    rams: dict[Form, tuple[LocalRamification, ...]] = {}
    _spf, _entries = spf_table(x), {}
    try:
        for chunk_discs, chunk_rams in pmap(_collect_chunk, tasks, workers):
            discs.update(chunk_discs)
            rams.update(chunk_rams)
    finally:
        _spf = _entries = None
    if workers > 1:
        _reintern(rams)
    records = [
        FieldRecord(
            degree=3,
            group_label="S3",
            abs_disc=abs(discs[f]),
            ramification=rams[f],
            disc_sign=1 if discs[f] > 0 else -1,
        )
        for f in sorted(discs, key=lambda f: (abs(discs[f]), discs[f] > 0, f))
    ]
    return FieldList(records=tuple(records), provenance="enumerated", x_max=x)
