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

and the coefficient bounds used by the search:

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
integers.  The window only drops forms that the exact scalar test
_neg_reduced rejects (at X = 1e5 there are 79,419 d rows instead of
333,867); _neg_reduced is an oracle, which only the tests call.

Search bounds.  The search takes these bounds at |D| <= X in integers.  An
integer n >= 0 has n^k <= t for a real t exactly when n <= iroot(floor(t), k),
so no root is ever rounded the wrong way.  With s = iroot(16X // 3, 4), the
floor of 2 (X/3)^(1/4), and m = isqrt(16X // 3), the floor of 4 sqrt(X/3):

    disc > 0:  a <= iroot(16X // 729, 4),  2b - 3a <= iroot(16X, 4),
               0 < P <= isqrt(X),  |Q| <= P <= R;
    disc < 0:  a <= iroot(16X // 27, 4),   2b - 3a <= s,
               4a|c| <= 3a^2 + 2a(s + 1) + m,

the last because 4a|c| <= 3a^2 + 4a (X/3)^(1/4) + 4 sqrt(X/3), which is
below 3a^2 + 2a(s + 1) + m + 1.

Arrays.  Each task of enumerate_cubic takes one (sign, a) and works on int64
numpy arrays.  The (b, c) grid of the bounds above is expanded over its d
window with np.repeat, and every stage below filters the rows by exact
integer tests.  As a function of d, disc = -27a^2 d^2 + a1 d + a0 with
a1 = 18abc - 4b^3 and a0 = b^2 c^2 - 4ac^3, and the d window of each (b, c)
is two segments: the integers strictly between the roots of disc(d) = h,
with h = X for disc > 0 and h = 0 for disc < 0, are cut out, so that only
d with disc > h are dropped.  For disc > 0 the window is |Q| <= P and, when
b > 0, 3bd <= c^2 - P (that is R >= P); for disc < 0 it is the Re phi window
cut to disc >= -X.  Only two things stay per form: the exact rational-root
test, for the forms the certificate below cannot decide, and canonical_form
on the boundary of the positive domain.  numpy is imported inside these
functions, on the first enumeration, so importing this module does not load
it.  A task returns its canonical forms, their discs,
their entries' codes and each form's entry count.  The parent sorts and
dedups them and makes the FieldList's columns straight from the sorted
arrays: |disc|, sign, row offsets, and the np.unique codes of the rows'
entries, as entry ids and decoded into entry columns.  It builds no record
and no entry; the list checks its columns once (see `records`).

int64.  Every intermediate of the array code is bounded through the search
bounds, each increasing in X, so it is enough to bound them at
X = 2^31 - 1, the largest x that `spf_table` (numpy int32) can index;
enumerate_cubic refuses larger x before it allocates anything.  There
s = 327, m = 107,019 and isqrt(X) = 46,340.  The maxima below are over
the a of the search, each bound taken at the largest b and |c| for that a.

- disc < 0: a <= 188, b <= B = (3a + s) // 2, |c| <= C = the c bound above.
  The window ends and with them |d| are at most (a + B)(a + B + C) / a <=
  4.5e6.  a1 = 18abc - 4b^3 and a0 = b^2 c^2 - 4ac^3 have |a1| <= 18aBC + 4B^3
  <= 1.03e9 and |a0| <= B^2 C^2 + 4aC^3 <= 9.8e13, so the d quadratic
  a1^2 + 4 * 27a^2 (a0 + X) is at most 1.47e18 < 2^61; its exact isqrt is a
  float root corrected by one in each direction, exact below 2^62.  Every
  term of disc = a0 + d (a1 - 27a^2 d) is below 1.1e15, and the cubic in d of
  the |phi| >= 1 test, h = d k with k = a^2 - ac + bd - d^2, is decided by the
  sign of k (|k| <= 2.1e13) and of d, so h itself is never formed.
- disc > 0: a <= 82, b <= (3a + 430) // 2 <= 338, 3a|c| <= max(b^2, 46,340)
  and 9a|d| <= b|c| + 46,340, so every term of disc is below 6.9e13,
  |a1| <= 3.9e8, |a0| <= 2.7e13, c^2 - P <= 2.5e8, and the cut's quadratic
  a1^2 + 4 * 27a^2 (a0 - X) is at most 2e17.
- The Hessian of these rows has |P| <= 4.6e5, |Q| <= 4.5e7 and |R| <= 3e9.
- F(x0, y0) mod p^2, with p^2 | disc so p^2 <= X < 2^31: the coefficients
  are reduced mod p^2 and F is evaluated by Horner steps, each a sum of two
  products of residues mod p^2, so below 2^63.
- A local entry is coded as (p * 64 + v_p) * 2 + triple, below 2^38.

Irreducibility.  A form with no root in P^1(F_p) has no rational root.  For
p = 5, 7, 11, 13 and 17 a p^4-entry uint8 array marks the forms mod p with
no root in P^1(F_p), [1:0] (that is, p | a) counted as a root; the tables are
built once per process, on first use, in numpy: ones, less the a = 0 block,
less one scatter that clears the d = -(a r^3 + b r^2 + c r) entry for every
a != 0, b, c and root r.  Only _irreducible reads them: it indexes them with
a task's rows mod p.  A form with d = 0 has the root [0:1].  Every
other form no table marks, which every reducible form with d != 0 is (at
X = 1e5, 6,434 forms of the 40,567 candidates with non-square disc, 3,411 of
them irreducible, and 1,932 more have d = 0; at 1e6, 67,585 forms, 18,027 of
them reducible), goes to a certificate by columns (`_certificate`), as in
Belabas' cubic field search: for a != 0, F has a rational root exactly when
the monic h(u) = u^3 + b u^2 + ac u + a^2 d has an integer root (u = a x/y).
Floats propose the real roots of h, by Viete's closed form (a cosine for
each of the 3 roots when disc > 0, a real cube root for the one root when
disc < 0; disc(h) = a^2 disc(F)), and h is evaluated exactly in int64 at
n = floor(r) and n + 1 for each proposed root r, where a float sum of the
magnitudes of the terms bounds every intermediate below 2^62.  A zero proves
the form reducible.  A strict sign change in 3 distinct cells (n, n + 1) when
disc > 0, or in the one cell when disc < 0, proves it irreducible, as each
root then lies strictly inside its cell.  Only the rest go to
is_irreducible, the exact rational-root test alone (roots x/y with y | a and
x | d): forms past the bound, with disc = 0, or whose cells do not match.
No form of the search at 1e5, 1e6 or 1e7 is one of them.  The screens stay as
they are cheaper than the certificate: at 1e6 screening all 431,144 forms
with d != 0 and certifying the 67,585 they leave took 65 ms, against 152 ms
to certify them all.

Maximality.  R(F) is non-maximal at p iff p divides the content of F, or F
mod p has a multiple root [x0:y0] in P^1(F_p) with p^2 | F(x0, y0) (the value
at a lift is well defined mod p^2 because the gradient vanishes at a multiple
root, and scaling by a unit keeps p^2 | F).  Only primes with p^2 | D can
fail.  When p | D and p does not divide the content, F mod p has exactly one
multiple root, double or triple, and `_multiple_roots` finds it row by row:

- p >= 5: the Hessian decides.  If p | P, Q, R then F mod p is a cube: if a
  is a unit mod p, P = Q = R = 0 forces F = a (x + b y/(3a))^3, the root
  [-b:3a], and if p | a then P = b^2 and R = c^2 force F = d y^3, the root
  [1:0].  Otherwise the root is double, and H = P (x - r y)^2 mod p when it
  is [r:1], so it is [-Q:2P], or [1:0] when p | P.
- p = 2, 3: the multiple root is the one common zero of F_x and F_y mod p.
  Mod 2 they are (ax + cy)^2 and (bx + dy)^2, so the root is [c:a], or
  [d:b] when 2 | a, c.  Mod 3 they are y (2bx + cy) and x (bx + 2cy), so
  the root is [c:b], or, when 3 | b, c and F = (ax + dy)^3, [-d:a].  The
  Hessian decides triple here too.

is_maximal runs the same code on one row of object arrays, so a form of any
size is decided exactly.

Factoring.  Every |disc| <= x is factored from one smallest-prime-factor
table over [0, x] (numpy int32, 4 bytes an entry), built once per
enumerate_cubic call; forked workers inherit it, spawned workers build their
own once.  A task indexes it directly and factors all its discs in
rounds: each round takes the smallest prime p left in every disc, divides p
out as often as it goes, and emits one row (form, p, v_p).  Sorted stably by
form, the rows of each form come in ascending p.

Local data.  For a maximal form, p ramifies exactly when p | disc, and p is
totally ramified (e = 3) exactly when F mod p is a cube, that is when the
multiple root of F mod p is triple: the same rule as for maximality, at
every p.  If v_p(D) = 1 then e = 2 with no root to find: were F mod p a cube,
a unimodular change of variables (which keeps D) would move its root to
[1:0], making p | a, b, c, and every term of
D = 18abcd + b^2c^2 - 4ac^3 - 4b^3d - 27a^2d^2 has two of those factors, so
p^2 | D.  So only the rows with v_p(D) >= 2 look for the multiple root, and
they decide both maximality and e; a form with a failing row is dropped
with all its rows.  The entry at p is wild where p | e, else tame with
exponent v_p(D), which only the entry rules check (against ind of the cycle
type).  It depends only on (p, v_p(disc), e), so a row carries it as one
integer code, and the parent decodes the distinct codes straight into the
list's entry columns (`_code_columns`; at 1e5, 4,367 entries for the 55,341
entry slots of 21,794 fields), for any worker count.

Mirror pairs.  The mirror (a, b, c, d) -> (a, -b, c, -d), i.e. F(x, -y), is
in the class of F and keeps disc.  It maps each reduced set to itself: for
disc > 0 the Hessian goes from (P, Q, R) to (P, -Q, R); for disc < 0 the roots
are negated, so phi goes to -conj(phi), which stays in the fundamental domain.
The b, c and d windows below are symmetric under (b, d) -> (-b, -d).  So the
search takes b >= 0 only, and d >= 1 when b = 0 (d = 0 is reducible): one
form of each mirror pair, half the forms to test for the same fields.

Canonical forms.  Every form the search keeps is already reduced, with
a > 0, b >= 0, and d >= 1 when b = 0; its canonical form is the least of
a few images of it:

- disc < 0: the least of F and its mirror, which is the mirror
  (a, -b, c, -d): -b < b when b > 0, and -d < d when b = 0;
- disc > 0 with |Q| < P < R: the least of +-F and +-mirror; -F and
  -mirror start with -a < a, and -F = (-a, -b, -c, -d) is below
  (-a, b, -c, d) by the same comparison, so it is -F;
- disc > 0 on the boundary (|Q| = P or P = R): other reduced forms of the
  class exist, and canonical_form takes the least of +-g over the reduced
  images g of F under the matrices with entries in {-1, 0, 1} (112 forms at
  1e5).  It takes only Hessian-reduced forms: nothing here reduces a form.

Forms of one class found more than once (only on that boundary) meet
after the parent's sort on (|disc|, disc > 0, canonical form), and the
first of each run is kept.
"""

from __future__ import annotations

from functools import cache
from math import gcd, isqrt

from ..arith import SIEVE_LIMIT, divisors, factor, iroot, spf_table
from ..permgroup import CycleType
from ..util import pmap
from .records import FieldList, _offsets

__all__ = ["disc_form", "hessian", "enumerate_cubic", "canonical_form"]

Form = tuple[int, int, int, int]


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


def canonical_form(f: Form) -> Form:
    """Canonical representative of the class of a Hessian-reduced form (disc > 0).

    The least of +-g over the images g = transform(f, m), m in _SMALL_MATS,
    that are again reduced (classical fact: equivalences between reduced
    positive definite quadratic forms have entries <= 1, so these are all the
    reduced forms of the class).  ValueError unless |Q| <= P <= R, which
    forces disc > 0 since 3 disc = 4PR - Q^2 >= 3P^2.
    """
    if not _hessian_reduced(f):
        raise ValueError("canonical_form takes a Hessian-reduced form (|Q| <= P <= R)")
    return min(
        s
        for g in (transform(f, m) for m in _SMALL_MATS)
        if _hessian_reduced(g)
        for s in (g, tuple(-x for x in g))
    )


# -- negative discriminant domain -------------------------------------------

def _neg_reduced(f: Form) -> bool:
    """Exact fundamental-domain test for disc < 0, a > 0 forms (an oracle).

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


# -- irreducibility ----------------------------------------------------------

_SCREEN_PRIMES = (5, 7, 11, 13, 17)


@cache
def _no_root_tables() -> tuple:
    """(p, table) for the screen primes, each table a uint8 array, built on first
    use (not at import).

    table[((a p + b) p + c) p + d] is 1 when F = (a, b, c, d) mod p has no
    root in P^1(F_p), [1:0] included.  Forked workers inherit the tables
    once built.
    """
    return tuple((p, _no_root_table(p)) for p in _SCREEN_PRIMES)


def _no_root_table(p: int):
    import numpy as np

    a, b, c, r = np.ogrid[1:p, :p, :p, :p]
    table = np.ones((p, p, p, p), np.uint8)
    table[0] = 0  # a = 0: root [1:0]
    # F(r, 1) = 0 exactly at d = -(a r^3 + b r^2 + c r)
    table[a, b, c, -(((a * r + b) * r + c) * r) % p] = 0
    return table.ravel()


def _eval_form(f: Form, x: int, y: int) -> int:
    a, b, c, d = f
    return a * x**3 + b * x**2 * y + c * x * y**2 + d * y**3


def is_irreducible(f: Form) -> bool:
    """No rational root [x:y]: a != 0, d != 0 and no x/y with y | a and x | d a root.

    The exact test alone; the search screens its forms with the root tables
    first (`_irreducible`).
    """
    a, b, c, d = f
    if a == 0 or d == 0:
        return False  # root [1:0] or [0:1]
    d_divisors = divisors(abs(d))
    for q in divisors(abs(a)):
        for p in d_divisors:
            if gcd(p, q) != 1:
                continue
            if _eval_form(f, p, q) == 0 or _eval_form(f, -p, q) == 0:
                return False
    return True


# -- maximality and local data ----------------------------------------------

def _multiple_roots(f, p):
    """(x0, y0, triple) arrays: the multiple root [x0:y0] of each F mod p, and whether it is triple.

    Row by row over the forms f = (a, b, c, d) (four arrays) and the primes
    p; assumes p | disc(F) and p does not divide the content of F.
    """
    import numpy as np

    a, b, c, d = f
    hp, hq, hr = hessian(f)
    double = hp % p != 0
    cube = ~double & (hq % p == 0) & (hr % p == 0)
    finite = cube & (a % p != 0)
    # p = 2, 3: the one common zero of F_x and F_y mod p
    even = (a % 2 == 0) & (c % 2 == 0)
    flat = (b % 3 == 0) & (c % 3 == 0)
    cases = [p == 2, p == 3, double, finite]
    x0 = np.select(cases, [np.where(even, d, c), np.where(flat, -d, c), -hq, -b], 1) % p
    y0 = np.select(cases, [np.where(even, b, a), np.where(flat, a, b), 2 * hp, 3 * a], 0) % p
    return x0, y0, cube


def _local_rows(f, p, v):
    """(not maximal, triple) per row (F, p, v) with p^v || disc(F) and p not dividing the content of F."""
    import numpy as np

    bad, triple = np.zeros(p.size, bool), np.zeros(p.size, bool)
    rows = np.flatnonzero(v >= 2)
    f = tuple(x[rows] for x in f)
    p = p[rows]
    x0, y0, triple[rows] = _multiple_roots(f, p)
    # F(x0, y0) mod p^2 by Horner steps on residues mod p^2 (y0^2 < p^2)
    q = p * p
    a, b, c, d = (x % q for x in f)
    y2 = y0 * y0
    val = (a * x0 + b * y0) % q
    val = (val * x0 + c * y2) % q
    bad[rows] = (val * x0 + d * (y2 * y0 % q)) % q == 0
    return bad, triple


def _factor_rows(n, spf):
    """(i, p, v), one row per prime p^v || n[i], the rows of each i in ascending p.

    `n` is an int64 array of values >= 1 that the smallest-prime-factor
    table `spf` covers.
    """
    import numpy as np

    empty = np.zeros(0, np.int64)
    out = [(empty, empty, empty)]
    i = np.flatnonzero(n > 1)
    n = n[i]
    while i.size:
        p = spf[n].astype(np.int64)
        v = np.zeros_like(n)
        divides = np.ones(n.size, bool)
        while divides.any():
            n = np.where(divides, n // p, n)
            v += divides
            divides = n % p == 0
        out.append((i, p, v))
        left = n > 1
        i, n = i[left], n[left]
    i, p, v = (np.concatenate(col) for col in zip(*out))
    order = np.argsort(i, kind="stable")
    return i[order], p[order], v[order]


def _entry_code(p, v, triple):
    """The entry key (p, v_p(disc), triple) as one integer, (p * 64 + v) * 2 + triple."""
    return (p * 64 + v) * 2 + triple


def _code_columns(codes):
    """The entry columns p, exponent, type index and local types of these `_entry_code`s:
    wild where p = e (3 if triple, else 2), labelled "<p>-e<e>-v<v>", else of type (2, 1) or (3)."""
    import numpy as np

    p, v, triple = codes >> 7, (codes >> 1) & 63, codes & 1
    wild = np.flatnonzero(p == 2 + triple)
    type_ids = triple.astype(np.int32)
    type_ids[wild] = 2 + np.arange(wild.size)
    labels = [f"{q}-e{q}-v{w}" for q, w in zip(p[wild].tolist(), v[wild].tolist())]
    return p, v, type_ids, (CycleType.from_parts((2, 1)), CycleType.from_parts((3,)), *labels)


def is_maximal(f: Form) -> bool:
    """True when the cubic ring of F is maximal (p-maximal at every p).

    The forms of the search are decided by the same code, on int64 rows.
    """
    import numpy as np

    if gcd(*f) != 1:
        return False
    fac = factor(abs(disc_form(f)))
    p, v = np.array(list(fac), dtype=object), np.array(list(fac.values()), dtype=object)
    rows = tuple(np.full(p.size, x, dtype=object) for x in f)
    return not _local_rows(rows, p, v)[0].any()


# -- enumeration -------------------------------------------------------------

X_LIMIT = SIEVE_LIMIT  # x above it refused: the int64 bounds above are proved at it


def _ranges(lo, hi):
    """(i, v) for every row i and every integer v in [lo[i], hi[i]], in row order."""
    import numpy as np

    n = np.maximum(hi - lo + 1, 0)
    i = np.repeat(np.arange(n.size), n)
    return i, np.arange(i.size) + np.repeat(lo - (np.cumsum(n) - n), n)


def _isqrt(n):
    """isqrt of each entry of an int64 array with 0 <= n < 2^62: a float root corrected by one."""
    import numpy as np

    r = np.sqrt(n).astype(np.int64)
    r -= r * r > n
    r += (r + 1) * (r + 1) <= n
    return r


def _outside_middle(lo, hi, a2: int, a1, a0, h: int):
    """(i, d) for every row i and integer d in [lo[i], hi[i]] but those where the middle cut drops.

    The cut is the integers strictly between the roots of
    -a2 d^2 + a1 d + a0 = h, with the root isqrt taken exactly, so only d
    with -a2 d^2 + a1 d + a0 > h are dropped.  Each row gives two segments.
    """
    import numpy as np

    z = a1 * a1 + 4 * a2 * (a0 - h)
    zq = _isqrt(np.maximum(z, 0))
    middle = z >= 0
    hi1 = np.where(middle, np.minimum((a1 - zq) // (2 * a2), hi), hi)
    lo2 = np.where(middle, np.maximum(-((-(a1 + zq)) // (2 * a2)), lo), hi + 1)
    i, d = _ranges(np.concatenate((lo, lo2)), np.concatenate((hi1, hi)))
    return i % lo.size, d


def _pos_candidates(x: int, a: int):
    """(b, c, d, disc) arrays: the Hessian-reduced (a, b, c, d) with 0 < disc <= x, one per mirror pair."""
    import numpy as np

    b = np.arange((3 * a + iroot(16 * x, 4)) // 2 + 1)
    # c window from 0 < P <= sqrt(X)
    i, c = _ranges(-((isqrt(x) - b * b) // (3 * a)), (b * b - 1) // (3 * a))
    b = b[i]
    p, bc = b * b - 3 * a * c, b * c
    # d window from |Q| <= P, and d >= 1 when b = 0; for b > 0, R >= P says
    # 3bd <= c^2 - P.  disc(d) = -a2 d^2 + a1 d + a0, less the middle where
    # disc > x
    d_lo = np.where(b > 0, -((p - bc) // (9 * a)), 1)
    d_hi = (bc + p) // (9 * a)
    d_hi = np.where(b > 0, np.minimum(d_hi, (c * c - p) // np.maximum(3 * b, 1)), d_hi)
    a1, a0 = 18 * a * bc - 4 * b**3, b * b * c * c - 4 * a * c**3
    i, d = _outside_middle(d_lo, d_hi, 27 * a * a, a1, a0, x)
    b, c = b[i], c[i]
    keep = c * c - 3 * b * d >= p[i]
    b, c, d = b[keep], c[keep], d[keep]
    dsc = disc_form((a, b, c, d))
    keep = (0 < dsc) & (dsc <= x)
    return b[keep], c[keep], d[keep], dsc[keep]


def _neg_candidates(x: int, a: int):
    """(b, c, d, disc) arrays: the fundamental-domain-reduced (a, b, c, d) with -x <= disc < 0, one per mirror pair."""
    import numpy as np

    m, s = isqrt(16 * x // 3), iroot(16 * x // 3, 4)
    cmax = (3 * a * a + 2 * a * (s + 1) + m) // (4 * a)
    nb, nc = (3 * a + s) // 2 + 1, 2 * cmax + 1
    b = np.repeat(np.arange(nb), nc)
    c = np.tile(np.arange(-cmax, cmax + 1), nb)
    # |Re phi| <= 1/2: -(a - b)(a - b + c)/a <= d <= (a + b)(a + b + c)/a
    w_lo = -((a - b) * (a - b + c) // a)
    w_lo = np.where(b > 0, w_lo, np.maximum(w_lo, 1))
    w_hi = (a + b) * (a + b + c) // a
    # disc(d) = -a2 d^2 + a1 d + a0; live window where -x <= disc
    a2 = 27 * a * a
    a1 = 18 * a * b * c - 4 * b**3
    a0 = b * b * c * c - 4 * a * c**3
    q = a1 * a1 + 4 * a2 * (a0 + x)
    live = (w_lo <= w_hi) & (q >= 0)
    b, c, w_lo, w_hi, a1, a0, q = (col[live] for col in (b, c, w_lo, w_hi, a1, a0, q))
    sq = _isqrt(q)
    d_lo = np.maximum(-((sq - a1) // (2 * a2)), w_lo)
    d_hi = np.minimum((a1 + sq) // (2 * a2), w_hi)
    # less the middle, where disc > 0
    i, d = _outside_middle(d_lo, d_hi, a2, a1, a0, 0)
    b, c = b[i], c[i]
    dsc = a0[i] + d * (a1[i] - a2 * d)
    keep = (-x <= dsc) & (dsc < 0)
    b, c, d, dsc = b[keep], c[keep], d[keep], dsc[keep]
    # |phi| >= 1: h = d k with k = a^2 - ac + bd - d^2 must be >= 0 for d < 0
    # and <= 0 for d >= 0, that is k <= 0 unless d = 0
    keep = (d == 0) | (a * a - a * c + b * d - d * d <= 0)
    return b[keep], c[keep], d[keep], dsc[keep]


def _amax_pos(x: int) -> int:
    return iroot(16 * x // 729, 4)


def _amax_neg(x: int) -> int:
    return iroot(16 * x // 27, 4)


def _irreducible(f):
    """Mask of the irreducible rows among forms with a != 0."""
    import numpy as np

    a, b, c, d = f
    marked = np.zeros(b.size, bool)
    for p, table in _no_root_tables():
        marked |= table[((a % p * p + b % p) * p + c % p) * p + d % p] != 0
    # the rest, but those with the root [0:1], by the certificate, and the rows
    # it leaves by the exact test
    rest = np.flatnonzero(~marked & (d != 0))
    marked[rest], decided = _certificate(tuple(x[rest] for x in f))
    rest = rest[~decided]
    marked[rest] = [is_irreducible(g) for g in zip(*(x[rest].tolist() for x in f))]
    return marked


# a float sum of magnitudes below it bounds every int64 intermediate it covers
_INT64_SAFE = 2.0**62


def _certificate(f):
    """(irreducible, decided) masks of forms with a, d != 0, from h(u) = u^3 + b u^2 + ac u + a^2 d.

    F has a rational root exactly when h has an integer root (u = a x / y);
    h has disc a^2 disc(F), so 3 distinct real roots when disc(F) > 0 and
    one when disc(F) < 0.  Floats propose the real roots r (Viete's closed
    form), and h is evaluated exactly in int64 at n = floor(r) and n + 1: a
    zero decides the row reducible, and a strict sign change in 3 distinct
    cells (n, n + 1) when disc > 0, or in the one cell when disc < 0, decides
    it irreducible, as every root then lies strictly inside a cell.  A row
    whose disc terms or h values might leave int64, with disc = 0, or whose
    cells do not match is left undecided.  With d != 0, a disc term below
    2^62 bounds every partial product that forms it, and every coefficient.
    """
    import numpy as np

    ma, mb, mc, md = (np.abs(x.astype(float)) for x in f)
    terms = (18 * ma * mb * mc * md + mb * mb * mc * mc + 4 * ma * mc**3 + 4 * mb**3 * md
             + 27 * ma * ma * md * md)
    ok = terms < _INT64_SAFE
    a, b, c, d = (np.where(ok, x, 1) for x in f)
    sign = np.sign(disc_form((a, b, c, d)))
    ac, aad = a * c, a * a * d
    with np.errstate(all="ignore"):
        n = np.floor(_real_roots(b, ac, aad, sign))
        fb, fac, faad = (np.abs(x.astype(float))[:, None] for x in (b, ac, aad))
        big = np.maximum(np.abs(n), np.abs(n + 1))
        mag = ((big + fb) * big + fac) * big + faad
    probed = (mag < _INT64_SAFE) & ok[:, None]  # nan compares False
    n = np.where(probed, n, 0).astype(np.int64)
    h0, h1 = (np.sign(((u + b[:, None]) * u + ac[:, None]) * u + aad[:, None]) for u in (n, n + 1))
    zero = (probed & ((h0 == 0) | (h1 == 0))).any(axis=1)
    change = probed & (h0 * h1 < 0)
    distinct = (n[:, 0] != n[:, 1]) & (n[:, 0] != n[:, 2]) & (n[:, 1] != n[:, 2])
    irreducible = ~zero & np.where(sign > 0, change.all(axis=1) & distinct,
                                   (sign < 0) & change[:, 0])
    return irreducible, zero | irreducible


def _real_roots(b, ac, aad, sign):
    """Float proposals for the real roots of h = u^3 + b u^2 + ac u + aad, one row per h.

    Three per row where sign (of disc) > 0, by Viete's cosines; one, in the
    first column, where sign < 0, by Cardano with the cube root taken where no
    terms cancel; nan elsewhere.  Only proposals: the caller decides exactly.
    """
    import numpy as np

    # u = t - b/3 with t^3 + s t + q = 0
    fb, fac, faad = b.astype(float), ac.astype(float), aad.astype(float)
    s = fac - fb * fb / 3
    q = (2 * fb * fb / 27 - fac / 3) * fb + faad
    t = np.full((b.size, 3), np.nan)
    three, one = sign > 0, sign < 0
    s3, q3, s1, q1 = s[three], q[three], s[one], q[one]
    m = 2 * np.sqrt(-s3 / 3)  # s < 0 here: t = m cos(theta - 2 pi k / 3)
    theta = np.arccos(np.clip(3 * q3 / (s3 * m), -1, 1)) / 3
    t[three] = m[:, None] * np.cos(theta[:, None] - 2 * np.pi / 3 * np.arange(3))
    w = np.cbrt(-q1 / 2 - np.copysign(np.sqrt(q1 * q1 / 4 + s1**3 / 27), q1))
    t[one, 0] = w - s1 / (3 * w)
    return t - fb[:, None] / 3


# The smallest-prime-factor table (numpy int32) of the running enumerate_cubic.
# pmap has no per-worker set-up, and a table passed with each task would be
# pickled once per task: forked workers inherit it, spawned workers build their
# own once.  It only saves work; _collect_chunk checks that the table covers x.
_spf = None


def _collect_chunk(args):
    """(forms, discs, codes, counts) for the S_3 fields of the task (x, sign, a).

    forms is an (n, 4) array of canonical forms and discs their discs;
    codes holds the `_entry_code`s of the forms in turn, counts[k] of them
    for form k, in ascending p.
    """
    import numpy as np

    global _spf
    x, sign, a = args
    if _spf is None or len(_spf) <= x:
        _spf = spf_table(x)
    b, c, d, dsc = (_pos_candidates if sign > 0 else _neg_candidates)(x, a)
    if sign > 0:
        keep = _isqrt(dsc) ** 2 != dsc  # cyclic cubic (Galois <=> square disc)
        b, c, d, dsc = b[keep], c[keep], d[keep], dsc[keep]
    f = (np.full_like(b, a), b, c, d)
    keep = _irreducible(f)
    keep[keep] = np.gcd(np.gcd(a, b[keep]), np.gcd(c[keep], d[keep])) == 1
    f, dsc = tuple(x[keep] for x in f), dsc[keep]
    i, p, v = _factor_rows(np.abs(dsc), _spf)
    bad, triple = _local_rows(tuple(x[i] for x in f), p, v)
    # a form with a failing row is not maximal: drop it with all its rows
    keep = np.ones(dsc.size, bool)
    keep[i[bad]] = False
    f, dsc = tuple(x[keep] for x in f), dsc[keep]
    rows = keep[i]
    codes = _entry_code(p[rows], v[rows], triple[rows])
    counts = np.bincount(i[rows], minlength=keep.size)[keep]
    del i, p, v, bad, triple, rows, keep
    forms = np.stack(f, axis=1)
    # canonical forms: the mirror for disc < 0, -F inside the positive domain
    if sign < 0:
        forms[:, 1::2] *= -1
    else:
        hp, hq, hr = hessian(f)
        inside = (np.abs(hq) < hp) & (hp < hr)
        forms[inside] *= -1
        edge = np.flatnonzero(~inside)
        if edge.size:
            forms[edge] = [canonical_form(g) for g in map(tuple, forms[edge].tolist())]
    return forms, dsc, codes, counts


def enumerate_cubic(x: int, workers: int = 1) -> FieldList:
    """All S_3 cubic fields over Q with |disc| <= x, both signatures, for 1 <= x <= X_LIMIT.

    Fields of equal discriminant are ordered by canonical form.
    """
    global _spf
    if x < 1:
        raise ValueError("x must be >= 1")
    if x > X_LIMIT:
        raise ValueError(f"x must be <= {X_LIMIT} (2^31 - 1), the int64 bound of the search")
    import numpy as np

    tasks = [(x, +1, a) for a in range(1, _amax_pos(x) + 1)]
    # a = 1 always, so that at x = 1 one empty chunk gives the list's columns
    tasks += [(x, -1, a) for a in range(1, max(_amax_neg(x), 1) + 1)]
    _spf = spf_table(x)
    try:
        chunks = pmap(_collect_chunk, tasks, workers)
    finally:
        _spf = None
    forms, discs, codes, counts = map(np.concatenate, zip(*chunks))
    del chunks
    order = np.lexsort((*forms.T[::-1], discs > 0, np.abs(discs)))
    # one field per run of equal canonical forms
    forms = forms[order]
    first = np.ones(order.size, bool)
    first[1:] = (forms[1:] != forms[:-1]).any(axis=1)
    order = order[first]
    del forms
    ends = np.cumsum(counts)
    _, rows = _ranges((ends - counts)[order], ends[order] - 1)  # their rows, in order
    codes, entry_ids = np.unique(codes[rows], return_inverse=True)
    discs = discs[order]
    return FieldList.from_columns(
        "enumerated", x, np.abs(discs), np.sign(discs).astype(np.int8), (3, "S3"),
        _offsets(counts[order]), entry_ids.astype(np.int32), *_code_columns(codes),
    )
