"""Independent cubic-field search by monic polynomials (the oracle route).

Every cubic field K with |d_K| <= X has a generator alpha in O_K \\ Z with
trace in {0, 1} and sum of |conjugate|^2 at most tr^2/3 + (2/3) sqrt(|d_K|)
(Hunter's bound with the planar Hermite constant 2/sqrt(3); degree 3 is
prime, so any alpha not in Z generates).  That puts the minimal polynomial
x^3 - s1 x^2 + s2 x - s3 inside an explicit integer box.

The field discriminant of a defining polynomial is computed by local
analysis at every prime whose square divides the polynomial discriminant:

  * find certified p-adic roots by breadth-first refinement (a residue r
    with v(f(r)) > 2 v(f'(r)) Hensel-lifts; any true root certifies by depth
    v_p(disc f) + 3 because v(f'(root)) is at most half the disc valuation);
  * one root: deflate and read the quadratic factor's valuation from
    D = B^2 - 4C (p odd: t odd -> 1, else 0; p = 2: t odd -> 3, else u = D/2^t
    with u = 1 mod 4 -> 0, u = 3 mod 4 -> 2);
  * no root and f irreducible mod p: unramified, 0;
  * no root otherwise: totally ramified, exponent 2 for p != 3; for p = 3 an
    Eisenstein-reduction loop (shift the triple root to 0; scale x -> 3x when
    all root valuations reach 1, dropping the disc valuation by 6; stop when
    v(c0) is 1, returning v_3(disc), or 2, returning v_3(disc) - 2 via the
    reversal x -> 3/x).

Fields are deduplicated by root matching: same field disc, solve the 3x3
conjugate system numerically for beta = c0 + c1 alpha + c2 alpha^2, round
the c_i to denominators dividing the index, and verify the candidate map
exactly in rational arithmetic.  Everything here is deliberately disjoint
from the binary-form machinery it cross-checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import isqrt

import numpy as np

__all__ = ["cubic_fields_by_polynomials", "field_disc_of_cubic", "local_disc_exponent"]

Poly = tuple[int, int, int]  # (p2, p1, p0) for x^3 + p2 x^2 + p1 x + p0


def _disc_monic_cubic(p2: int, p1: int, p0: int) -> int:
    return (
        18 * p2 * p1 * p0
        - 4 * p2**3 * p0
        + p2 * p2 * p1 * p1
        - 4 * p1**3
        - 27 * p0 * p0
    )


def _vp(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _feval(poly: Poly, x: int) -> int:
    p2, p1, p0 = poly
    return ((x + p2) * x + p1) * x + p0


def _fprime(poly: Poly, x: int) -> int:
    p2, p1, _ = poly
    return (3 * x + 2 * p2) * x + p1


def _padic_roots(poly: Poly, p: int, vdisc: int, prec: int) -> list[int]:
    """Certified roots of poly in Z_p, returned mod p^prec.

    Certification never prunes a branch: several roots can share a residue
    until the depth separates them (the mod-p double root of a split prime).
    """
    depth_cap = vdisc + 3
    roots: list[int] = []
    level = [r for r in range(p) if _feval(poly, r) % p == 0]
    k = 1
    certified_res: set[int] = set()
    while level and k <= depth_cap:
        nxt = []
        for r in level:
            fr = _feval(poly, r)
            dfr = _fprime(poly, r)
            if dfr != 0:
                vdf = _vp(dfr, p)
                if _vp(fr, p) > 2 * vdf:  # fr != 0: no rational roots here
                    root = _newton_lift(poly, p, r, vdf, prec)
                    if root not in certified_res:
                        certified_res.add(root)
                        roots.append(root)
            pk1 = p ** (k + 1)
            for t in range(p):
                child = r + t * p**k
                if _feval(poly, child) % pk1 == 0:
                    nxt.append(child)
        level = nxt
        k += 1
    return roots


def _newton_lift(poly: Poly, p: int, r: int, vdf: int, prec: int) -> int:
    """Lift an approximation with v(f(r)) > 2 v(f'(r)) to f(r) = 0 mod p^(prec + 2 vdf)."""
    target = p ** (prec + 2 * vdf)
    for _ in range(64):
        fr = _feval(poly, r) % target
        if fr == 0:
            break
        dfr = _fprime(poly, r)
        unit = dfr // p**vdf
        inv = pow(unit % target, -1, target)
        r = (r - fr // p**vdf * inv) % target
    return r % p**prec


def _quad_disc_val(b: int, c: int, p: int, prec: int) -> int:
    """Disc valuation of the quadratic etale algebra x^2 + bx + c over Q_p."""
    dg = (b * b - 4 * c) % p**prec
    if dg == 0:
        raise ArithmeticError("insufficient precision for quadratic valuation")
    t = _vp(dg, p)
    if t >= prec - 3:
        raise ArithmeticError("insufficient precision for quadratic valuation")
    if p != 2:
        return 1 if t % 2 == 1 else 0
    if t % 2 == 1:
        return 3
    u = (dg >> t) % 4
    return 0 if u == 1 else 2


def _irreducible_mod_p(poly: Poly, p: int) -> bool:
    """Cubic irreducible mod p iff it has no root mod p (p small here)."""
    return all(_feval(poly, r) % p for r in range(p))


def local_disc_exponent(poly: Poly, p: int) -> int:
    """v_p of the field discriminant of an irreducible monic cubic."""
    d = _disc_monic_cubic(*poly)
    vdisc = _vp(d, p)
    if vdisc == 0:
        return 0
    prec = vdisc + 8
    for attempt in range(3):
        try:
            return _local_disc_attempt(poly, p, vdisc, prec)
        except ArithmeticError:
            prec *= 2
    raise RuntimeError(f"local analysis failed at p={p} for {poly}")


def _local_disc_attempt(poly: Poly, p: int, vdisc: int, prec: int) -> int:
    roots = _padic_roots(poly, p, vdisc, prec)
    if len(roots) == 3:
        return 0
    if len(roots) == 1:
        theta = roots[0]
        mod = p**prec
        b = (poly[0] + theta) % mod
        c = (poly[1] + theta * b) % mod
        # remainder check: p0 + theta*c = 0 mod p^prec
        if (poly[2] + theta * c) % mod != 0:
            raise ArithmeticError("deflation remainder nonzero; raise precision")
        return _quad_disc_val(b, c, p, prec)
    if len(roots) != 0:
        raise RuntimeError(f"cubic with {len(roots)} certified p-adic roots at p={p}")
    # no Q_p-roots: unramified iff irreducible mod p
    if _irreducible_mod_p(poly, p):
        return 0
    return _no_root_triple_val(poly, p)


def _shift_poly(poly: Poly, r: int) -> Poly:
    """f(x + r) for monic cubic."""
    p2, p1, p0 = poly
    return (
        p2 + 3 * r,
        p1 + 2 * p2 * r + 3 * r * r,
        p0 + p1 * r + p2 * r * r + r**3,
    )


def _no_root_triple_val(poly: Poly, p: int) -> int:
    """Local disc valuation for a cubic with no Q_p roots, triple root mod p.

    Shift the triple root to 0.  If every root valuation is >= 1 (that is
    p | c2, p^2 | c1, p^3 | c0), x -> px rescales to an integral cubic
    generating the same Q_p algebra, which need not stay totally ramified
    (the triple root can hide an unramified or split algebra behind a
    non-maximal generator): re-run the full analysis.  Otherwise the Newton
    polygon is a pure segment of slope v(c0)/3 with 3 not dividing v(c0)
    (any integral or half-integral slope would give a Q_p root or a
    quadratic factor with a rational cofactor), so the field is totally
    ramified: tame exponent 2 for p != 3; for p = 3, v(c0) = 1 means the
    shifted polynomial is Eisenstein (disc valuation = field valuation) and
    v(c0) = 2 reverses through x -> 3/x to an Eisenstein model, costing 2.
    """
    r = next(r for r in range(p) if _feval(poly, r) % p == 0)
    poly = _shift_poly(poly, r)
    p2, p1, p0 = poly
    if p2 % p == 0 and p1 % p**2 == 0 and p0 % p**3 == 0:
        return local_disc_exponent((p2 // p, p1 // p**2, p0 // p**3), p)
    v0 = _vp(p0, p)
    if v0 % 3 == 0 or (p1 != 0 and 3 * _vp(p1, p) < 2 * v0) or (
        p2 != 0 and 3 * _vp(p2, p) < v0
    ):
        # impure or 3-divisible slope: forces a rational factor, which the
        # root search would have found
        raise RuntimeError("unexpected Newton polygon in the no-root branch")
    if p != 3:
        return 2
    if v0 == 1:
        return _vp(_disc_monic_cubic(*poly), 3)
    return _vp(_disc_monic_cubic(*poly), 3) - 2


def field_disc_of_cubic(poly: Poly) -> int:
    """Signed field discriminant of the field defined by an irreducible monic cubic."""
    d = _disc_monic_cubic(*poly)
    if d == 0:
        raise ValueError("polynomial has a repeated root")
    out = 1
    n = abs(d)
    # factor the polynomial discriminant
    fac = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    for p, v in sorted(fac.items()):
        out *= p ** (v if v == 1 else local_disc_exponent(poly, p))
    return out if d > 0 else -out


def _has_rational_root(poly: Poly) -> bool:
    p0 = poly[2]
    if p0 == 0:
        return True
    for r in _divisors(abs(p0)):
        if _feval(poly, r) == 0 or _feval(poly, -r) == 0:
            return True
    return False


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return out


def _poly_mul_mod(u, v, f_p2, f_p1, f_p0):
    """Multiply two degree<=2 rational polys modulo x^3 + p2 x^2 + p1 x + p0."""
    prod = [Fraction(0)] * 5
    for i, ui in enumerate(u):
        if ui:
            for j, vj in enumerate(v):
                prod[i + j] += ui * vj
    # reduce degree 4 then 3: x^3 = -(p2 x^2 + p1 x + p0)
    for deg in (4, 3):
        coef = prod[deg]
        if coef:
            prod[deg] = Fraction(0)
            prod[deg - 1] -= coef * f_p2
            prod[deg - 2] -= coef * f_p1
            prod[deg - 3] -= coef * f_p0
    return prod[:3]


def _is_root_map_exact(g: Poly, f: Poly, c: tuple[Fraction, Fraction, Fraction]) -> bool:
    """Check g(c0 + c1 x + c2 x^2) = 0 mod f(x) exactly."""
    f_p2, f_p1, f_p0 = (Fraction(t) for t in f)
    t1 = [Fraction(c[0]), Fraction(c[1]), Fraction(c[2])]
    t2 = _poly_mul_mod(t1, t1, f_p2, f_p1, f_p0)
    t3 = _poly_mul_mod(t2, t1, f_p2, f_p1, f_p0)
    g2, g1, g0 = (Fraction(t) for t in g)
    out = [
        t3[0] + g2 * t2[0] + g1 * t1[0] + g0,
        t3[1] + g2 * t2[1] + g1 * t1[1],
        t3[2] + g2 * t2[2] + g1 * t1[2],
    ]
    return all(v == 0 for v in out)


def _isomorphic(f: Poly, g: Poly, d_field: int) -> bool:
    """Exact isomorphism test for two cubics with the same field disc."""
    if f == g:
        return True
    ind_f = isqrt(_disc_monic_cubic(*f) // d_field)
    roots_f = np.roots([1, *f])
    roots_g = np.roots([1, *g])
    # a couple of Newton polish steps for accuracy
    for _ in range(3):
        vals = ((roots_f + f[0]) * roots_f + f[1]) * roots_f + f[2]
        ders = (3 * roots_f + 2 * f[0]) * roots_f + f[1]
        roots_f = roots_f - vals / ders
        vals = ((roots_g + g[0]) * roots_g + g[1]) * roots_g + g[2]
        ders = (3 * roots_g + 2 * g[0]) * roots_g + g[1]
        roots_g = roots_g - vals / ders
    vander = np.vander(roots_f, 3, increasing=True)  # columns 1, alpha, alpha^2
    for perm in itertools.permutations(range(3)):
        beta = roots_g[list(perm)]
        try:
            sol = np.linalg.solve(vander, beta)
        except np.linalg.LinAlgError:
            continue
        if np.max(np.abs(sol.imag)) > 1e-6:
            continue
        cand = []
        ok = True
        for comp in sol.real:
            num = round(comp * ind_f)
            if abs(comp * ind_f - num) > 1e-4:
                ok = False
                break
            cand.append(Fraction(num, ind_f))
        if ok and _is_root_map_exact(g, f, tuple(cand)):
            return True
    return False


def cubic_fields_by_polynomials(x: int) -> list[int]:
    """Signed field discs of all S_3 cubic fields with |disc| <= x (with multiplicity 1).

    Returns the sorted list of signed discriminants, one per isomorphism
    class.  Pure polynomial-search route: Hunter box, local field-disc
    analysis, root-matching dedup.
    """
    fields: dict[int, list[Poly]] = {}
    for s1 in (0, 1):
        # t2 bound: tr^2/3 + (2/3) sqrt(x), with slack
        t2f = s1 * s1 / 3.0 + (2.0 / 3.0) * (x**0.5) + 1e-9
        s2_max = int((s1 * s1 + t2f) / 2) + 1
        s3_max = int((t2f / 3.0) ** 1.5) + 1
        for s2 in range(-s2_max, s2_max + 1):
            for s3 in range(-s3_max, s3_max + 1):
                if s3 == 0:
                    continue
                poly = (-s1, s2, -s3)
                d_poly = _disc_monic_cubic(*poly)
                if d_poly == 0:
                    continue
                # field disc can only shrink, so |d_poly| >= |d_K| is not a
                # filter; cheap pre-filters first
                if _has_rational_root(poly):
                    continue
                d_field = field_disc_of_cubic(poly)
                if abs(d_field) > x:
                    continue
                if d_field > 0 and isqrt(d_field) ** 2 == d_field:
                    continue  # cyclic cubic
                bucket = fields.setdefault(d_field, [])
                if not any(_isomorphic(h, poly, d_field) for h in bucket):
                    bucket.append(poly)
    out = []
    for d_field, polys in fields.items():
        out.extend([d_field] * len(polys))
    return sorted(out, key=lambda s: (abs(s), s))
