"""Lattice points of affine schemes in the expanding cube [-r, r]^n mod q.

Counts #{a in [-r, r]^n cap Z^n : a mod q in Y(Z/qZ)} by residue classes:
solve the system mod each prime p of the squarefree q, combine by CRT, and
count the lattice points of each residue class.  Each polynomial is read as
a polynomial in x_1 whose coefficients are vectors over the grid
(Z/p)^(n-1), each monomial's vector an outer product of power tables r^e mod
p.  Blocks of x_1 residues go into arrays of at most max(p^(n-1), BLOCK)
entries that only scale and add them in the smallest unsigned type that
holds the sum, and test it for divisibility by p with a multiply by the
inverse of p's odd part and a mask of its power of two, so no division runs
there.  A class counts the product of its coordinates' progression lengths
in [-r, r].  The oracle `count_points_brute` tests every lattice point of
the cube instead.

The counts feed `scaling_experiment`, which fits the log-log slope in q at
the largest r and in r at the smallest q with three positive counts; the
codimension-k envelope r^(n-k) * max(1, (r/q)^k) puts them near -k and n.
Only the cube is counted, not a skewed box or one scaled per coordinate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .arith import squarefree_primes
from .errors import CapExceeded, InsufficientGrid
from .util import json_typed, json_typed_items

__all__ = [
    "AffineScheme",
    "ExperimentReport",
    "count_points_mod_q",
    "solutions_mod_q",
    "scaling_experiment",
    "binary_cubic_disc_scheme",
]

# the most residues or solutions solutions_mod_q holds
SOLUTION_CAP = 10**7
BLOCK = 2**16  # the entries of an x_1 block in _solutions_mod_p, unless p^(n-1) is more


@dataclass(frozen=True)
class AffineScheme:
    """Integer polynomials in n_vars variables with a declared codimension."""

    n_vars: int
    polynomials: tuple  # tuple of tuples of (coef, exponent-vector)
    declared_codim: int

    def __post_init__(self):
        if not 1 <= self.declared_codim <= self.n_vars:
            raise ValueError("codimension must lie in 1..n_vars")
        if not self.polynomials:
            raise ValueError("need at least one polynomial")
        for poly in self.polynomials:
            if not poly:
                raise ValueError("zero polynomial in scheme")
            for coef, exps in poly:
                if len(exps) != self.n_vars:
                    raise ValueError("exponent vector length mismatch")
                if min(exps) < 0:
                    raise ValueError(f"negative exponent {min(exps)} in {list(exps)}")

    @classmethod
    def from_json(cls, obj) -> "AffineScheme":
        """{"n_vars": 2, "codim": 1, "polys": [[[1, [1, 0]]]]}: n_vars, codim,
        every coefficient and every exponent JSON integers, else TypeError."""
        polys = tuple(
            tuple(
                (json_typed(c, int, "coefficient"), json_typed_items(exps, int, "exponent"))
                for c, exps in poly
            )
            for poly in obj["polys"]
        )
        return cls(
            n_vars=json_typed(obj["n_vars"], int, "n_vars"),
            polynomials=polys,
            declared_codim=json_typed(obj["codim"], int, "codim"),
        )

    def to_json(self) -> dict:
        return {
            "n_vars": self.n_vars,
            "codim": self.declared_codim,
            "polys": [[[c, list(e)] for c, e in poly] for poly in self.polynomials],
        }

    def eval_point_mod(self, point, q: int) -> bool:
        """All polynomials vanish at the point mod q."""
        for poly in self.polynomials:
            total = 0
            for coef, exps in poly:
                term = coef % q
                for x, e in zip(point, exps):
                    if e:
                        term = term * pow(x % q, e, q) % q
                total = (total + term) % q
            if total % q != 0:
                return False
        return True

    @classmethod
    def coordinate_subspace(cls, n_vars: int, constrained: int) -> "AffineScheme":
        """x_1 = ... = x_k = 0 in A^n."""
        polys = tuple(
            (( 1, tuple(1 if j == i else 0 for j in range(n_vars))),)
            for i in range(constrained)
        )
        return cls(n_vars=n_vars, polynomials=polys, declared_codim=constrained)


def binary_cubic_disc_scheme() -> AffineScheme:
    """The discriminant hypersurface of binary cubic forms in A^4."""
    # 18abcd + b^2c^2 - 4ac^3 - 4b^3d - 27a^2d^2
    poly = (
        (18, (1, 1, 1, 1)),
        (1, (0, 2, 2, 0)),
        (-4, (1, 0, 3, 0)),
        (-4, (0, 3, 0, 1)),
        (-27, (2, 0, 0, 2)),
    )
    return AffineScheme(n_vars=4, polynomials=(poly,), declared_codim=1)


def count_points_brute(scheme: AffineScheme, r: int, q: int) -> int:
    """Oracle for `count_points_mod_q`: test every lattice point of [-r, r]^n mod q."""
    side = range(-r, r + 1)
    return sum(
        scheme.eval_point_mod(point, q)
        for point in itertools.product(side, repeat=scheme.n_vars)
    )


def _powers(r, e: int, p: int) -> np.ndarray:
    """r^e mod p for each entry of the int64 array r of residues mod p, by squaring."""
    out = r if e else np.ones_like(r) % p
    for bit in bin(e)[3:]:
        out = out * out % p
        if bit == "1":
            out = out * r % p
    return out


def _solutions_mod_p(scheme: AffineScheme, p: int) -> np.ndarray:
    """(k, n) int64 array of the solutions over (Z/p)^n.

    Each polynomial is written as sum_e c_e x_1^e, with c_e a vector over the
    p^(n-1) residues of coordinates 2..n at index x_2 + p x_3 + ... +
    p^(n-2) x_n.  A monomial's vector is its coefficient mod p combined by
    outer products with the power tables r^e mod p of x_n, ..., x_2, reduced
    mod p before each product; the monomials with the same x_1-exponent are
    summed and reduced once into c_e.  The x_1 residues then go in blocks of
    max(1, BLOCK // p^(n-1)), their powers made by the same rule, into a
    (block x p^(n-1)) accumulator that only scales and adds the c_e, so no
    working array has more than max(p^(n-1), BLOCK) entries, and none divides:

    - every c_e and x_1^e mod p is below p, so the sum acc = sum_e c_e x_1^e
      is below B = terms (p-1)^2 + 1, terms being the most x_1-exponents of
      one polynomial, and it is held in the smallest of uint16, uint32 and
      uint64 whose 2^w is at least B;
    - with p = 2^s o and o odd, p | acc exactly when t = acc o^-1 mod 2^w
      has t mod 2^s = 0 (o^-1 is odd) and t <= (2^w - 1) // o, since that
      multiply maps the multiples of o below 2^w onto 0..(2^w - 1) // o and
      every other residue above (Granlund and Montgomery, 1994).

    A solution's flat index x_1 p^(n-1) + (index of x_2..x_n) orders the
    rows by x_1, then by that index; its base-p digits are the coordinates.

    Pure evaluation, so it works for any modulus; the CRT path feeds it
    primes, the multiplicativity self-check composites.
    """
    n = scheme.n_vars
    tail = {e for poly in scheme.polynomials for _, exps in poly for e in exps[1:]}
    table = {e: _powers(np.arange(p), e, p) for e in tail}
    polys = []  # per polynomial, {e: c_e}
    for poly in scheme.polynomials:
        by_e1 = {}
        for coef, exps in poly:
            # x_n outermost, x_2 innermost; every entry stays below p^2
            term = np.array([coef % p], dtype=np.int64)
            for e in reversed(exps[1:]):
                term = np.multiply.outer(term % p, table[e]).ravel()
            by_e1[exps[0]] = by_e1.get(exps[0], 0) + term
        polys.append(by_e1)
    bound = max(map(len, polys)) * (p - 1) ** 2 + 1
    assert bound < 2**64
    w = next(w for w in (16, 32, 64) if bound <= 2**w)
    dt = np.dtype(f"uint{w}").type
    polys = [[(e, (c % p).astype(dt)) for e, c in by_e1.items()] for by_e1 in polys]
    s = (p & -p).bit_length() - 1
    o = p >> s
    # typed scalars, so that no Python int takes part in the dtype of the loop
    inv, top, low = dt(pow(o, -1, 2**w)), dt((2**w - 1) // o), dt((1 << s) - 1)
    rest = p ** (n - 1)
    block = max(1, BLOCK // rest)
    e1s = {e for poly in polys for e, _ in poly}
    flat = []  # per block, x_1 p^(n-1) + index of x_2..x_n of its solutions
    for x0 in range(0, p, block):
        xs = np.arange(x0, min(x0 + block, p))
        xp = {e: _powers(xs, e, p).astype(dt)[:, None] for e in e1s}
        ok = None
        for (e, c), *others in polys:
            acc = c * xp[e]
            for e, c in others:
                acc += c * xp[e]
            acc *= inv
            hit = acc <= top
            if s:
                hit &= (acc & low) == 0
            ok = hit if ok is None else ok & hit
            if not ok.any():
                break
        flat.append(np.flatnonzero(ok) + x0 * rest)
    flat = np.concatenate(flat)
    pts = np.empty((flat.size, n), dtype=np.int64)
    for j in range(1, n):
        flat, pts[:, j] = np.divmod(flat, p)
    pts[:, 0] = flat
    return pts


def solutions_mod_q(scheme: AffineScheme, q: int) -> np.ndarray:
    """Solutions over (Z/q)^n for squarefree q >= 1, by CRT over its primes.

    Raises CapExceeded before any array is allocated when the residue grid
    p^n of some prime p of q exceeds SOLUTION_CAP, and later when the
    solutions do.
    """
    primes = squarefree_primes(q)
    if not primes:  # q = 1
        return np.zeros((1, scheme.n_vars), dtype=np.int64)
    if primes[-1] ** scheme.n_vars > SOLUTION_CAP:
        raise CapExceeded(f"residue grid {primes[-1]}^{scheme.n_vars} exceeds cap {SOLUTION_CAP}")
    sols = None
    mod = 1
    for p in primes:
        sp = _solutions_mod_p(scheme, p)
        if sols is None:
            sols, mod = sp, p
        else:
            if sols.shape[0] * sp.shape[0] > SOLUTION_CAP:
                raise CapExceeded("too many residue solutions")
            # x = a mod `mod`, x = b mod p
            inv = pow(mod, -1, p)
            a = np.repeat(sols, sp.shape[0], axis=0)
            b = np.tile(sp, (sols.shape[0], 1))
            t = ((b - a) % p) * inv % p
            sols = (a + mod * t) % (mod * p)
            mod *= p
    return sols


def count_points_mod_q(scheme: AffineScheme, r: int, q: int) -> int:
    """#{a in [-r, r]^n cap Z^n : a mod q in Y(Z/qZ)}, by residue classes.

    Every coordinate of a class s runs through the same progression
    {x in [-r, r] : x = s_i mod q}, so the class counts the product of those
    lengths over its coordinates.  With 2r = a q + b and 0 <= b < q, the
    2r + 1 integers of [-r, r] meet each residue a times, and b + 1 of them,
    -r, ..., r mod q, once more.  So a class with k coordinates among the
    q - 1 - b short residues counts (a + 1)^(n - k) a^k, and the total is
    sum_k N_k (a + 1)^(n - k) a^k in Python integers, N_k the classes with k
    short coordinates; it is exact for any r.  Raises ValueError unless r is
    an integer >= 1, NotSquarefree unless q >= 1 is squarefree, and
    CapExceeded when a prime p of q has p^n above the solution cap 10^7,
    however small the box (for n = 4, every p >= 59).
    """
    if not isinstance(r, int) or r < 1:
        raise ValueError(f"box radius r must be an integer >= 1, got {r!r}")
    sols = solutions_mod_q(scheme, q)
    n = scheme.n_vars
    a, b = divmod(2 * r, q)
    short = np.ones(q, dtype=np.uint8)
    lo = -r % q  # the long residues run from -r to r mod q, wrapping past q - 1
    short[lo : lo + b + 1] = 0
    short[: max(0, lo + b + 1 - q)] = 0
    # short coordinates per class, added a column at a time; no uint8 wraps,
    # since every residue is long at q = 1 and p^n <= 10^7 gives n <= 23 above
    n_short = short[sols[:, 0]]
    for col in sols.T[1:]:
        n_short += short[col]
    classes = np.bincount(n_short, minlength=n + 1).tolist()
    return sum(c * (a + 1) ** (n - k) * a**k for k, c in enumerate(classes))


# ---------------------------------------------------------------------------
# Experiments

@dataclass(frozen=True)
class ExperimentReport:
    entries: tuple  # ((r, q, count), ...)
    fitted_q_exponent: float | None
    fitted_r_exponent: float | None
    crt_residuals: tuple  # ((q1, q2, direct, product-of-counts), ...)


def _loglog_slope(counts) -> float | None:
    """Least-squares slope of log count on log x over the items of {x: count}
    with count > 0, in the dict's order; None when fewer than 3 are left."""
    pts = [(math.log(x), math.log(c)) for x, c in counts.items() if c > 0]
    if len(pts) < 3:
        return None
    xs, ys = zip(*pts)
    A = np.vstack([xs, np.ones(len(xs))]).T
    sol, *_ = np.linalg.lstsq(A, np.array(ys), rcond=None)
    return float(sol[0])


def _check_grid_span(grid, name: str):
    for v in grid:
        if v < 1:
            raise ValueError(f"{name} grid value {v} is below 1")
    vals = [float(v) for v in grid]
    if len(vals) < 3 or max(vals) / min(vals) < 10:
        raise InsufficientGrid(f"{name} grid must span a decade with >= 3 points")


def scaling_experiment(scheme: AffineScheme, r_grid, q_grid) -> ExperimentReport:
    """Counts in the boxes [-r, r]^n over an (r, q) grid, with log-log slope fits.

    Every grid value must be at least 1 (ValueError), and each grid must have
    three or more values spanning a decade (InsufficientGrid).  The
    q-exponent is fitted at the largest r (the (r/q)^k regime, slope close
    to -codim); the r-exponent at the smallest q whose counts are positive
    at three or more r (slope close to n), so a small q with no points does
    not hide it.  Each fit takes one point per distinct grid value with a
    positive count, and is None when fewer than three are left.
    """
    _check_grid_span(r_grid, "r")
    _check_grid_span(q_grid, "q")
    entries = tuple((r, q, count_points_mod_q(scheme, r, q)) for r in r_grid for q in q_grid)
    counts = {(r, q): c for r, q, c in entries}
    r_top = max(r_grid)
    r_slopes = (_loglog_slope({r: counts[(r, q)] for r in r_grid}) for q in sorted(set(q_grid)))
    return ExperimentReport(
        entries=entries,
        fitted_q_exponent=_loglog_slope({q: counts[(r_top, q)] for q in q_grid}),
        fitted_r_exponent=next((s for s in r_slopes if s is not None), None),
        crt_residuals=_crt_residuals(scheme, q_grid),
    )


def _crt_residuals(scheme, q_grid) -> tuple:
    """Exact multiplicativity check: counts of solutions mod coprime parts."""
    out = []
    qs = sorted(set(q_grid))
    for i, q1 in enumerate(qs):
        for q2 in qs[i + 1 :]:
            if math.gcd(q1, q2) != 1 or (q1 * q2) ** scheme.n_vars > SOLUTION_CAP:
                continue
            s12 = _brute_solution_count(scheme, q1 * q2)
            s1 = _brute_solution_count(scheme, q1)
            s2 = _brute_solution_count(scheme, q2)
            out.append((q1, q2, s12, s1 * s2))
            if len(out) >= 4:
                return tuple(out)
    return tuple(out)


def _brute_solution_count(scheme: AffineScheme, q: int) -> int:
    """Direct count of solutions over (Z/q)^n without CRT, for the multiplicativity
    self-check that `scaling_experiment` runs on every experiment; ROADMAP.md item 1
    plans to move that check into the benchmark's own."""
    return int(_solutions_mod_p(scheme, q).shape[0])
