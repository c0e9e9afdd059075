"""Lattice points of affine schemes in expanding (sheared) boxes mod q.

Counts #{a in m r B cap Z^n : a mod q in Y(Z/qZ)} by residue classes: solve
the system mod each prime p of the squarefree q, combine by CRT, and count
the lattice points of each residue class.  Each polynomial is read as a
polynomial in x_1 whose coefficients are vectors over the grid (Z/p)^(n-1),
built once from per-monomial power tables; the loop over x_1 only scales and
adds them.  The shear is lower-triangular unipotent, so coordinates resolve
front to back with rational window endpoints: a class steps through the
windows with stride q.  The oracle `count_points_brute` tests every lattice
point of the box instead.

The counts feed `scaling_experiment`, which fits the log-log slope in q at
the largest r and in r at the smallest q; the codimension-k envelope
r^(n-k) * max(1, (r/q)^k) puts them near -k and n.  Sheared boxes and boxes
scaled per coordinate are counted the same way, and `count_points_brute`
checks those counts; no experiment samples them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import is_squarefree, prime_factors
from .errors import CapExceeded, InsufficientGrid, NotSquarefree
from .util import json_typed, json_typed_items

__all__ = [
    "AffineScheme",
    "BoxSpec",
    "ExperimentReport",
    "count_points_mod_q",
    "solutions_mod_q",
    "scaling_experiment",
    "binary_cubic_disc_scheme",
]

DEFAULT_SOLUTION_CAP = 10**7


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


@dataclass(frozen=True)
class BoxSpec:
    """A compact box B scaled by r (scalar or per-coordinate) and sheared.

    The region is m . diag(r) . B with B a product of intervals (default
    [-1, 1]^n) and m lower-triangular unipotent with rational entries.
    """

    n_vars: int
    intervals: tuple = None  # ((lo, hi) Fractions), default [-1, 1]^n
    scaling: tuple = (1,)  # scalar broadcast or per-coordinate
    shear: tuple = None  # rows of the lower-triangular unipotent matrix

    def __post_init__(self):
        if self.intervals is None:
            object.__setattr__(
                self, "intervals", tuple((Fraction(-1), Fraction(1)) for _ in range(self.n_vars))
            )
        ivals = tuple((Fraction(lo), Fraction(hi)) for lo, hi in self.intervals)
        if len(ivals) != self.n_vars or any(lo > hi for lo, hi in ivals):
            raise ValueError("bad base intervals")
        object.__setattr__(self, "intervals", ivals)
        scaling = self.scaling
        if not isinstance(scaling, tuple):
            scaling = (scaling,)
        if len(scaling) == 1:
            scaling = scaling * self.n_vars
        scaling = tuple(Fraction(s) for s in scaling)
        if len(scaling) != self.n_vars or any(s <= 0 for s in scaling):
            raise ValueError("bad scaling")
        object.__setattr__(self, "scaling", scaling)
        if self.shear is None:
            object.__setattr__(
                self,
                "shear",
                tuple(
                    tuple(Fraction(1) if i == j else Fraction(0) for j in range(self.n_vars))
                    for i in range(self.n_vars)
                ),
            )
        else:
            rows = tuple(tuple(Fraction(e) for e in row) for row in self.shear)
            for i, row in enumerate(rows):
                if len(row) != self.n_vars or row[i] != 1:
                    raise ValueError("shear must be unipotent")
                if any(row[j] != 0 for j in range(i + 1, self.n_vars)):
                    raise ValueError("shear must be lower triangular")
            object.__setattr__(self, "shear", rows)

    def with_scaling(self, r) -> "BoxSpec":
        return BoxSpec(self.n_vars, self.intervals, r if isinstance(r, tuple) else (r,), self.shear)


def _window(box: BoxSpec, i: int, y_prefix) -> tuple[Fraction, int, int]:
    """Shear offset of x_i given the unsheared y_1..y_{i-1} (0 for an empty
    prefix), and the integer window [lo, hi] of x_i, with lo <= hi + 1."""
    lo, hi = box.intervals[i]
    base = sum((m * y for m, y in zip(box.shear[i], y_prefix)), Fraction(0))
    return base, math.ceil(base + lo * box.scaling[i]), math.floor(base + hi * box.scaling[i])


def count_points_brute(scheme: AffineScheme, box: BoxSpec, q: int) -> int:
    """Oracle for `count_points_mod_q`: test every lattice point of the box mod q."""

    def rec(point, y_prefix):
        if len(point) == box.n_vars:
            return scheme.eval_point_mod(point, q)
        base, lo, hi = _window(box, len(point), y_prefix)
        return sum(rec(point + (x,), y_prefix + (x - base,)) for x in range(lo, hi + 1))

    return rec((), ())


def _solutions_mod_p(scheme: AffineScheme, p: int) -> np.ndarray:
    """(k, n) int64 array of the solutions over (Z/p)^n.

    Each polynomial is written as sum_e c_e x_1^e, with c_e an int64 vector
    over the p^(n-1) residues of coordinates 2..n.  Every monomial is
    evaluated once per call, by indexing the digit arrays into power tables
    r^e mod p, and the monomials with the same x_1-exponent are summed into
    c_e.  The loop over x_1 then only scales and adds these vectors, so no
    working array has more than p^(n-1) entries.  Rows come ordered by x_1,
    then by x_2 + p x_3 + ... + p^(n-2) x_n.

    Pure evaluation, so it works for any modulus; the CRT path feeds it
    primes, the multiplicativity oracle composites.
    """
    n = scheme.n_vars
    rest = p ** (n - 1)
    # digit arrays for coordinates 2..n
    digits = []
    t = np.arange(rest, dtype=np.int64)
    for _ in range(n - 1):
        digits.append(t % p)
        t //= p
    powers = {}  # e -> r^e mod p for r in 0..p-1
    polys = []  # per polynomial, [(e, c_e)]
    for poly in scheme.polynomials:
        by_e1 = {}
        for coef, exps in poly:
            term = np.full(rest, coef % p, dtype=np.int64)
            for d, e in zip(digits, exps[1:]):
                if e:
                    if e not in powers:
                        powers[e] = np.array([pow(r, e, p) for r in range(p)], dtype=np.int64)
                    term = term * powers[e][d] % p
            by_e1[exps[0]] = (by_e1.get(exps[0], 0) + term) % p
        polys.append(list(by_e1.items()))
    sols = []
    for x0 in range(p):
        ok = np.ones(rest, dtype=bool)
        # every c_e and x0^e mod p is below p, so acc < (terms) p^2 fits int64
        for (e, c), *others in polys:
            acc = c * pow(x0, e, p)
            for e, c in others:
                acc += c * pow(x0, e, p)
            ok &= acc % p == 0
            if not ok.any():
                break
        hits = np.flatnonzero(ok)
        if hits.size:
            pts = np.empty((hits.size, n), dtype=np.int64)
            pts[:, 0] = x0
            for j, d in enumerate(digits):
                pts[:, j + 1] = d[hits]
            sols.append(pts)
    if not sols:
        return np.empty((0, n), dtype=np.int64)
    return np.concatenate(sols)


def solutions_mod_q(
    scheme: AffineScheme, q: int, cap: int = DEFAULT_SOLUTION_CAP
) -> np.ndarray:
    """Solutions over (Z/q)^n for squarefree q >= 1, by CRT over its primes.

    Raises CapExceeded before any array is allocated when the residue grid
    p^n of some prime p of q exceeds cap, and later when the solutions do.
    """
    if q < 1 or not is_squarefree(q):
        raise NotSquarefree(f"q = {q}")
    if q == 1:
        return np.zeros((1, scheme.n_vars), dtype=np.int64)
    primes = prime_factors(q)
    if primes[-1] ** scheme.n_vars > cap:
        raise CapExceeded(f"residue grid {primes[-1]}^{scheme.n_vars} exceeds cap {cap}")
    sols = None
    mod = 1
    for p in primes:
        sp = _solutions_mod_p(scheme, p)
        if sols is None:
            sols, mod = sp, p
        else:
            if sols.shape[0] * sp.shape[0] > cap:
                raise CapExceeded("too many residue solutions")
            # x = a mod `mod`, x = b mod p
            inv = pow(mod, -1, p)
            a = np.repeat(sols, sp.shape[0], axis=0)
            b = np.tile(sp, (sols.shape[0], 1))
            t = ((b - a) % p) * inv % p
            sols = (a + mod * t) % (mod * p)
            mod *= p
        if sols.shape[0] > cap:
            raise CapExceeded("too many residue solutions")
    return sols


def _count_residue_class(box: BoxSpec, residue, q: int) -> int:
    """Lattice points x = residue (mod q) in the sheared box."""

    n = box.n_vars

    def rec(i, y_prefix):
        base, lo, hi = _window(box, i, y_prefix)
        xs = range(lo + (residue[i] - lo) % q, hi + 1, q)
        if i == n - 1:
            return len(xs)
        return sum(rec(i + 1, y_prefix + (x - base,)) for x in xs)

    return rec(0, ())


def _count_residue_axis_aligned(box: BoxSpec, sols: np.ndarray, q: int) -> int:
    """Vectorized residue counting when the shear is the identity: a class
    counts the product of its progressions, each of length >= 0 as lo <= hi + 1."""
    r = np.arange(q, dtype=object)
    counts = [
        (hi - lo - (r - lo) % q) // q + 1
        for _, lo, hi in (_window(box, i, ()) for i in range(box.n_vars))
    ]
    # int64 would wrap silently past 2^63; Python integers take over there
    dtype = np.int64 if sols.shape[0] * math.prod(c.max() for c in counts) < 2**63 else object
    prod = np.ones(sols.shape[0], dtype=dtype)
    for c, col in zip(counts, sols.T):
        prod *= c.astype(dtype)[col]
    return int(prod.sum())


def _is_identity_shear(box: BoxSpec) -> bool:
    # BoxSpec keeps the shear unipotent, so only the entries below the
    # diagonal can differ from the identity
    return all(e == 0 for i, row in enumerate(box.shear) for e in row[:i])


def count_points_mod_q(scheme: AffineScheme, box: BoxSpec, q: int) -> int:
    """#{a in the sheared box cap Z^n : a mod q in Y(Z/qZ)}, by residue classes.

    Raises NotSquarefree unless q >= 1 is squarefree, and CapExceeded when a
    prime p of q has p^n above the solution cap 10^7, however small the box
    (for n = 4, every p >= 59).
    """
    if scheme.n_vars != box.n_vars:
        raise ValueError("scheme and box dimension mismatch")
    sols = solutions_mod_q(scheme, q)
    if _is_identity_shear(box):
        return _count_residue_axis_aligned(box, sols, q)
    return sum(_count_residue_class(box, s, q) for s in sols.tolist())


# ---------------------------------------------------------------------------
# Experiments

@dataclass(frozen=True)
class ExperimentReport:
    entries: tuple  # ((r, q, count), ...)
    fitted_q_exponent: float | None
    fitted_r_exponent: float | None
    crt_residuals: tuple  # ((q1, q2, direct, product-of-counts), ...)


def _ols_slope(xs, ys) -> float:
    """Least-squares slope of ys on xs."""
    A = np.vstack([xs, np.ones(len(xs))]).T
    sol, *_ = np.linalg.lstsq(A, np.array(ys), rcond=None)
    return float(sol[0])


def _check_grid_span(grid, name: str):
    vals = [float(v) for v in grid]
    if len(vals) < 3 or max(vals) / min(vals) < 10:
        raise InsufficientGrid(f"{name} grid must span a decade with >= 3 points")


def scaling_experiment(scheme: AffineScheme, r_grid, q_grid, box: BoxSpec | None = None) -> ExperimentReport:
    """Counts over an (r, q) grid with log-log slope fits.

    The q-exponent is fitted at the largest r (the (r/q)^k regime, slope
    close to -codim); the r-exponent at the smallest q (slope close to n).
    """
    _check_grid_span(r_grid, "r")
    _check_grid_span(q_grid, "q")
    if box is None:
        box = BoxSpec(scheme.n_vars)
    entries = []
    counts = {}
    for r in r_grid:
        for q in q_grid:
            c = count_points_mod_q(scheme, box.with_scaling(r), q)
            counts[(r, q)] = c
            entries.append((r, q, c))
    r_top = max(r_grid)
    qs = [q for q in q_grid if counts[(r_top, q)] > 0]
    fitted_q = None
    if len(qs) >= 3:
        fitted_q = _ols_slope(
            [math.log(q) for q in qs], [math.log(counts[(r_top, q)]) for q in qs]
        )
    q_bot = min(q_grid)
    rs = [r for r in r_grid if counts[(r, q_bot)] > 0]
    fitted_r = None
    if len(rs) >= 3:
        fitted_r = _ols_slope(
            [math.log(r) for r in rs], [math.log(counts[(r, q_bot)]) for r in rs]
        )
    return ExperimentReport(
        entries=tuple(entries),
        fitted_q_exponent=fitted_q,
        fitted_r_exponent=fitted_r,
        crt_residuals=_crt_residuals(scheme, q_grid),
    )


def _crt_residuals(scheme, q_grid) -> tuple:
    """Exact multiplicativity check: counts of solutions mod coprime parts."""
    out = []
    qs = sorted(set(q_grid))
    for i, q1 in enumerate(qs):
        for q2 in qs[i + 1 :]:
            if math.gcd(q1, q2) != 1 or (q1 * q2) ** scheme.n_vars > 10**7:
                continue
            s12 = _brute_solution_count(scheme, q1 * q2)
            s1 = _brute_solution_count(scheme, q1)
            s2 = _brute_solution_count(scheme, q2)
            out.append((q1, q2, s12, s1 * s2))
            if len(out) >= 4:
                return tuple(out)
    return tuple(out)


def _brute_solution_count(scheme: AffineScheme, q: int) -> int:
    """Direct count of solutions over (Z/q)^n without CRT (residual oracle)."""
    return int(_solutions_mod_p(scheme, q).shape[0])
