import hashlib
import itertools
import math
import random

import numpy as np
import pytest

from malle_lab.errors import CapExceeded, InsufficientGrid, NotSquarefree
from malle_lab.sieve import (
    AffineScheme,
    binary_cubic_disc_scheme,
    count_points_brute,
    count_points_mod_q,
    scaling_experiment,
    solutions_mod_q,
)


def line_scheme(n=2):
    return AffineScheme.coordinate_subspace(n, 1)


def plane_codim2(n=3):
    return AffineScheme.coordinate_subspace(n, 2)


def test_linear_closed_form():
    # {x1 = 0} in A^2, r = 10, q = 5: (2*floor(10/5)+1) * (2*10+1) = 105
    assert count_points_brute(line_scheme(), 10, 5) == 105
    assert count_points_mod_q(line_scheme(), 10, 5) == 105
    # codim 2, r = 10, q = 5: 5 * 5 * 21 in A^3... {x1=x2=0} in A^2: 25
    scheme2 = AffineScheme.coordinate_subspace(2, 2)
    assert count_points_mod_q(scheme2, 10, 5) == 25


def test_closed_form_general_linear():
    scheme = AffineScheme.coordinate_subspace(3, 2)
    for r, q in [(12, 5), (30, 7), (20, 3)]:
        want = (2 * (r // q) + 1) ** 2 * (2 * r + 1)
        assert count_points_mod_q(scheme, r, q) == want


def test_dual_path_agreement_nonlinear():
    scheme = binary_cubic_disc_scheme()
    for r, q in [(4, 5), (5, 6), (6, 7)]:
        assert count_points_brute(scheme, r, q) == count_points_mod_q(scheme, r, q)


def test_count_past_int64_is_exact():
    # (2 * 10^5 + 1)^4 > 2^63: the counter must not wrap; at r = 10^20 even
    # a = 2r // q is past 2^64
    for r in (10**5, 10**20):
        for n, q in [(4, 1), (4, 7), (3, 30), (1, 2), (300, 1)]:
            scheme = AffineScheme.coordinate_subspace(n, 1)
            want = (2 * (r // q) + 1) * (2 * r + 1) ** (n - 1)
            assert count_points_mod_q(scheme, r, q) == want


# with 2r = a q + b, 0 <= b < q: (r, q) with a = 0 (2r < q), b = q - 1 (the
# long residues -r..r mod q are all of them, none short), both, b = 0, q = 1
# and b + 1 long residues that wrap past q - 1 (-r mod q + b >= q)
_EDGES = [(1, 7), (2, 7), (3, 30), (10, 7), (3, 7), (4, 3), (5, 5), (6, 6), (8, 7), (2, 1), (5, 1)]
_PLANE_CONIC = AffineScheme(2, (((1, (2, 0)), (1, (0, 2)), (-1, (0, 0))),), 1)


@pytest.mark.parametrize("r, q", _EDGES, ids=[f"r{r}-q{q}" for r, q in _EDGES])
def test_count_matches_brute_at_progression_edges(r, q):
    a, b = divmod(2 * r, q)
    assert a == 0 or b in (0, q - 1) or q == 1 or -r % q + b >= q
    for scheme in (SQRT2, _PLANE_CONIC, line_scheme(3), binary_cubic_disc_scheme()):
        if scheme.n_vars == 4 and r > 3:
            continue  # (2r + 1)^4 points to walk
        assert count_points_mod_q(scheme, r, q) == count_points_brute(scheme, r, q), (r, q)


def test_crt_multiplicativity_exact():
    scheme = binary_cubic_disc_scheme()
    s6 = solutions_mod_q(scheme, 6)
    s2 = solutions_mod_q(scheme, 2)
    s3 = solutions_mod_q(scheme, 3)
    assert s6.shape[0] == s2.shape[0] * s3.shape[0]
    # and against a direct brute count over (Z/6)^4
    from malle_lab.sieve import _brute_solution_count

    assert s6.shape[0] == _brute_solution_count(scheme, 6)


def test_not_squarefree():
    with pytest.raises(NotSquarefree):
        count_points_mod_q(line_scheme(), 5, 4)
    with pytest.raises(NotSquarefree):
        solutions_mod_q(line_scheme(), 12)
    for q in (0, -5):
        with pytest.raises(NotSquarefree):
            solutions_mod_q(binary_cubic_disc_scheme(), q)


def test_cap_exceeded():
    # 59^4 residues exceed the solution cap: a box of 7^4 points is still
    # counted by residue classes, and the grid is refused before it exists
    from malle_lab import sieve

    def no_grid(*args):
        raise AssertionError("residue grid allocated")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "_solutions_mod_p", no_grid)
        with pytest.raises(CapExceeded):
            count_points_mod_q(binary_cubic_disc_scheme(), 3, 59)


def test_residue_grid_cap():
    # 59^4 = 12,117,361 residues exceed the cap of 10^7 before any array exists
    with pytest.raises(CapExceeded):
        solutions_mod_q(binary_cubic_disc_scheme(), 59)


def _random_scheme(rng, n, m):
    """1-3 polynomials in n variables with negative coefficients, coefficients
    divisible by m, constant terms and repeated monomials."""
    polys = []
    for _ in range(rng.randint(1, 3)):
        poly = []
        for _ in range(rng.randint(1, 5)):
            coef = rng.choice([rng.randint(-30, 30), m * rng.randint(-3, 3), 1, -1])
            exps = tuple(rng.choice([0, 0, 1, 2, 3]) for _ in range(n))
            poly.append((coef, exps))
        if rng.random() < 0.5:
            poly.append((rng.randint(-20, 20), (0,) * n))
        if rng.random() < 0.3:
            poly.append(poly[0])
        polys.append(tuple(poly))
    return AffineScheme(n_vars=n, polynomials=tuple(polys), declared_codim=1)


def _assert_matches_pointwise_oracle(scheme, m):
    from malle_lab.sieve import _solutions_mod_p

    n = scheme.n_vars
    sols = _solutions_mod_p(scheme, m)
    assert sols.dtype == np.int64 and sols.shape[1] == n
    rows = [tuple(int(v) for v in row) for row in sols]
    want = {
        pt for pt in itertools.product(range(m), repeat=n)
        if scheme.eval_point_mod(pt, m)
    }
    assert set(rows) == want, (scheme, m)
    # rows ordered by x_1, then by x_2 + m x_3 + ... + m^(n-2) x_n
    keys = [(r[0], r[:0:-1]) for r in rows]
    assert keys == sorted(set(keys))


def test_solutions_mod_p_matches_pointwise_oracle():
    rng = random.Random(20260418)
    for n in range(1, 5):
        for m in range(1, 13):
            for _ in range(2 if n < 4 else 1):
                _assert_matches_pointwise_oracle(_random_scheme(rng, n, m), m)


# -x^3 - x and -x^5 - x^3 - x have t = 2 and 3 x-exponents, all with
# coefficient m - 1 mod m, so at x = m - 1 the accumulator reaches its bound
# B - 1 = t (m-1)^2: 16-bit up to m = 182 and 148, 32-bit up to m = 46341 and
# 37838, 64-bit beyond.  At m = 182 and 46346 = 2 * 23173, -x^5 - x^3 - x has
# roots whose sum passes 2^16 and 2^32, so one width too few loses them.
ODD_POWERS = {
    2: ((-1, (3,)), (-1, (1,))),
    3: ((-1, (5,)), (-1, (3,)), (-1, (1,))),
}


@pytest.mark.parametrize(
    "terms, m",
    [(2, 182), (2, 183), (2, 46341), (3, 148), (3, 149), (3, 182), (3, 256), (3, 257), (3, 46346)],
)
def test_solutions_mod_p_at_each_accumulator_width(terms, m):
    scheme = AffineScheme(n_vars=1, polynomials=(ODD_POWERS[terms],), declared_codim=1)
    _assert_matches_pointwise_oracle(scheme, m)


def test_solutions_mod_p_at_even_moduli():
    # a power of two times an odd part: both halves of the zero test decide
    rng = random.Random(20261020)
    for m in (16, 24, 48, 96):
        for n in (1, 2, 3):
            scheme = _random_scheme(rng, n, m)
            # a constant term per polynomial puts a random integer point on it
            pt = [rng.randrange(m) for _ in range(n)]
            polys = []
            for poly in scheme.polynomials:
                value = sum(c * math.prod(x**e for x, e in zip(pt, exps)) for c, exps in poly)
                polys.append(poly + ((-value, (0,) * n),))
            _assert_matches_pointwise_oracle(AffineScheme(n, tuple(polys), 1), m)


SQRT2 = AffineScheme(n_vars=1, polynomials=(((1, (2,)), (-2, (0,))),), declared_codim=1)


def _primes_around_block():
    from malle_lab.arith import is_prime
    from malle_lab.sieve import BLOCK

    below = next(q for q in range(BLOCK, 1, -1) if is_prime(q))
    above = [q for q in range(BLOCK + 1, BLOCK + 100) if is_prime(q)][:2]
    return sorted({below, *above, 65537})


@pytest.mark.parametrize("p", _primes_around_block())
def test_one_variable_blocks_match_pointwise_oracle(p):
    # BLOCK residues of x_1 a block: below BLOCK one block, above it a second
    # block of a few rows
    for poly in (SQRT2.polynomials[0], ((1, (12,)), (-1, (0,))), ODD_POWERS[3]):
        _assert_matches_pointwise_oracle(AffineScheme(1, (poly,), 1), p)


# x_1^2 = 2 and x_2^3 = x_1 x_3 + 1: at most two x_1 rows keep a point after the
# first polynomial, so the other blocks stop there
CODIM2 = AffineScheme(
    n_vars=3,
    polynomials=(((1, (2, 0, 0)), (-2, (0, 0, 0))), ((1, (0, 3, 0)), (-1, (1, 0, 1)), (-1, (0, 0, 0)))),
    declared_codim=2,
)


def test_blocks_match_pointwise_oracle_at_each_block_shape(monkeypatch):
    """With BLOCK = 64: p^(n-1) below, at and above it, blocks of several rows
    and a short last one, one-row blocks, and the mask path at p = 2 and at
    even composites."""
    from malle_lab import sieve

    monkeypatch.setattr(sieve, "BLOCK", 64)
    rng = random.Random(20261021)
    for n, ms in ((1, (2, 61, 67, 96)), (2, (2, 29, 31, 61, 64, 67, 96)), (3, (2, 6, 7, 8, 11))):
        for m in ms:
            for _ in range(2):
                _assert_matches_pointwise_oracle(_random_scheme(rng, n, m), m)
    for m in (7, 17, 23, 14):
        _assert_matches_pointwise_oracle(CODIM2, m)


def test_codim2_pair_leaves_blocks_empty():
    # 255 rows a block at 257: x_1^2 = 2 has no root among 255 and 256
    assert [x for x in range(255, 257) if (x * x - 2) % 257 == 0] == []
    polys = (((1, (2, 0)), (-2, (0, 0))), ((1, (0, 2)), (-1, (1, 0))))
    _assert_matches_pointwise_oracle(AffineScheme(2, polys, 2), 257)


@pytest.mark.parametrize("q", [1_048_573, 1_048_583])
def test_one_variable_count_above_a_million_matches_direct_count(q):
    # 2 is a square mod 1048583 (7 mod 8), not mod 1048573 (5 mod 8); the box
    # [-r, r] covers more than one period
    r = 600_000
    x = np.arange(-r, r + 1)
    assert count_points_mod_q(SQRT2, r, q) == int(((x * x - 2) % q == 0).sum())


@pytest.mark.parametrize(
    "q, rows, digest",
    [
        (30, 47850, "6a3a5d6aae5be2d8e6f9d484352724cea5b0b7513436f4c1afa0299b33052719"),
        (37, 51985, "f9fd92e52e1f81b813ddd554e5af4059967b1a9bb061a0a62854907ea7d1db83"),
        (53, 151633, "546ecec8c33787dd9bf57a9decbdd3abcdb4f5a675dce796b2755138d03bf758"),
    ],
)
def test_disc_solutions_bytes_pinned(q, rows, digest):
    sols = solutions_mod_q(binary_cubic_disc_scheme(), q)
    assert sols.shape == (rows, 4) and sols.dtype == np.int64
    assert hashlib.sha256(sols.tobytes()).hexdigest() == digest


def test_disc_solutions_composite_modulus_bytes_pinned():
    from malle_lab.sieve import _solutions_mod_p

    sols = _solutions_mod_p(binary_cubic_disc_scheme(), 39)
    assert sols.shape == (77649, 4)
    assert hashlib.sha256(sols.tobytes()).hexdigest() == (
        "4bedccfc3405d02edfa591d27edffae0d3fead6a08a0d11b22710507819c63d3"
    )


def test_analytic_grid_counts_pinned():
    # the benchmark's analytic grid; the fits come from a least-squares solve,
    # so they are pinned to 12 digits rather than to the last bit
    rep = scaling_experiment(
        binary_cubic_disc_scheme(), [50, 100, 200, 400, 800], [3, 5, 7, 11, 13, 17, 23, 31, 37]
    )
    assert len(rep.entries) == 45
    assert sum(c for _, _, c in rep.entries) == 8_052_637_360_437
    assert rep.entries[-1] == (800, 37, 182_120_650_717)
    assert hashlib.sha256(repr(rep.entries).encode()).hexdigest() == (
        "d2544d5982c3bef2d2a48ce610a37edfffc1d641519751ceb8d5afa930496877"
    )
    assert rep.fitted_q_exponent == pytest.approx(-1.0690126756002694, rel=1e-12)
    assert rep.fitted_r_exponent == pytest.approx(3.990971521602373, rel=1e-12)
    assert rep.crt_residuals == (
        (3, 5, 4785, 4785), (3, 7, 12705, 12705), (3, 11, 47553, 47553), (3, 13, 77649, 77649)
    )


def test_monotone_in_q_linear():
    scheme = line_scheme(2)
    counts = [count_points_mod_q(scheme, 50, q) for q in (2, 3, 5, 7, 11)]
    assert counts == sorted(counts, reverse=True)


def test_scaling_experiment_linear_slopes():
    rep = scaling_experiment(line_scheme(2), r_grid=[20, 50, 100, 200, 400], q_grid=[3, 5, 7, 11, 13, 17, 31])
    assert abs(rep.fitted_q_exponent - (-1)) < 0.05
    assert abs(rep.fitted_r_exponent - 2) < 0.1
    for q1, q2, direct, prod in rep.crt_residuals:
        assert direct == prod


def test_scaling_experiment_codim2():
    rep = scaling_experiment(
        plane_codim2(3), r_grid=[30, 60, 120, 240, 480], q_grid=[3, 5, 7, 11, 13, 17, 31]
    )
    assert abs(rep.fitted_q_exponent - (-2)) < 0.1
    assert abs(rep.fitted_r_exponent - 3) < 0.1


def test_disc_locus_q_exponent_near_codim1():
    rep = scaling_experiment(
        binary_cubic_disc_scheme(),
        r_grid=[30, 60, 120, 300],
        q_grid=[5, 7, 11, 17, 23, 31, 53],
    )
    assert -1.3 <= rep.fitted_q_exponent <= -0.8
    for q1, q2, direct, prod in rep.crt_residuals:
        assert direct == prod


def test_slopes_fit_distinct_grid_values_only():
    # q = 7 three times, with no point at 3 or 70, leaves one value of q; r = 10
    # three times leaves two values of r: too few to fit either
    rep = scaling_experiment(SQRT2, [100, 1000, 10000], [7, 7, 7, 3, 70])
    assert [c for _, q, c in rep.entries if q != 7] == [0] * 6
    assert rep.fitted_q_exponent is None
    rep = scaling_experiment(line_scheme(2), [10, 10, 10, 100], [3, 5, 7, 31])
    assert rep.fitted_r_exponent is None and rep.fitted_q_exponent is not None
    # a repeated value counts once: the fits are those of the grids without it
    q_grid = [3, 5, 7, 11, 13, 17, 31]
    rep = scaling_experiment(line_scheme(2), [20, 50, 50, 100, 400], q_grid + [5, 31])
    once = scaling_experiment(line_scheme(2), [20, 50, 100, 400], q_grid)
    assert (rep.fitted_q_exponent, rep.fitted_r_exponent) == (
        once.fitted_q_exponent, once.fitted_r_exponent
    )


def test_r_slope_fits_at_smallest_q_with_three_counts():
    # no x has x^2 = 2 mod 3 or mod 70, so q = 7 is the smallest q with counts
    rep = scaling_experiment(SQRT2, [100, 1000, 10000], [7, 3, 70])
    assert [c for _, q, c in rep.entries if q == 7] == [56, 572, 5716]
    assert rep.fitted_q_exponent is None
    at_7 = scaling_experiment(SQRT2, [100, 1000, 10000], [7, 17, 70])
    assert rep.fitted_r_exponent == at_7.fitted_r_exponent == pytest.approx(1, abs=0.01)


def test_insufficient_grid():
    with pytest.raises(InsufficientGrid):
        scaling_experiment(line_scheme(2), r_grid=[10, 12], q_grid=[3, 5, 7, 31])
    with pytest.raises(InsufficientGrid):
        scaling_experiment(line_scheme(2), r_grid=[10, 40, 110], q_grid=[3, 4])


def test_grid_values_below_one_are_refused_by_name():
    # a 0 once divided the span ratio by zero, and a negative value was
    # refused only because its ratio fell below 10
    for r_grid, q_grid, name in [
        ([5, 10, 0], [3, 5, 7, 31], "r"),
        ([-100, 10, 50], [3, 5, 7, 31], "r"),
        ([5, 10, 50], [3, 5, 0, 31], "q"),
    ]:
        with pytest.raises(ValueError, match=f"{name} grid value"):
            scaling_experiment(line_scheme(2), r_grid, q_grid)


def test_residue_count_matches_point_walk():
    rng = random.Random(20261018)
    # at most 2 r + 1 lattice values per coordinate keeps each walk small
    side = {1: 60, 2: 14, 3: 6, 4: 3}
    nonzero = 0
    for case in range(100):
        n = case % 4 + 1
        q = rng.choice([1, 2, 3, 5, 6, 7, 10, 15, 21, 30])
        scheme = _random_scheme(rng, n, q)
        while not solutions_mod_q(scheme, q).size:
            scheme = _random_scheme(rng, n, q)
        r = rng.randint(1, side[n])
        got = count_points_mod_q(scheme, r, q)
        assert got == count_points_brute(scheme, r, q), (scheme, r, q)
        nonzero += got > 0
    assert nonzero >= 40


def test_radius_must_be_a_positive_integer():
    for r in (0, -3, 2.5, "5"):
        with pytest.raises(ValueError, match="box radius"):
            count_points_mod_q(line_scheme(), r, 5)


@pytest.mark.parametrize("call, error, message", [
    (lambda: AffineScheme(2, (((1, (1, 0)),),), 3), ValueError,
     "codimension must lie in 1..n_vars"),
    (lambda: AffineScheme(2, (), 1), ValueError, "need at least one polynomial"),
    (lambda: AffineScheme(2, ((),), 1), ValueError, "zero polynomial in scheme"),
    (lambda: AffineScheme(2, (((1, (1,)),),), 1), ValueError, "exponent vector length mismatch"),
    # {x1 = 0} in A^3 has 53^2 and 61^2 solutions, 10,452,289 > SOLUTION_CAP pairs of them
    (lambda: solutions_mod_q(AffineScheme.coordinate_subspace(3, 1), 53 * 61), CapExceeded,
     "too many residue solutions"),
], ids=["codim-past-n-vars", "no-polynomial", "zero-polynomial", "exponent-length",
        "solutions-past-cap"])
def test_sieve_refusals(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
