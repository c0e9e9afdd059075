"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import json
import math
import time
from collections import Counter
from fractions import Fraction

import pytest

from malle_lab.convolve import CountingSequence, empirical_fit, product_count_exact
from malle_lab.counting import (
    WildTable,
    c3_exact,
    count_pairs,
    count_pairs_brute,
    default_grid,
    euler_constant,
)
from malle_lab.fields.cubic import enumerate_cubic
from malle_lab.fields.cyclic import cyclic_count_oracle, enumerate_cyclic
from malle_lab.fields.polysearch import cubic_fields_by_polynomials
from malle_lab.fields.uniformity import abelian_uniformity_check
from malle_lab.invariants import a_invariant, b_invariant_Q, close_group
from malle_lab.permgroup import (
    CycleType,
    Permutation,
    cycle_type,
    embed_product,
    index_of,
    product_index_coprime,
    product_index_general,
    representative,
)
from malle_lab.sieve import (
    AffineScheme,
    binary_cubic_disc_scheme,
    count_points_mod_q,
    scaling_experiment,
    solutions_mod_q,
)
from malle_lab.tamecomp import (
    DEFAULT_RK,
    AbelianGroupSpec,
    RkTable,
    disc_table,
    verify_delta,
    verify_unin,
)


def _verdict(num: int, name: str, ok: bool, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({elapsed:.1f}s) {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def cubics_1e4():
    return enumerate_cubic(10**4)


@pytest.fixture(scope="module")
def cyclic3_1e4():
    return enumerate_cyclic(3, 10**4)


def test_criterion_01_tables():
    t0 = time.time()
    ok = True
    for l in (5, 7, 3):
        for k in (1, 2):
            rows = disc_table(l, k)
            for row in rows:
                lk, lr = l**k, l**row.r
                want = 3 * lk - 2 * lr if row.sn_label == "(12)" else (
                    3 * lk - 3 * lr if l == 3 else 3 * lk - lr
                )
                ok = ok and row.compositum_exponent == want
    elapsed = time.time() - t0
    _verdict(1, "exponent tables", ok and elapsed < 1.0, elapsed)


def test_criterion_02_index_oracle_equivalence():
    t0 = time.time()

    def partitions(n, maxp=None):
        maxp = maxp or n
        if n == 0:
            yield ()
            return
        for p in range(min(n, maxp), 0, -1):
            for rest in partitions(n - p, p):
                yield (p,) + rest

    checked = 0
    ok = True
    for m in range(1, 7):
        for n in range(1, 7):
            for parts1 in partitions(m):
                ct1 = CycleType.from_parts(parts1)
                p1 = representative(ct1)
                for parts2 in partitions(n):
                    ct2 = CycleType.from_parts(parts2)
                    oracle = index_of(cycle_type(embed_product(p1, representative(ct2))))
                    ok = ok and product_index_general(ct1, ct2) == oracle
                    if math.gcd(ct1.ramification_index, ct2.ramification_index) == 1:
                        ok = ok and product_index_coprime(ct1, ct2) == oracle
                    checked += 1
    elapsed = time.time() - t0
    _verdict(2, "index-formula oracle", ok and elapsed < 10, elapsed, f"{checked} pairs")


def test_criterion_03_malle_invariants():
    t0 = time.time()
    e3 = Permutation.identity(3)
    g9 = close_group(
        [
            embed_product(Permutation.parse("(12)", degree=3), e3),
            embed_product(Permutation.parse("(123)"), e3),
            embed_product(e3, Permutation.parse("(123)")),
        ]
    )
    e5, e7 = Permutation.identity(5), Permutation.identity(7)
    g35 = close_group(
        [
            embed_product(Permutation.parse("(12)", degree=5), e7),
            embed_product(Permutation.parse("(12345)"), e7),
            embed_product(e5, Permutation.parse("(1234567)")),
        ]
    )
    ok = (
        g9.order == 18
        and a_invariant(g9) == 3
        and b_invariant_Q(g9) == 1
        and g35.order == 840
        and a_invariant(g35) == 7
        and b_invariant_Q(g35) == 1
    )
    elapsed = time.time() - t0
    _verdict(3, "Malle invariants of products", ok and elapsed < 30, elapsed)


def test_criterion_04_lemma_verifiers():
    t0 = time.time()
    grid = {
        3: ["3", "5", "7", "9", "15", "3x3"],
        4: ["5", "7", "25", "5x5"],
        5: ["7", "11", "49", "7x7"],
    }
    ok = True
    for n, groups in grid.items():
        rk = DEFAULT_RK[n]
        for g in groups:
            a = AbelianGroupSpec.parse(g)
            ok = ok and verify_delta(n, a).passed
            ok = ok and verify_unin(n, a, rk).passed
    failing = verify_unin(3, AbelianGroupSpec((5,)), RkTable.zeros(3))
    ok = ok and not failing.passed and failing.witness is not None
    elapsed = time.time() - t0
    _verdict(4, "lemma verifiers", ok and elapsed < 10, elapsed)


def test_criterion_05_convolution_constants():
    t0 = time.time()
    ints = CountingSequence.integers()
    xs = [10**k for k in range(5, 9)] + [2 * 10**k for k in range(5, 8)] + [5 * 10**k for k in range(5, 8)]
    pts = [(x, product_count_exact(ints, ints, 1, 1, x)) for x in sorted(xs)]
    fit = empirical_fit(pts, 1, 1)
    ok1 = abs(fit.coefficient - 1.0) <= 0.02

    x = 10**8
    count = product_count_exact(ints, ints, 1, 2, x)
    zeta2 = math.pi**2 / 6
    c = count / x
    ok2 = abs(c - zeta2) <= 0.01 * zeta2
    ok3 = c <= 2.0  # the closed-form coefficient bound
    elapsed = time.time() - t0
    _verdict(
        5,
        "convolution constants",
        ok1 and ok2 and ok3 and elapsed < 60,
        elapsed,
        f"XlnX coeff {fit.coefficient:.4f}, zeta2 fit {c:.5f}",
    )


def test_criterion_06_field_enumeration_oracles(cubics_1e4):
    t0 = time.time()
    n_enum = len(enumerate_cyclic(3, 10**8))
    n_oracle = cyclic_count_oracle(3, 10**8)
    ok_cyclic = n_enum == n_oracle

    enum_discs = Counter(r.disc_sign * r.abs_disc for r in cubics_1e4)
    oracle_discs = Counter(cubic_fields_by_polynomials(10**4))
    ok_cubic = enum_discs == oracle_discs
    ok_first = min(enum_discs, key=lambda d: (abs(d), d)) == -23
    elapsed = time.time() - t0
    _verdict(
        6,
        "field enumeration oracles",
        ok_cyclic and ok_cubic and ok_first and elapsed < 300,
        elapsed,
        f"cyclic {n_enum}, cubic {sum(enum_discs.values())}",
    )


def test_criterion_07_abelian_uniformity():
    t0 = time.time()
    fl = enumerate_cyclic(3, 10**8)
    qs = [7, 13, 19, 31, 37, 43, 91]
    rep = abelian_uniformity_check(3, qs, 10**8, field_list=fl)
    # pinned boundedness constant: measured max ratio is ~0.095
    ok = rep.max_ratio <= 0.2
    # cross-check the counts by a direct filtered scan
    for r in rep.per_q:
        direct = sum(
            1
            for rec in fl
            if all(rec.abs_disc % (p * p) == 0 for p in _prime_factors(r.q))
        )
        ok = ok and direct == r.count
    elapsed = time.time() - t0
    _verdict(
        7,
        "abelian uniformity boundedness",
        ok,
        elapsed,
        f"max ratio {rep.max_ratio:.4f} <= 0.2",
    )


def _prime_factors(q):
    out, p = [], 2
    while p * p <= q:
        if q % p == 0:
            out.append(p)
            while q % p == 0:
                q //= p
        p += 1
    if q > 1:
        out.append(q)
    return out


def test_criterion_08_compositum_counting(cubics_1e4, cyclic3_1e4):
    t0 = time.time()
    x = 10**12
    grid = default_grid(x, 16)
    rep = count_pairs(
        cubics_1e4, cyclic3_1e4, x, mode="interval", grid=grid, y_ladder=(10, 100, 1000)
    )
    ok = rep.n_lo[-1] == count_pairs_brute(cubics_1e4, cyclic3_1e4, x, mode="interval")
    # exact mode with a synthetic wild table at the marginal lower bound
    labels_k = {
        loc.wild_label for r in cubics_1e4 for loc in r.ramification if loc.kind == "wild"
    } | {"tame-2,1", "tame-3"}
    labels_l = {
        loc.wild_label for r in cyclic3_1e4 for loc in r.ramification if loc.kind == "wild"
    }
    entries = {}
    for kl in labels_k:
        vk = int(kl.rsplit("v", 1)[1]) if "v" in kl else (1 if kl == "tame-2,1" else 2)
        for ll in labels_l:
            entries[(kl, ll)] = max(3 * vk, 3 * 4)
    table = WildTable(entries)
    rep_exact = count_pairs(
        cubics_1e4, cyclic3_1e4, x, wild=table, mode="exact", grid=grid
    )
    ok = ok and rep_exact.n_exact[-1] == count_pairs_brute(
        cubics_1e4, cyclic3_1e4, x, wild=table, mode="exact"
    )
    # interval ordering and N_Y structure
    ok = ok and all(a <= b for a, b in zip(rep.n_lo, rep.n_hi))
    ys = sorted(rep.n_y)
    for y in ys:
        ok = ok and all(a <= b for a, b in zip(rep.n_y[y], rep.n_lo))
    for y1, y2 in zip(ys, ys[1:]):
        ok = ok and all(a <= b for a, b in zip(rep.n_y[y1], rep.n_y[y2]))
    # slow-variation proxy over the top decade, on both interval ends
    detail = ""
    for counts in (rep.n_lo, rep.n_hi):
        decade = [
            (g, c) for g, c in zip(rep.grid, counts) if g >= rep.grid[-1] / 10 and c > 0
        ]
        ratios = sorted(c / g ** (1 / 3) for g, c in decade)
        med = ratios[len(ratios) // 2]
        ok = ok and max(ratios) <= 2 * med
        detail = f"proxy max/median {max(ratios)/med:.3f}"
    elapsed = time.time() - t0
    _verdict(8, "compositum counting coherence", ok and elapsed < 600, elapsed, detail)


def test_criterion_09_euler_constant():
    t0 = time.time()
    ok1 = abs(c3_exact() - 29.8914) <= 1e-4
    v1 = euler_constant(10**6).value
    v2 = euler_constant(2 * 10**6).value
    ok2 = abs(v2 - v1) < 1e-4
    elapsed = time.time() - t0
    _verdict(
        9,
        "Euler product constant",
        ok1 and ok2 and elapsed < 30,
        elapsed,
        f"c3 {c3_exact():.5f}, partial {v1:.6f}, doubling moves {abs(v2-v1):.2e}",
    )


def test_criterion_10_sieve_experiments():
    t0 = time.time()
    # linear closed forms, exactly
    ok = True
    for n, k, r, q in [(2, 1, 10, 5), (2, 2, 10, 5), (3, 2, 30, 7)]:
        scheme = AffineScheme.coordinate_subspace(n, k)
        got = count_points_mod_q(scheme, r, q)
        want = (2 * (r // q) + 1) ** k * (2 * r + 1) ** (n - k)
        ok = ok and got == want
    # fitted q-exponents for linear schemes within +-0.1 of -k
    rep1 = scaling_experiment(
        AffineScheme.coordinate_subspace(2, 1),
        r_grid=[20, 50, 100, 200, 400],
        q_grid=[3, 5, 7, 11, 13, 17, 31],
    )
    ok = ok and abs(rep1.fitted_q_exponent - (-1)) <= 0.1
    rep2 = scaling_experiment(
        AffineScheme.coordinate_subspace(3, 2),
        r_grid=[30, 60, 120, 240, 480],
        q_grid=[3, 5, 7, 11, 13, 17, 31],
    )
    ok = ok and abs(rep2.fitted_q_exponent - (-2)) <= 0.1
    # binary cubic discriminant locus: codim-1 prediction window
    rep3 = scaling_experiment(
        binary_cubic_disc_scheme(),
        r_grid=[50, 100, 200, 400, 800],
        q_grid=[5, 7, 11, 13, 17, 23, 31, 41, 53],
    )
    ok = ok and -1.3 <= rep3.fitted_q_exponent <= -0.8
    # CRT multiplicativity, exact
    for rep in (rep1, rep2, rep3):
        for q1, q2, direct, prod in rep.crt_residuals:
            ok = ok and direct == prod
    s15 = solutions_mod_q(binary_cubic_disc_scheme(), 15)
    s3 = solutions_mod_q(binary_cubic_disc_scheme(), 3)
    s5 = solutions_mod_q(binary_cubic_disc_scheme(), 5)
    ok = ok and s15.shape[0] == s3.shape[0] * s5.shape[0]
    elapsed = time.time() - t0
    _verdict(
        10,
        "sieve experiments",
        ok and elapsed < 300,
        elapsed,
        f"q-exponents {rep1.fitted_q_exponent:.2f}, {rep2.fitted_q_exponent:.2f}, "
        f"{rep3.fitted_q_exponent:.2f}",
    )
