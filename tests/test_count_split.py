"""count_pairs (coprime split) against a double loop over every windowed pair.

The oracle below composes each windowed pair with compose_disc and
disc_truncated, checks lo <= hi <= product bound, and counts it at every
grid point; the full report of
count_pairs must agree with it on random sublists, bounds, grids, Y ladders
and wild tables.  The lcm lower bound that lets count_pairs skip a sharing
pair is checked against compose_disc on every sharing pair.
"""

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from malle_lab.counting import (  # noqa: E402
    WildTable,
    _local_exponent,
    compose_disc,
    count_pairs,
    default_grid,
    disc_product_bound,
    disc_truncated,
)
from malle_lab.errors import IncompleteList, InvariantViolation  # noqa: E402
from malle_lab.fields.cubic import enumerate_cubic  # noqa: E402
from malle_lab.fields.cyclic import enumerate_cyclic  # noqa: E402
from malle_lab.fields.records import FieldList  # noqa: E402


@lru_cache(maxsize=None)
def cubics():
    return enumerate_cubic(10**4)


@lru_cache(maxsize=None)
def abelians(name):
    if name == "C3":
        return enumerate_cyclic(3, 10**4)
    ab = enumerate_cyclic(5, 10**10)
    tame = tuple(r for r in ab if all(loc.kind == "tame" for loc in r.ramification))
    return FieldList(records=tame, provenance="enumerated", x_max=ab.x_max)


# X is mostly drawn from about where pairs start to count (the smallest
# product bound is 1.4e9 for C3 and 2e19 for tame C5) to a little past where
# the K window X^(1/degL) outgrows the cubic list, complete to 10^4
X_RANGE = {"C3": (10**9, 11 * 10**11), "C5": (2 * 10**19, 11 * 10**19)}


def iroot(n, k):
    r = int(round(n ** (1.0 / k)))
    while r > 0 and r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def local_key(loc):
    if loc.kind == "tame":
        return "tame-" + ",".join(map(str, loc.tame_cycle_type.parts))
    return loc.wild_label


def local_exponents(field_list):
    return {local_key(loc): loc.disc_exponent for r in field_list for loc in r.ramification}


def marginal_table(ks, ls):
    """Every label pair at its tower bound max(3 vK, 3 vL), the least exponent allowed."""
    return WildTable({
        (kl, ll): max(3 * vk, 3 * vl)
        for (kl, vk), (ll, vl) in product(local_exponents(ks).items(), local_exponents(ls).items())
    })


def oracle(ks, ls, x, wild, mode, y_ladder, grid):
    """Counts over every windowed pair."""
    deg_k, deg_l = ks.records[0].degree, ls.records[0].degree
    k_window, l_window = iroot(x, deg_l), iroot(x, deg_k)
    n_lo, n_hi = [0] * len(grid), [0] * len(grid)
    n_y = {y: [0] * len(grid) for y in y_ladder}
    for k in ks:
        for l in ls:
            if k.abs_disc > k_window or l.abs_disc > l_window:
                continue
            if mode == "exact":
                lo = hi = compose_disc(k, l, wild, "exact")
                trunc = {y: disc_truncated(k, l, wild, y, "exact") for y in y_ladder}
            else:
                lo, hi = compose_disc(k, l, wild, "interval")
                trunc = {y: disc_truncated(k, l, wild, y, "interval")[1] for y in y_ladder}
            assert lo <= hi <= disc_product_bound(k, l), (k, l)
            for i, g in enumerate(grid):
                n_lo[i] += hi <= g
                n_hi[i] += lo <= g
                for y in y_ladder:
                    n_y[y][i] += trunc[y] <= g
    return tuple(n_lo), tuple(n_hi), {y: tuple(v) for y, v in n_y.items()}


@st.composite
def sublist(draw, field_list):
    """A random share of the first records, where the pairs under X are,
    and a few from anywhere in the list."""
    n = len(field_list)
    head_max = min(n, 300)
    head = field_list.records[: head_max - draw(st.integers(0, head_max - 1))]
    rng = draw(st.randoms(use_true_random=False))
    share = draw(st.sampled_from([1.0, 0.6, 0.2]))
    picked = {i for i in range(len(head)) if rng.random() < share}
    picked |= draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=5))
    return FieldList(
        records=tuple(field_list.records[i] for i in sorted(picked)),
        provenance="enumerated",
        x_max=field_list.x_max,
    )


@st.composite
def count_inputs(draw):
    side = draw(st.sampled_from(["C3", "C5"]))
    ks = draw(sublist(cubics()))
    ls = draw(sublist(abelians(side)))
    x_low, x_high = X_RANGE[side]
    x = draw(st.one_of(st.integers(1, x_high), st.integers(x_low, x_high)))
    grid = draw(st.one_of(
        st.none(),
        st.lists(st.integers(x // 1000, 2 * x), min_size=1, max_size=6),
    ))
    y_ladder = tuple(draw(st.lists(st.integers(1, 2000), max_size=3, unique=True)))
    return ks, ls, x, grid, y_ladder


def check_against_oracle(ks, ls, x, wild, mode, grid, y_ladder):
    kwargs = dict(wild=wild, mode=mode, y_ladder=y_ladder, grid=grid)
    deg_k, deg_l = ks.records[0].degree, ls.records[0].degree
    if iroot(x, deg_l) > ks.x_max or iroot(x, deg_k) > ls.x_max:
        with pytest.raises(IncompleteList):
            count_pairs(ks, ls, x, **kwargs)
        return
    rep = count_pairs(ks, ls, x, **kwargs)
    grid = tuple(sorted(g for g in (default_grid(x) if grid is None else grid) if g <= x))
    assert rep.grid == grid
    assert (rep.n_lo, rep.n_hi, rep.n_y) == oracle(ks, ls, x, wild, mode, y_ladder, grid)


@settings(max_examples=60)
@given(count_inputs())
def test_interval_split_matches_double_loop(inputs):
    ks, ls, x, grid, y_ladder = inputs
    check_against_oracle(ks, ls, x, WildTable(), "interval", grid, y_ladder)


@settings(max_examples=60)
@given(count_inputs(), st.data())
def test_exact_split_matches_double_loop(inputs, data):
    ks, ls, x, grid, y_ladder = inputs
    # every label pair gets an exponent between the tower bound max(3 vK, 3 vL)
    # and the product bound 3 vK + 3 vL
    entries = {}
    for (kl, vk), (ll, vl) in product(
        sorted(local_exponents(cubics()).items()),
        sorted(local_exponents(abelians("C3")).items()),
    ):
        entries[(kl, ll)] = data.draw(st.integers(max(3 * vk, 3 * vl), 3 * vk + 3 * vl))
    check_against_oracle(ks, ls, x, WildTable(entries), "exact", grid, y_ladder)


@pytest.mark.parametrize("side, x", [("C3", 10**12), ("C5", 10**20)])
@pytest.mark.parametrize("mode", ["interval", "exact"])
def test_full_lists_match_double_loop(side, x, mode):
    """Every pair of the full lists, where a few sharing pairs have their
    product bound under X; exact mode with a table at the tower bound.  A
    table below the tower bound is refused input."""
    ks, ls = cubics(), abelians(side)
    table = marginal_table(ks, ls)
    check_against_oracle(ks, ls, x, table, mode, None, (10, 100, 1000))
    if mode == "exact" and side == "C3":
        low = WildTable({key: 1 for key in table.entries})
        with pytest.raises(InvariantViolation):
            count_pairs(ks, ls, x // 10, wild=low, mode=mode, grid=[x // 100], y_ladder=(10**4,))


def test_acceptance_08_report_is_pinned():
    """Full interval report of acceptance criterion 08 (X = 10^12)."""
    x = 10**12
    rep = count_pairs(cubics(), abelians("C3"), x, mode="interval",
                      grid=default_grid(x, 16), y_ladder=(10, 100, 1000))
    assert rep.grid == tuple(x >> k for k in range(15, -1, -1))
    assert rep.n_hi == (1, 3, 4, 6, 9, 14, 18, 22, 29, 38, 53, 73, 92, 122, 155, 204)
    assert rep.n_lo == (0, 0, 0, 1, 2, 4, 7, 9, 12, 16, 27, 36, 43, 58, 76, 100)
    assert rep.n_y == {
        10: (0, 0, 0, 1, 1, 3, 5, 7, 10, 13, 22, 29, 34, 46, 59, 79),
        100: rep.n_lo,
        1000: rep.n_lo,
    }
    assert rep.fit_exponent == Fraction(1, 3)
    assert (rep.fit.coefficient, rep.fit.residual, rep.fit.points_used) == (
        0.009345581520154154, 0.07977903981108829, 4)


def sharing_pairs(ks, ls):
    """(K, L, shared primes) for every pair whose discriminants share a prime."""
    for k in ks:
        k_primes = set(k.ramified_primes)
        for l in ls:
            shared = k_primes.intersection(l.ramified_primes)
            if shared:
                yield k, l, shared


def lcm_bound(k, l):
    return math.lcm(k.abs_disc**l.degree, l.abs_disc**k.degree)


@pytest.mark.parametrize("side", ["C3", "C5"])
def test_lcm_bound_is_below_every_sharing_pair(side):
    """lcm(Disc(K)^degL, Disc(L)^degK) <= the interval lower end and the
    exact value of every sharing pair, the latter under a table at the
    tower bound when a shared prime is wild."""
    ks, ls = cubics(), abelians(side)
    table = marginal_table(ks, ls)
    tame_pairs = wild_pairs = 0
    for k, l, shared in sharing_pairs(ks, ls):
        bound = lcm_bound(k, l)
        assert bound <= compose_disc(k, l, mode="interval")[0]
        assert bound <= compose_disc(k, l, table, mode="exact")
        if any("wild" in (k.local_at(p).kind, l.local_at(p).kind) for p in shared):
            wild_pairs += 1
        else:
            tame_pairs += 1
    assert tame_pairs > 100
    assert (wild_pairs > 100) == (side == "C3")


def per_prime_disc(k, l, wild, mode, y=None):
    """Oracle (tests only): Disc(KL), or Disc_Y(KL), as a product prime by prime.

    The product rule n vK + m vL at every prime of either field, but at a
    prime ramified in both (and <= y, when given) the exponent that
    `_local_exponent` decides.  `_compose` instead divides the product bound
    by each shared prime's deficit, so the two assemble the value apart.
    """
    m, n = k.degree, l.degree
    lo = hi = 1
    for p in sorted({*k.ramified_primes, *l.ramified_primes}):
        k_loc, l_loc = k.local_at(p), l.local_at(p)
        if k_loc is None or l_loc is None or y is not None and p > y:
            elo = ehi = n * (k_loc.disc_exponent if k_loc else 0) + m * (
                l_loc.disc_exponent if l_loc else 0)
        else:
            elo, ehi = _local_exponent(k_loc, l_loc, m, n, wild, mode)
        lo *= p**elo
        hi *= p**ehi
    return lo if mode == "exact" else (lo, hi)


@pytest.mark.parametrize("side", ["C3", "C5"])
@pytest.mark.parametrize("mode", ["interval", "exact"])
def test_deficits_match_the_per_prime_product(side, mode):
    """compose_disc and disc_truncated against the per-prime oracle, exactly,
    on every sharing pair, under a table at the tower bound."""
    ks, ls = cubics(), abelians(side)
    table = marginal_table(ks, ls)
    pairs = wild_pairs = 0
    for k, l, shared in sharing_pairs(ks, ls):
        assert compose_disc(k, l, table, mode) == per_prime_disc(k, l, table, mode), (k, l)
        for y in (1, 2, 3, 7, 100):
            assert disc_truncated(k, l, table, y, mode) == per_prime_disc(k, l, table, mode, y)
        pairs += 1
        wild_pairs += any("wild" in (k.local_at(p).kind, l.local_at(p).kind) for p in shared)
    assert pairs > 100
    assert (wild_pairs > 100) == (side == "C3")


def check_composes_only_pairs_within_the_lcm_bound(monkeypatch, mode):
    """Each sharing pair within its lcm bound is composed once, and no other pair.

    Records are views made on demand, so pairs are compared as values, with
    their multiplicity: distinct fields with equal records count apart.
    """
    import malle_lab.counting as counting

    x = 10**12  # both windows cover the full 10^4 lists
    ks, ls = cubics(), abelians("C3")
    composed = []
    real = counting.compose_disc

    def spy(k, l, *args, **kwargs):
        composed.append((k, l))
        return real(k, l, *args, **kwargs)

    monkeypatch.setattr(counting, "compose_disc", spy)
    count_pairs(ks, ls, x, wild=marginal_table(ks, ls), mode=mode, y_ladder=(10, 100))
    within = [(k, l) for k, l, _ in sharing_pairs(ks, ls) if lcm_bound(k, l) <= x]
    assert len(composed) == len(within) > 0
    assert Counter(composed) == Counter(within)


def test_interval_count_composes_only_pairs_within_the_lcm_bound(monkeypatch):
    check_composes_only_pairs_within_the_lcm_bound(monkeypatch, "interval")


def test_exact_count_composes_only_pairs_within_the_lcm_bound(monkeypatch):
    check_composes_only_pairs_within_the_lcm_bound(monkeypatch, "exact")


def test_pair_at_its_lcm_bound_is_counted():
    """A pair sharing only the wild prime 3 has interval lower end equal to
    the lcm, so at X = lcm it counts in n_hi and at X = lcm - 1 it does not."""
    l81 = next(l for l in abelians("C3") if l.abs_disc == 81)
    k = next(k for k in cubics() if k.local_at(3) is not None and k.local_at(3).kind == "wild")
    bound = lcm_bound(k, l81)
    assert compose_disc(k, l81, mode="interval")[0] == bound
    ks = FieldList(records=(k,), provenance="enumerated", x_max=10**6)
    ls = FieldList(records=(l81,), provenance="enumerated", x_max=10**6)
    for x, n_hi in [(bound, (1,)), (bound - 1, (0,))]:
        assert count_pairs(ks, ls, x, mode="interval", grid=[x]).n_hi == n_hi
