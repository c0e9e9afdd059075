import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from malle_lab.arith import iroot, is_prime, primes_upto
from malle_lab.convolve import empirical_fit
from malle_lab.counting import (
    EulerReport,
    WildTable,
    _log_factors,
    _over_square,
    c3_exact,
    compose_disc,
    count_pairs,
    count_pairs_brute,
    default_grid,
    disc_product_bound,
    disc_truncated,
    euler_constant,
)
from malle_lab.errors import (
    InadmissiblePair,
    IncompleteList,
    InvariantViolation,
    MissingWildEntry,
)
from malle_lab.fields.cubic import enumerate_cubic
from malle_lab.fields.cyclic import enumerate_cyclic
from malle_lab.fields.records import FieldList, FieldRecord, LocalRamification
from malle_lab.invariants import product_a, product_b
from malle_lab.permgroup import CycleType
from malle_lab.tamecomp import AbelianGroupSpec, min_index_abelian


def tame(p, parts):
    ct = CycleType.from_parts(parts)
    from malle_lab.permgroup import index_of

    return LocalRamification(
        p=p, kind="tame", disc_exponent=index_of(ct), tame_cycle_type=ct
    )


def wild(p, label, exp):
    return LocalRamification(p=p, kind="wild", disc_exponent=exp, wild_label=label)


def rec(degree, group, sign, ram):
    prod = 1
    for loc in ram:
        prod *= loc.p**loc.disc_exponent
    return FieldRecord(
        degree=degree,
        group_label=group,
        abs_disc=prod,
        ramification=tuple(ram),
        disc_sign=sign,
    )


K23 = rec(3, "S3", -1, [tame(23, [2, 1])])
L7 = rec(3, "C3", 1, [tame(7, [3])])
K7 = rec(3, "S3", -1, [tame(7, [2, 1]), tame(23, [2, 1])])  # |disc| = 161
L7_13 = rec(3, "C3", 1, [tame(7, [3]), tame(13, [3])])


def test_compose_disjoint_ramification():
    assert compose_disc(K23, L7) == 23**3 * 7**6
    assert compose_disc(K23, L7) == disc_product_bound(K23, L7)


def test_compose_shared_tame_prime():
    # at 7: ind((12), c3) = 7 instead of 1*3 + 2*3 = 9
    d = compose_disc(K7, L7)
    assert d == 7**7 * 23**3


def test_compose_unramified_pair_is_one():
    # hypothetical unramified records are not constructible (disc >= 1 with
    # empty ramification gives abs_disc = 1)
    k0 = FieldRecord(degree=3, group_label="S3", abs_disc=1, ramification=(), disc_sign=1)
    l0 = FieldRecord(degree=3, group_label="C3", abs_disc=1, ramification=(), disc_sign=1)
    assert compose_disc(k0, l0) == 1


def test_compose_inadmissible():
    bad = rec(4, "C4", 1, [tame(5, [4])])
    with pytest.raises(InadmissiblePair):
        compose_disc(K23, bad)  # C4 even order
    with pytest.raises(InadmissiblePair):
        compose_disc(rec(3, "C3", 1, [tame(7, [3])]), L7)  # left not S_n


def test_compose_wild_needs_table():
    kw = rec(3, "S3", -1, [wild(3, "3-e3-v4", 4), tame(23, [2, 1])])
    lw = rec(3, "C3", 1, [wild(3, "3-C3-cond-9", 4)])
    with pytest.raises(MissingWildEntry):
        compose_disc(kw, lw, mode="exact")
    lo, hi = compose_disc(kw, lw, mode="interval")
    # at 3: lo exponent max(3*4, 3*4) = 12, hi 24; at 23: exact 3
    assert lo == 3**12 * 23**3 and hi == 3**24 * 23**3
    table = WildTable({("3-e3-v4", "3-C3-cond-9"): 14})
    assert compose_disc(kw, lw, wild=table) == 3**14 * 23**3


def test_wild_table_from_json_refuses_other_json_types():
    row = {"k_label": "3-e3-v4", "l_label": "3-C3-cond-9", "exp": 14}
    assert WildTable.from_json({"pairs": [row]}).entries == {("3-e3-v4", "3-C3-cond-9"): 14}
    # outside values are not coerced: 14.7 is not read as 14, nor 3 as "3"
    for bad in ({"exp": 14.7}, {"exp": True}, {"k_label": 3}):
        with pytest.raises(TypeError):
            WildTable.from_json({"pairs": [{**row, **bad}]})


def test_wild_table_from_json_refuses_a_repeated_label_pair():
    rows = [{"k_label": "3-e3-v4", "l_label": "3-C3-cond-9", "exp": e} for e in (12, 14)]
    with pytest.raises(ValueError, match="3-e3-v4.*3-C3-cond-9"):
        WildTable.from_json({"pairs": rows})


def test_compose_wild_one_sided_is_exact():
    kw = rec(3, "S3", -1, [wild(3, "3-e3-v4", 4)])
    l5 = rec(5, "C5", 1, [tame(11, [5])])
    # wild 3 only in K: product rule, no table needed
    assert compose_disc(kw, l5) == 3 ** (4 * 5) * 11 ** (4 * 3)


def test_wild_table_bound_validation():
    kw = rec(3, "S3", -1, [wild(3, "3-e3-v4", 4)])
    lw = rec(3, "C3", 1, [wild(3, "3-C3-cond-9", 4)])
    table = WildTable({("3-e3-v4", "3-C3-cond-9"): 25})  # above 3*4 + 3*4
    with pytest.raises(InvariantViolation):
        compose_disc(kw, lw, wild=table)


def test_wild_entry_below_the_tower_bound_is_refused():
    # Disc(KL) >= Disc(K)^3 and >= Disc(L)^3, so v_3 >= max(3*4, 3*4) = 12
    kw = rec(3, "S3", -1, [wild(3, "3-e3-v4", 4)])
    lw = rec(3, "C3", 1, [wild(3, "3-C3-cond-9", 4)])
    key = ("3-e3-v4", "3-C3-cond-9")
    assert compose_disc(kw, lw, wild=WildTable({key: 12})) == 3**12
    low = WildTable({key: 11})
    ks = FieldList(records=(kw,), provenance="ingested", x_max=81)
    ls = FieldList(records=(lw,), provenance="ingested", x_max=81)
    x = 3**12  # both windows reach 81, and the pair's lcm bound is x
    for call in (
        lambda: compose_disc(kw, lw, wild=low),
        lambda: disc_truncated(kw, lw, low, 3),
        lambda: count_pairs(ks, ls, x, wild=low, grid=[x]),
        lambda: count_pairs_brute(ks, ls, x, wild=low),
    ):
        with pytest.raises(InvariantViolation, match=r"wild exponent 11 at p=3 outside \[12, 24\]"):
            call()
    # below the cutoff the table is not read
    assert disc_truncated(kw, lw, low, 2) == 3**24


def test_disc_truncated_divides_the_product_bound():
    w = WildTable()
    # Y = 1: full product bound
    assert disc_truncated(K7, L7, w, 1) == disc_product_bound(K7, L7)
    # Y beyond all primes: exact
    assert disc_truncated(K7, L7, w, 100) == compose_disc(K7, L7)
    # shared prime 7 with Y = 7: exact exponent 7 at p=7, product rule at 23
    assert disc_truncated(K7, L7, w, 7) == 7**7 * 23**3
    # d_Sigma, the deficit at the shared primes <= Y, divides the product bound
    bound = disc_product_bound(K7, L7)
    assert bound // disc_truncated(K7, L7, w, 7) == 7**2
    assert bound // disc_truncated(K7, L7, w, 1) == 1
    assert bound // disc_truncated(K7, L7, w, 5) == 1  # below all shared primes
    for y in (1, 7, 23, 100):
        assert bound % disc_truncated(K7, L7, w, y) == 0


@pytest.fixture(scope="module")
def lists_1e4():
    return enumerate_cubic(10**4), enumerate_cyclic(3, 10**4)


def test_count_pairs_zero_below_smallest(lists_1e4):
    cubics, abelians = lists_1e4
    rep = count_pairs(cubics, abelians, 10**6, mode="interval", grid=[10**6])
    assert rep.n_hi == (0,)


def test_count_pairs_matches_brute(lists_1e4):
    cubics, abelians = lists_1e4
    x = 10**12
    rep = count_pairs(
        cubics, abelians, x, mode="interval", grid=default_grid(x, 12), y_ladder=(10, 100)
    )
    # brute loop over the full lists, counting by the same (pessimistic) end
    assert rep.n_lo[-1] == count_pairs_brute(cubics, abelians, x, mode="interval")
    # monotonicity in Y, domination by N
    for i, y in enumerate(sorted(rep.n_y)):
        assert all(a <= b for a, b in zip(rep.n_y[y], rep.n_lo))
    ys = sorted(rep.n_y)
    for y1, y2 in zip(ys, ys[1:]):
        assert all(a <= b for a, b in zip(rep.n_y[y1], rep.n_y[y2]))
    # interval sanity
    assert all(a <= b for a, b in zip(rep.n_lo, rep.n_hi))


def test_count_pairs_repeated_rung_counts_once(lists_1e4):
    # each sharing pair once per distinct Y: a repeated rung once gave
    # N_10 = 125 for (10, 10) and N_100 = 167 for (100, 10, 100)
    cubics, abelians = lists_1e4
    x = 10**12
    grid = default_grid(x, 12)
    once = count_pairs(cubics, abelians, x, mode="interval", grid=grid, y_ladder=(10, 100))
    assert once.n_y[10][-1] == 79 and once.n_y[100][-1] == once.n_lo[-1] == 100
    for ladder in ((10, 10), (100, 10, 100)):
        rep = count_pairs(cubics, abelians, x, mode="interval", grid=grid, y_ladder=ladder)
        assert rep.n_y == {y: once.n_y[y] for y in ladder}


def test_count_pairs_exact_mode_with_table(lists_1e4):
    cubics, abelians = lists_1e4
    x = 10**11
    # synthetic wild table covering every label pair, values at the product bound
    labels_k = {loc.wild_label for r in cubics for loc in r.ramification if loc.kind == "wild"}
    labels_k |= {"tame-2,1"}
    labels_l = {loc.wild_label for r in abelians for loc in r.ramification if loc.kind == "wild"}
    entries = {}
    for kl in labels_k:
        for ll in labels_l:
            vk = int(kl.rsplit("v", 1)[1]) if kl.startswith("3-e3") else 1
            vl = 4
            entries[(kl, ll)] = max(3 * vk, 3 * vl)
    table = WildTable(entries)
    rep = count_pairs(cubics, abelians, x, wild=table, mode="exact", grid=[x // 2, x])
    assert rep.n_exact[-1] == count_pairs_brute(cubics, abelians, x, wild=table)


def test_count_pairs_incomplete_window(lists_1e4):
    cubics, abelians = lists_1e4
    with pytest.raises(IncompleteList):
        count_pairs(cubics, abelians, 10**13, mode="interval")


def test_count_pairs_windows_are_exact_integer_roots(lists_1e4):
    cubics, abelians = lists_1e4
    # the cube root of 10^400 has no float; the windows need lists to 10^133
    with pytest.raises(IncompleteList, match="window needs 2154434690031883721"):
        count_pairs(cubics, abelians, 10**400, mode="interval")
    # slack 1 keeps the root 2^53 + 1, which the K list does not reach
    big = 2**53 + 1
    ks = FieldList(records=(K23,), provenance="ingested", x_max=big - 1)
    ls = FieldList(records=(L7,), provenance="ingested", x_max=big)
    with pytest.raises(IncompleteList, match=f"window needs {big}"):
        count_pairs(ks, ls, big**3, mode="interval")
    ks = FieldList(records=(K23,), provenance="ingested", x_max=big)
    assert count_pairs(ks, ls, big**3, mode="interval", grid=[big**3]).n_lo == (1,)


def test_count_pairs_s3_c5_exact_no_table():
    # restrict C_5 to tame conductors (25 excluded): every shared prime is
    # then tame in both fields, so exact mode needs no wild table
    cubics = enumerate_cubic(10**4)
    ab_all = enumerate_cyclic(5, 10**10)
    tame_only = FieldList(
        records=tuple(
            r for r in ab_all if all(loc.kind == "tame" for loc in r.ramification)
        ),
        provenance="enumerated",
        x_max=ab_all.x_max,
    )
    x = 10**20
    # K window: x^(1/5) = 10^4; L window: x^(1/3) < 10^7
    rep = count_pairs(cubics, tame_only, x, mode="exact", grid=[x // 4, x // 2, x])
    assert rep.n_exact[-1] == count_pairs_brute(cubics, tame_only, x)
    assert rep.n_exact[-1] > 0


def test_mixed_lists_are_refused_where_they_are_made():
    # count_pairs once refused the first two lists, and summed over the two
    # groups of the third
    k4 = rec(4, "S4", 1, [tame(5, [2, 1, 1])])  # |disc| = 5
    l5 = rec(5, "C5", 1, [tame(11, [5])])  # |disc| = 11^4
    c3xc3 = rec(9, "C3xC3", 1, [tame(7, [3, 3, 3])])  # |disc| = 7^6
    c9 = rec(9, "C9", 1, [tame(19, [9])])  # |disc| = 19^8
    for records, message in (
        ((k4, K23), "a degree-3 S3 record in a list of degree-4 S4 records"),
        ((L7, l5), "a degree-5 C5 record in a list of degree-3 C3 records"),
        ((c3xc3, c9), "a degree-9 C9 record in a list of degree-9 C3xC3 records"),
    ):
        FieldList(records=records[:1], provenance="ingested", x_max=10**12)
        with pytest.raises(InvariantViolation) as exc:
            FieldList(records=records, provenance="ingested", x_max=10**12)
        assert str(exc.value) == message


def _relabelled(field_list, labels):
    records = list(field_list.records)
    for i, label in labels.items():
        records[i] = replace(records[i], group_label=label)
    return FieldList(records=tuple(records), provenance="ingested", x_max=field_list.x_max)


def test_count_pairs_inadmissible_label_late_in_a_list(lists_1e4):
    """A label late in a list is refused where the list is made; a list all of
    one inadmissible label is refused by count_pairs."""
    cubics, abelians = lists_1e4
    x = 10**12  # both windows reach 10^4, the end of both lists

    def error(ks, ls):
        with pytest.raises(InadmissiblePair) as excinfo:
            count_pairs(ks, ls, x, mode="interval")
        return str(excinfo.value)

    def all_of(field_list, label):
        return _relabelled(field_list, dict.fromkeys(range(len(field_list)), label))

    for field_list, label, kind in ((cubics, "C3", "S3"), (abelians, "S3", "C3")):
        with pytest.raises(InvariantViolation) as exc:
            _relabelled(field_list, {-1: label})
        assert str(exc.value) == f"a degree-3 {label} record in a list of degree-3 {kind} records"
    assert error(all_of(cubics, "C3"), abelians) == "left field must be S3/S4/S5, got C3"
    assert error(cubics, all_of(abelians, "S3")) == "right field must be abelian (C...), got S3"
    # the K label is checked first, and a label's degree is checked
    assert error(all_of(cubics, "C3"), all_of(abelians, "S3")) == (
        "left field must be S3/S4/S5, got C3"
    )
    assert error(all_of(cubics, "S4"), abelians) == "S4 field with degree 3"


def test_count_pairs_checks_admissibility_once_per_label(lists_1e4, monkeypatch):
    import malle_lab.counting as counting

    cubics, abelians = lists_1e4
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("_check_labels", "compose_disc", "disc_truncated"):
        monkeypatch.setattr(counting, name, counted(name, getattr(counting, name)))
    count_pairs(cubics, abelians, 10**12, mode="interval", y_ladder=(10, 100))
    assert calls["compose_disc"] > 0 and calls["disc_truncated"] > 0
    # one check of the two lists' kinds, then one in every composition
    assert calls["_check_labels"] == 1 + calls["compose_disc"] + calls["disc_truncated"]


def test_admissibility_is_decided_once_per_label_pair(lists_1e4):
    import malle_lab.counting as counting

    cubics, abelians = lists_1e4
    counting._check_labels.cache_clear()
    count_pairs(cubics, abelians, 10**12, mode="interval", y_ladder=(10, 100))
    info = counting._check_labels.cache_info()
    assert info.misses == 1 and info.hits > 100
    # a refusal is never cached: every direct call raises
    bad = rec(4, "C4", 1, [tame(5, [4])])
    for _ in range(2):
        with pytest.raises(InadmissiblePair):
            compose_disc(K23, bad)
        with pytest.raises(InadmissiblePair):
            disc_truncated(K23, bad, WildTable(), 10)
    # 3 and 3.0 hash alike, but gcd refuses the float as before
    float_degree = replace(L7, degree=3.0)
    compose_disc(K23, L7)
    with pytest.raises(TypeError):
        compose_disc(K23, float_degree)


def test_count_pairs_calls_the_hyperbola_count_through_convolve(lists_1e4, monkeypatch):
    # a tracer that swaps convolve.product_count_exact must see these calls
    import malle_lab.convolve as convolve

    cubics, abelians = lists_1e4
    calls = []
    original = convolve.product_count_exact
    monkeypatch.setattr(convolve, "product_count_exact",
                        lambda *args: calls.append(args) or original(*args))
    count_pairs(cubics, abelians, 10**12, mode="interval", grid=[10**11, 10**12])
    assert len(calls) == 2


def test_count_pairs_empty_list_reports_like_nonempty(lists_1e4):
    cubics, abelians = lists_1e4
    empty = FieldList(records=(), provenance="ingested", x_max=10)
    rep = count_pairs(empty, abelians, 100, grid=[50, 1000])
    full = count_pairs(cubics, abelians, 100, grid=[50, 1000])
    assert rep.grid == full.grid == (50,)
    assert rep.fit_exponent == full.fit_exponent == Fraction(1, 3)
    assert rep.n_lo == rep.n_hi == full.n_lo == (0,)
    assert count_pairs(empty, abelians, 100).grid == tuple(default_grid(100))
    # no abelian record to take a degree from
    assert count_pairs(cubics, empty, 100).fit_exponent == 1
    # the other list still fixes the window the empty list must be complete to
    with pytest.raises(IncompleteList, match="S_n list complete to 10, window needs 10000"):
        count_pairs(empty, abelians, 10**12)
    with pytest.raises(IncompleteList, match="abelian list complete to 10, window needs 10000"):
        count_pairs(cubics, empty, 10**12)


@pytest.mark.parametrize("l, x", [(3, 64 * 10**12), (5, 5 * 10**22)], ids=["S3xC3", "S3xC5"])
def test_count_pairs_fit_follows_the_product_slope_rule(l, x):
    # the K window is X^(1/l) <= 4e4; each grid spans three decades of pairs
    cubics = enumerate_cubic(4 * 10**4)
    rep = count_pairs(cubics, enumerate_cyclic(l, iroot(x, 3)), x, mode="interval")
    spec = AbelianGroupSpec((l,))
    a_ab = min_index_abelian(spec)
    # a(S_3) = b(S_3) = b(C_l) = 1
    assert rep.fit_exponent == Fraction(1, product_a(1, 3, a_ab, spec.order))
    counts = [(g, c) for g, c in zip(rep.grid, rep.n_lo) if c > 0]
    logpower = product_b(1, 3, 1, a_ab, spec.order, 1) - 1
    assert rep.fit is not None
    assert rep.fit == empirical_fit(counts, rep.fit_exponent, logpower)


def test_default_grid():
    g = default_grid(1024, 5)
    assert g == [64, 128, 256, 512, 1024]
    # x_max >> k is 0 from k = x_max.bit_length() on: no more points to make
    assert default_grid(10**15, 10**12) == default_grid(10**15, 50)


def test_euler_c3():
    assert abs(c3_exact() - 29.8914) < 1e-4


def test_euler_partial_product():
    rep5 = euler_constant(5)
    assert rep5.value == pytest.approx(2 * c3_exact() * (31 / 25) * (4 / 5))
    v1 = euler_constant(10**4).value
    v2 = euler_constant(2 * 10**4).value
    v3 = euler_constant(4 * 10**4).value
    assert abs(v2 - v1) > abs(v3 - v2)  # shrinking increments


def log_factor_scalar(p):
    """Oracle: ln c_p of one prime p >= 5, in Python floats."""
    if p % 3 == 1:
        cp = (1 + 1 / p + 5 / p**2 + 2 / p ** (7 / 3)) * (1 - 1 / p)
    else:
        cp = (1 + 1 / p + 1 / p**2) * (1 - 1 / p)
    return math.log(cp)


def euler_constant_loop(p_max):
    """Oracle: `euler_constant` as a loop over the primes in Python floats,
    summing in order of p; the columns must give every field bit for bit."""
    log_sum = log_tail = 0.0
    for p in primes_upto(p_max):
        if p < 5:
            continue
        lg = log_factor_scalar(p)
        log_sum += lg
        if p > p_max / 10:
            log_tail += abs(lg)
    c3 = c3_exact()
    return EulerReport(p_max, 2.0 * c3 * math.exp(log_sum), c3, log_tail)


# p_max / 10 is the prime 7, 11 or 13, or lies next to it, at 70, 71, 110, 130 and 131
_P_MAX = [5, 6, 7, 8, 11, 12, 13, 49, 50, 70, 71, 100, 110, 130, 131, 1000, 10**4, 12_345,
          10**5, 10**6, 2 * 10**6]


@pytest.mark.parametrize("p_max", _P_MAX)
def test_euler_constant_equals_scalar_loop(p_max):
    # repr tells the float bits apart, and np.float64 from float
    assert repr(euler_constant(p_max)) == repr(euler_constant_loop(p_max))


def test_log_factors_equal_scalar_formula():
    # numpy's log and power differ from math.log and math.pow in the last bit
    # at some of these p, a difference that the two sums can hide
    p = primes_upto(2 * 10**6)[2:]
    assert _log_factors(np.array(p)).tolist() == [log_factor_scalar(q) for q in p]


def test_over_square_rounds_once_past_float_squares():
    # past p = isqrt(2^53), p^2 is no float64, and numpy's num / p^2 would
    # round twice: 5 / p^2 or 1 / p^2 then differs in the last bit at many p
    p = [n for n in range(94_906_200, 94_906_400) if is_prime(n)]
    p += [n for n in range(2**31 - 3000, 2**31) if is_prime(n)]
    assert p[0] ** 2 < 2**53 < p[-1] ** 2
    num = [5 if q % 3 == 1 else 1 for q in p]
    got = _over_square(np.array(num), np.array(p))
    assert got.tolist() == [c / q**2 for c, q in zip(num, p)]
    got = _log_factors(np.array(p))
    assert got.tolist() == [log_factor_scalar(q) for q in p]


_K7 = rec(3, "S3", -1, [tame(7, (2, 1))])
_L9 = rec(3, "C3", 1, [wild(3, "3-C3-cond-9", 4)])


@pytest.mark.parametrize("call, error, message", [
    (lambda: compose_disc(_K7, _L9, mode="both"), ValueError, "mode must be exact or interval"),
    (lambda: count_pairs(enumerate_cubic(100), enumerate_cyclic(3, 100), 10**4,
                         mode="interval").n_exact,
     ValueError, "exact counts only in exact mode"),
    (lambda: count_pairs(enumerate_cubic(100), enumerate_cyclic(3, 100), 10**4, mode="both"),
     ValueError, "mode must be exact or interval"),
    (lambda: euler_constant(4), ValueError, "p_max must be >= 5"),
], ids=["compose-mode", "n-exact-in-interval-mode", "count-mode", "euler-p-max"])
def test_counting_refusals(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
