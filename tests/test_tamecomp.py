import itertools
from fractions import Fraction
from math import lcm

import pytest

from malle_lab import tamecomp
from malle_lab.arith import divisors
from malle_lab.errors import HypothesisViolated, IncompleteRkTable, TrivialGroup
from malle_lab.permgroup import CycleType, index_of, product_index_general
from malle_lab.tamecomp import (
    DEFAULT_RK,
    AbelianGroupSpec,
    RkTable,
    _min_ratio,
    _orders,
    disc_table,
    ind_abelian,
    min_index_abelian,
    nonidentity_classes,
    verify_delta,
    verify_unin,
)


def elements(a):
    """Every element of A as a residue tuple, |A| of them."""
    return itertools.product(*map(range, a.cyclic_factors))


def regular_cycle_type(m, d):
    """Cycle type of an order-d element of a group of order m in its regular
    representation: m/d cycles of length d."""
    return CycleType.from_parts([d] * (m // d))


def partitions(n):
    def rec(n, maxp):
        if n == 0:
            yield ()
            return
        for p in range(min(n, maxp), 0, -1):
            for rest in rec(n - p, p):
                yield (p,) + rest
    return rec(n, n)


def abelian_groups(m):
    """Every abelian group of order m, as sorted cyclic factors: a partition
    of the exponent of each prime of m."""
    fac = {}
    n, d = m, 2
    while d * d <= n:
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    groups = [()]
    for p, e in fac.items():
        groups = [g + tuple(p**part for part in parts) for g in groups for parts in partitions(e)]
    return [AbelianGroupSpec(tuple(sorted(g))) for g in groups]


def test_parse():
    assert AbelianGroupSpec.parse("7").cyclic_factors == (7,)
    assert AbelianGroupSpec.parse("C5xC5").cyclic_factors == (5, 5)
    assert AbelianGroupSpec.parse("3x3").order == 9
    assert AbelianGroupSpec.parse("C9").cyclic_factors == (9,)
    assert AbelianGroupSpec.parse("3 x 3").cyclic_factors == (3, 3)
    assert AbelianGroupSpec.parse("c3XC5").cyclic_factors == (3, 5)


@pytest.mark.parametrize("text", [
    "3c5", "3x", "x3", "3xx5", "cc7", "1_000", "", "C 5", "3,5", "\u0663",
])
def test_parse_refuses_a_spec_outside_the_grammar(text):
    # "3c5" once read as C35, "3x" and "x3" as C3, "3xx5" as C3 x C5, "cc7"
    # as C7 and "1_000" as C1000
    with pytest.raises(ValueError, match="cannot parse abelian group"):
        AbelianGroupSpec.parse(text)


def test_ind_abelian():
    assert ind_abelian(AbelianGroupSpec((9,)), (3,)) == 6  # order 3 in C_9
    assert ind_abelian(AbelianGroupSpec((9,)), (0,)) == 0
    assert ind_abelian(AbelianGroupSpec((5, 5)), (1, 0)) == 20


def test_ind_abelian_matches_regular_cycle_type():
    a = AbelianGroupSpec((3, 9))
    for c in elements(a):
        ct = regular_cycle_type(a.order, a.element_order(c))
        assert ind_abelian(a, c) == index_of(ct)


def test_element_orders_are_the_divisors_of_the_exponent():
    for m in range(1, 201):
        for a in abelian_groups(m):
            orders = {a.element_order(c) for c in elements(a)}
            assert orders == set(divisors(lcm(*a.cyclic_factors))), a
            assert _orders(a) == sorted(orders - {1}), a


def test_min_ratio_equals_the_minimum_over_elements():
    """ind(k, (d))/d over the divisors d > 1 of exp(A) is the minimum of
    ind(k, c)/|A| over the elements c != e in the regular representation, and
    its order is the least order that attains it."""
    groups = [a for m in (2, 3, 4, 5, 7, 8, 9, 11, 12, 16, 25, 27, 35, 45, 49, 60, 63, 77)
              for a in abelian_groups(m)]
    for n in (3, 4, 5):
        for ct in nonidentity_classes(n):
            for a in groups:
                m = a.order
                by_element = [
                    (Fraction(product_index_general(ct, regular_cycle_type(m, d)), m), d)
                    for d in map(a.element_order, elements(a)) if d > 1
                ]
                assert _min_ratio(ct, _orders(a)) == min(by_element), (ct, a)


def test_verifiers_list_the_element_orders_once(monkeypatch):
    walks = []

    def counted(n):
        walks.append(n)
        return divisors(n)

    monkeypatch.setattr(tamecomp, "divisors", counted)
    a = AbelianGroupSpec((7, 7))
    verify_delta(5, a)
    verify_unin(5, a, DEFAULT_RK[5])
    assert walks == [7, 7]


def test_min_index_abelian():
    assert min_index_abelian(AbelianGroupSpec((5,))) == 4
    assert min_index_abelian(AbelianGroupSpec((15,))) == 10
    assert min_index_abelian(AbelianGroupSpec((7, 7))) == 42
    with pytest.raises(TrivialGroup):
        min_index_abelian(AbelianGroupSpec(()))
    with pytest.raises(ValueError):
        AbelianGroupSpec((1,))


def test_min_index_closed_form_vs_exhaustive_all_abelian_up_to_2000():
    """Closed form equals the exhaustive minimum for every abelian |A| <= 2000,
    over the element orders d > 1, the divisors of exp(A)."""
    for m in range(2, 2001):
        for a in abelian_groups(m):
            exhaustive = min(index_of(regular_cycle_type(m, d))
                             for d in divisors(lcm(*a.cyclic_factors))[1:])
            assert exhaustive == min_index_abelian(a), a


def test_disc_table_l5_k1():
    rows = {(r.sn_label, r.r): r for r in disc_table(5, 1)}
    assert rows[("(12)", 0)].compositum_exponent == 13
    assert rows[("(123)", 0)].compositum_exponent == 14
    assert rows[("(12)", 0)].a_element_index == 4


def test_disc_table_l3_and_l7():
    rows3 = {(r.sn_label, r.r): r for r in disc_table(3, 1)}
    assert rows3[("(123)", 0)].compositum_exponent == 6
    rows7 = {(r.sn_label, r.r): r for r in disc_table(7, 2)}
    assert rows7[("(12)", 1)].compositum_exponent == 3 * 49 - 2 * 7


def test_disc_table_matches_formulas_and_general_index():
    for l in (3, 5, 7, 11, 13):
        for k in (1, 2, 3):
            for row in disc_table(l, k):
                lk, lr = l**k, l**row.r
                assert row.a_element_index == lk - lr
                if row.sn_label == "(12)":
                    assert row.compositum_exponent == 3 * lk - 2 * lr
                elif l == 3:
                    assert row.compositum_exponent == 3 * lk - 3 * lr
                else:
                    assert row.compositum_exponent == 3 * lk - lr
                # table row equals the general formula applied to the types
                assert row.compositum_exponent == product_index_general(
                    row.sn_class, regular_cycle_type(lk, l ** (k - row.r))
                )


def test_disc_table_rejects_bad_l():
    with pytest.raises(ValueError):
        disc_table(9, 1)
    with pytest.raises(ValueError):
        disc_table(2, 1)


HYPOTHESIS_GRID = {
    3: ["3", "5", "7", "9", "15", "3x3"],
    4: ["5", "7", "25", "5x5"],
    5: ["7", "11", "49", "7x7"],
}


def test_verify_delta_example_values():
    rep = verify_delta(3, AbelianGroupSpec((5,)))
    by_parts = {c.ct.parts: c for c in rep.classes}
    assert by_parts[(2, 1)].min_ratio == Fraction(13, 5)
    rep = verify_delta(3, AbelianGroupSpec((3,)))
    by_parts = {c.ct.parts: c for c in rep.classes}
    assert by_parts[(3,)].min_ratio == Fraction(6, 3)
    rep = verify_delta(5, AbelianGroupSpec((7,)))
    by_parts = {c.ct.parts: c for c in rep.classes}
    assert by_parts[(5,)].min_ratio == 4 + Fraction(6, 7)


def test_verify_delta_full_grid():
    for n, groups in HYPOTHESIS_GRID.items():
        for g in groups:
            rep = verify_delta(n, AbelianGroupSpec.parse(g))
            assert rep.passed, (n, g)


def test_verify_delta_identity_reported_separately():
    rep = verify_delta(3, AbelianGroupSpec((5,)))
    for c in rep.classes:
        assert c.identity_ratio == index_of(c.ct)
        assert c.min_ratio > c.identity_ratio


def test_lemma26_margin_exact():
    """For n=5 the exact minimal margin is (5-ind(k))*(p-1)/p.

    Equality holds for the index-4 class (the 5-cycles) with a minimal-index c.
    """
    for gtext in HYPOTHESIS_GRID[5]:
        a = AbelianGroupSpec.parse(gtext)
        p = min(f for f in range(2, a.order + 1) if a.order % f == 0)
        rep = verify_delta(5, a)
        margins = {c.ct.parts: c.min_ratio - index_of(c.ct) for c in rep.classes}
        for parts, margin in margins.items():
            ind_k = index_of(CycleType.from_parts(parts))
            assert margin == (5 - ind_k) * Fraction(p - 1, p)
        assert min(margins.values()) == Fraction(p - 1, p)
        assert margins[(5,)] == Fraction(p - 1, p)


def test_verify_delta_hypothesis_violated():
    with pytest.raises(HypothesisViolated):
        verify_delta(3, AbelianGroupSpec((2,)))
    with pytest.raises(HypothesisViolated):
        verify_delta(4, AbelianGroupSpec((3,)))
    with pytest.raises(HypothesisViolated):
        verify_delta(5, AbelianGroupSpec((5,)))


def test_verify_unin_examples():
    rk = RkTable.from_json(
        {"n": 3, "rk": [{"cycle_type": [2, 1], "r": 1}, {"cycle_type": [3], "r": 2}]}
    )
    rep = verify_unin(3, AbelianGroupSpec((5,)), rk)
    assert rep.passed
    by_parts = {c.ct.parts: c for c in rep.classes}
    assert by_parts[(3,)].min_margin == Fraction(14, 5) - 2 + 2

    rk4 = RkTable.from_json(
        {
            "n": 4,
            "rk": [
                {"cycle_type": [2, 1, 1], "r": 0},
                {"cycle_type": [2, 2], "r": 2},
                {"cycle_type": [3, 1], "r": 0},
                {"cycle_type": [4], "r": 2},
            ],
        }
    )
    assert verify_unin(4, AbelianGroupSpec((5,)), rk4).passed


def test_verify_unin_failure_witness():
    rk = RkTable.from_json(
        {"n": 3, "rk": [{"cycle_type": [2, 1], "r": 0}, {"cycle_type": [3], "r": 0}]}
    )
    rep = verify_unin(3, AbelianGroupSpec((5,)), rk)
    assert not rep.passed
    assert rep.witness is not None
    assert rep.witness[0] == (3,)  # the (123) class violates: 14/5 - 2 + 0 < 1


def test_verify_unin_default_grid():
    for n, groups in HYPOTHESIS_GRID.items():
        rk = DEFAULT_RK[n]
        for g in groups:
            assert verify_unin(n, AbelianGroupSpec.parse(g), rk).passed, (n, g)


def test_verify_unin_identity_subcase_flagged():
    rep = verify_unin(5, AbelianGroupSpec((7,)), DEFAULT_RK[5])
    by_parts = {c.ct.parts: c for c in rep.classes}
    assert by_parts[(5,)].identity_margin == Fraction(4, 15)
    assert not by_parts[(5,)].identity_ok
    assert by_parts[(2, 2, 1)].identity_ok


def test_rk_table_cover_validation():
    rk = RkTable(3, {(2, 1): Fraction(1)})
    with pytest.raises(IncompleteRkTable):
        rk.validate_cover()
    with pytest.raises(IncompleteRkTable):
        verify_unin(3, AbelianGroupSpec((5,)), rk)


def test_rk_json_roundtrip():
    rk = DEFAULT_RK[5]
    again = RkTable.from_json(rk.to_json())
    assert again.rk == rk.rk


@pytest.mark.parametrize("call, error, message", [
    (lambda: disc_table(3, 0), ValueError, "k must be >= 1"),
    (lambda: RkTable(3, {}).value(CycleType.from_parts((3,))), IncompleteRkTable,
     "no r_k entry for class (3,) in S_3"),
    (lambda: RkTable.from_json({"n": 3, "rk": [{"cycle_type": [2, 1, 1], "r": "1"}]}),
     ValueError, "cycle type (2, 1, 1) has degree != 3"),
    (lambda: verify_delta(6, AbelianGroupSpec((7,))), ValueError, "n must be 3, 4 or 5"),
    (lambda: verify_unin(3, AbelianGroupSpec((5,)), DEFAULT_RK[4]), ValueError,
     "r_k table is for S_4, not S_3"),
], ids=["k-zero", "no-rk-entry", "rk-entry-of-another-degree", "n-six", "rk-table-of-s4"])
def test_tamecomp_refusals(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
