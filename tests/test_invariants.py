from fractions import Fraction
from math import gcd, prod

import pytest

from malle_lab import invariants
from malle_lab.errors import OrderCapExceeded, SlopeNotGreater, TrivialGroup
from malle_lab.invariants import (
    _power,
    a_invariant,
    b_invariant_Q,
    close_group,
    conjugacy_classes,
    minimal_index_classes,
    product_a,
    product_b,
)
from malle_lab.permgroup import Permutation, cycle_type, embed_product, index_of
from malle_lab.tamecomp import COPRIMALITY, AbelianGroupSpec, min_index_abelian


def S3():
    return close_group([Permutation.parse("(12)", degree=3), Permutation.parse("(123)")])


def C3():
    return close_group([Permutation.parse("(123)")])


def S4():
    return close_group([Permutation.parse("(12)", degree=4), Permutation.parse("(1234)")])


def product_group(gens1, gens2, deg1, deg2):
    e1, e2 = Permutation.identity(deg1), Permutation.identity(deg2)
    gens = [embed_product(g, e2) for g in gens1] + [embed_product(e1, g) for g in gens2]
    return close_group(gens)


def test_close_group_orders():
    assert S3().order == 6
    assert C3().order == 3
    assert S4().order == 24


def test_close_group_cap():
    with pytest.raises(OrderCapExceeded):
        close_group([Permutation.parse("(12)", degree=4), Permutation.parse("(1234)")], order_cap=10)


def test_conjugacy_classes():
    assert sorted(c.size for c in conjugacy_classes(S3())) == [1, 2, 3]
    assert [c.size for c in conjugacy_classes(C3())] == [1, 1, 1]
    assert len(conjugacy_classes(S4())) == 5


def test_a_invariant():
    assert a_invariant(S3()) == 1
    assert a_invariant(C3()) == 2
    g = product_group(
        [Permutation.parse("(12)", degree=3), Permutation.parse("(123)")],
        [Permutation.parse("(123)")],
        3,
        3,
    )
    assert g.order == 18
    assert a_invariant(g) == 3


def test_a_invariant_trivial():
    with pytest.raises(TrivialGroup):
        a_invariant(close_group([Permutation.identity(3)]))


def test_minimal_index_classes_trivial():
    with pytest.raises(TrivialGroup):
        minimal_index_classes(close_group([Permutation.identity(3)]))


def test_b_invariant():
    assert b_invariant_Q(S3()) == 1
    assert b_invariant_Q(C3()) == 1  # the two 3-cycles fuse under a=2


def test_b_invariant_product_s3_c5():
    g = product_group(
        [Permutation.parse("(12)", degree=3), Permutation.parse("(123)")],
        [Permutation.parse("(12345)")],
        3,
        5,
    )
    assert g.order == 30
    assert a_invariant(g) == 5
    assert b_invariant_Q(g) == 1


def test_c3_wr_c2_in_both_representations():
    """C_3 wr C_2 = S_3 x C_3: (a, b) = (3, 1) on 9 points, where the
    transpositions of S_3 are the minimal elements, and (2, 1) on 6 points,
    where the two classes of 3-cycles are fused by the cyclotomic action;
    the latter is the (a, b) that Kluners' counterexample to Malle's
    conjecture breaks."""
    on_9 = product_group(
        [Permutation.parse("(12)", degree=3), Permutation.parse("(123)")],
        [Permutation.parse("(123)")],
        3,
        3,
    )
    on_6 = close_group([Permutation.parse("(123)", degree=6), Permutation.parse("(14)(25)(36)")])
    assert (on_9.degree, on_9.order, a_invariant(on_9), b_invariant_Q(on_9)) == (9, 18, 3, 1)
    assert (on_6.degree, on_6.order, a_invariant(on_6), b_invariant_Q(on_6)) == (6, 18, 2, 1)
    minimal = minimal_index_classes(on_6)
    assert [(cycle_type(c.representative).parts, c.size) for c in minimal] == [((3, 1, 1, 1), 2)] * 2


def class_power_map(group, a):
    """The class map c -> c^a, built as b_invariant_Q builds it inline."""
    classes, class_of = group._walk
    return {ci: class_of[_power(c.representative, a).images] for ci, c in enumerate(classes)}


def test_power_maps_are_bijections_and_preserve_index():
    g = S4()
    classes = conjugacy_classes(g)
    exp = g.exponent()
    for a in range(1, exp):
        if gcd(a, exp) != 1:
            continue
        mapping = class_power_map(g, a)
        assert sorted(mapping.values()) == list(range(len(classes)))
        for ci, cj in mapping.items():
            assert classes[ci].index == classes[cj].index


def test_minimal_classes_closed_under_power_maps():
    g = product_group(
        [Permutation.parse("(12)", degree=3), Permutation.parse("(123)")],
        [Permutation.parse("(123)")],
        3,
        3,
    )
    classes = conjugacy_classes(g)
    minimal = {i for i, c in enumerate(classes) if c.index == a_invariant(g)}
    exp = g.exponent()
    for a in range(1, exp):
        if gcd(a, exp) != 1:
            continue
        mapping = class_power_map(g, a)
        assert {mapping[i] for i in minimal} == minimal


def test_b_walks_each_cyclotomic_orbit_once(monkeypatch):
    """The regular C_31 has 30 minimal classes in one orbit: phi(31) = 30 powers."""
    c31 = close_group([Permutation.from_cycles([tuple(range(1, 32))], degree=31)])
    calls = []
    power = invariants._power
    monkeypatch.setattr(invariants, "_power", lambda p, k: calls.append(k) or power(p, k))
    assert b_invariant_Q(c31) == 1
    assert len(calls) <= 30


def test_every_invariant_reads_one_conjugation_walk(monkeypatch):
    """The walk inverts each generator once, however many invariants are read."""
    g = S4()
    calls = []
    inverse = Permutation.inverse
    monkeypatch.setattr(Permutation, "inverse", lambda p: calls.append(p) or inverse(p))
    assert len(conjugacy_classes(g)) == 5
    assert (a_invariant(g), b_invariant_Q(g), g.exponent()) == (1, 1, 12)
    assert [c.size for c in minimal_index_classes(g)] == [6]
    assert len(calls) == len(g.generators) == 2


def test_product_a_formula():
    assert product_a(1, 3, 2, 3) == 3
    assert product_a(1, 5, 6, 7) == 7
    assert product_a(2, 4, 2, 4) == 8


def test_product_a_matches_materialized_groups():
    cases = [
        ([Permutation.parse("(12)", degree=3), Permutation.parse("(123)")], 3,
         [Permutation.parse("(123)")], 3),
        ([Permutation.parse("(12)", degree=3), Permutation.parse("(123)")], 3,
         [Permutation.parse("(12345)")], 5),
        ([Permutation.parse("(12)", degree=2)], 2,
         [Permutation.parse("(123)")], 3),
        ([Permutation.parse("(123)")], 3,
         [Permutation.parse("(123)")], 3),
        ([Permutation.parse("(12)", degree=3), Permutation.parse("(123)")], 3,
         [Permutation.parse("(12)", degree=3), Permutation.parse("(123)")], 3),
    ]
    for gens1, d1, gens2, d2 in cases:
        g1, g2 = close_group(gens1), close_group(gens2)
        prod = product_group(gens1, gens2, d1, d2)
        assert prod.order == g1.order * g2.order
        assert a_invariant(prod) == product_a(
            a_invariant(g1), d1, a_invariant(g2), d2
        )


def test_product_b():
    # S_3 slope 1/3 vs C_5 slope 4/5
    assert product_b(1, 3, 1, 4, 5, 1) == 1
    # S_5 slope 1/5 vs C_7 slope 6/7
    assert product_b(1, 5, 1, 6, 7, 1) == 1
    # larger slope first: returns the second factor's b
    assert product_b(4, 5, 7, 1, 3, 2) == 2
    with pytest.raises(SlopeNotGreater):
        product_b(1, 3, 1, 2, 6, 1)


def invariant_factors(max_order, prefix=()):
    """Every abelian group of order <= max_order, as factors f1 | f2 | ..."""
    if prefix:
        yield prefix
    last = prefix[-1] if prefix else 1
    for f in range(max(last, 2), max_order // prod(prefix) + 1, last):
        yield from invariant_factors(max_order, prefix + (f,))


def test_the_s_n_side_has_the_larger_slope():
    # a(A) = |A| (p - 1) / p >= |A| / 2 for p the least prime of |A|, so
    # n a(A) > |A|: product_a and product_b pick the S_n side, never refuse
    checked = 0
    for n in (3, 4, 5):
        sn = close_group([Permutation.parse("(12)", degree=n),
                          Permutation.parse("(" + "".join(map(str, range(1, n + 1))) + ")")])
        a_sn, b_sn = a_invariant(sn), b_invariant_Q(sn)
        assert (a_sn, b_sn) == (1, 1)
        for factors in invariant_factors(100):
            spec = AbelianGroupSpec(factors)
            m = spec.order
            if gcd(m, COPRIMALITY[n]) != 1:
                continue
            a_ab = min_index_abelian(spec)
            assert Fraction(a_sn, n) < Fraction(a_ab, m)
            assert product_a(a_sn, n, a_ab, m) == m
            assert product_b(a_sn, n, b_sn, a_ab, m, 2) == b_sn
            checked += 1
    assert checked == 122


def test_minimal_index_classes_s3xc3():
    g = product_group(
        [Permutation.parse("(12)", degree=3), Permutation.parse("(123)")],
        [Permutation.parse("(123)")],
        3,
        3,
    )
    minimal = minimal_index_classes(g)
    # slope(S_3) = 1/3 < slope(C_3) = 2/3: the minimal elements are
    # (transposition, e), one class of size 3 with cycle type 2+2+2+1+1+1
    assert len(minimal) == 1
    assert minimal[0].index == 3 and minimal[0].size == 3
    assert cycle_type(minimal[0].representative).parts == (2, 2, 2, 1, 1, 1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: close_group([]), ValueError, "need at least one generator"),
    (lambda: close_group([Permutation.identity(2), Permutation.identity(3)]), ValueError,
     "generators must share a degree"),
    (lambda: b_invariant_Q(close_group([Permutation.identity(3)])), TrivialGroup,
     "b(Q, G) needs a non-identity element"),
    (lambda: product_a(0, 3, 1, 3), ValueError, "all inputs must be positive"),
], ids=["no-generator", "mixed-degrees", "b-of-trivial-group", "product-a-zero"])
def test_invariants_refusals(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
