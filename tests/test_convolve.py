import math
from fractions import Fraction

import pytest

from malle_lab.convolve import (
    CountingSequence,
    empirical_fit,
    product_count_brute,
    product_count_exact,
)
from malle_lab.errors import InsufficientData, InsufficientRange

INTS = CountingSequence.integers()


def test_product_count_small_examples():
    # sum_{n<=10} floor(10/n) = 10+5+3+2+2+1+1+1+1+1 = 27
    assert product_count_exact(INTS, INTS, 1, 1, 10) == 27
    assert product_count_exact(INTS, INTS, 1, 2, 100) == 153


def test_product_count_refuses_floats():
    # 10.999999999999 is not 11: an exact count must not round its input
    for a, b, x in [(1, 1, 10.999999999999), (1.0, 1, 10), (1, 0.5, 10)]:
        with pytest.raises(TypeError):
            product_count_exact(INTS, INTS, a, b, x)
        with pytest.raises(TypeError):
            product_count_brute(INTS, INTS, a, b, x)
    assert product_count_exact(INTS, INTS, 1, 1, Fraction(109999, 10000)) == 27


def test_counting_sequence_takes_exact_positive_distinct_ints():
    # 2.5 would be held as 2 and True as 1: a sequence of an exact count must not round
    for entries in ([(2.5, 1)], [(True, 1)], [(3, 1), (1, 2.0)], [(1, False)]):
        with pytest.raises(TypeError):
            CountingSequence(entries=entries)
    for entries in ([(0, 1)], [(2, 1), (1, 0)], [(1, 1), (2, 1), (1, 3)]):
        with pytest.raises(ValueError):
            CountingSequence(entries=entries)
    seq = CountingSequence(entries=iter([(9, 2), (1, 1), (4, 3)]))
    assert seq.entries == [(1, 1), (4, 3), (9, 2)] and seq.complete_to == 9
    assert [seq.count_upto(v) for v in (0, 1, 3, 4, 8, 9)] == [0, 1, 1, 4, 4, 6]


def test_counting_sequence_sorts_only_unsorted_input():
    ascending = [(1, 2), (3, 1), (7, 4)]
    seq = CountingSequence(entries=ascending)
    assert seq.entries == ascending and seq.entries is not ascending
    seq = CountingSequence(entries=(pair for pair in [(7, 4), (1, 2), (3, 1)]))
    assert seq.entries == ascending and seq._values == [1, 3, 7]
    assert [seq.count_upto(v) for v in (1, 2, 3, 7)] == [2, 2, 3, 7]
    for entries in ([(1, 1), (1, 2)], [(1, 1), (2, 1), (2, 1)], [(3, 1), (1, 1), (3, 2)]):
        with pytest.raises(ValueError, match="^duplicate values; merge multiplicities first$"):
            CountingSequence(entries=entries)
    # refused in their order: a non-pair, a non-int, then a non-positive entry
    # before a duplicate, in sorted and unsorted input alike
    for entries in ([(1, 1, 1)], [(1, 1), (2, 1, 1)], [(2, 1), (1, 1, 1)]):
        with pytest.raises(ValueError, match="unpack"):
            CountingSequence(entries=entries)
    for entries in ([(1, 1), (True, 1)], [(2, 1), (True, 1)], [(1, 1), (2.5, 1)],
                    [(3, 1), (2.5, 1)], [(1, 1), 5], [(1, 1), (1, 2.5)]):
        with pytest.raises(TypeError):
            CountingSequence(entries=entries)
    for entries in ([(0, 1), (0, 1)], [(2, 1), (0, 1), (2, 1)]):
        with pytest.raises(ValueError, match="^values and multiplicities must be positive$"):
            CountingSequence(entries=entries)


def test_product_count_empty():
    empty = CountingSequence(entries=[])
    assert product_count_exact(empty, INTS, 1, 1, 100) == 0


def test_product_count_matches_brute_force():
    seq = CountingSequence(entries=[(1, 2), (3, 1), (4, 5), (10, 1)], complete_to=10**6)
    for a, b, x in [(1, 1, 50), (2, 1, 200), (Fraction(1, 2), 1, 9), (3, 2, 10**4)]:
        assert product_count_exact(seq, INTS, a, b, x) == product_count_brute(
            seq, INTS, a, b, x
        )
        assert product_count_exact(INTS, seq, b, a, x) == product_count_brute(
            INTS, seq, b, a, x
        )
    # no pair lies below 1; at X = -3 the brute once counted the pairs with
    # s1 s2 <= 9, as X^L = (-3)^2 with L = 2
    half = Fraction(1, 2)
    assert product_count_brute(seq, seq, half, half, -3) == product_count_exact(
        seq, seq, half, half, -3) == 0


def test_product_count_symmetry():
    seq = CountingSequence(entries=[(2, 1), (5, 2), (9, 1)], complete_to=10**4)
    for x in (10, 100, 1000):
        assert product_count_exact(seq, INTS, 2, 3, x) == product_count_exact(
            INTS, seq, 3, 2, x
        )


def test_product_count_rational_weights_threshold_exact():
    # s1^(1/2) s2 <= 3  with s1 = 9, s2 = 1: 9^(1/2)*1 = 3 counts exactly
    seq = CountingSequence(entries=[(9, 1)])
    one = CountingSequence(entries=[(1, 1)])
    assert product_count_exact(seq, one, Fraction(1, 2), 1, 3) == 1
    assert product_count_exact(seq, one, Fraction(1, 2), 1, Fraction(29999, 10000)) == 0
    # integer thresholds just off each k^exp, against a direct count; both
    # sequences are complete past every value the hyperbola loops ask for
    values = CountingSequence(entries=[(v, 1) for v in range(1, 14)], complete_to=10**7)
    one = CountingSequence(entries=[(1, 1)], complete_to=10**7)
    for exp in (1, 2, 3, 5):
        for k in range(12):
            for den in (2, 3, 10):
                for shift in (-1, 1):
                    x = Fraction(k**exp * den + shift, den)  # denominator den
                    direct = sum(v**exp <= x for v in range(1, 14))
                    assert product_count_exact(values, one, exp, 1, x) == direct, (exp, x)
                    assert product_count_exact(one, values, 1, exp, x) == direct, (exp, x)
                    # s^(exp/2) <= x, that is s^exp <= x^2: X^L with L = 2
                    direct = sum(v**exp <= x * x for v in range(1, 14))
                    assert product_count_exact(values, one, Fraction(exp, 2), 1, x) == direct


def test_insufficient_range():
    short = CountingSequence(entries=[(1, 1), (2, 1)], complete_to=2)
    with pytest.raises(InsufficientRange):
        product_count_exact(short, short, 1, 1, 100)


def test_squares_rule_equals_integers_reindexed():
    # squares with b=1 behave like integers with b=2
    for x in (10, 100, 12345):
        assert product_count_exact(INTS, CountingSequence.squares(), 1, 1, x) == \
            product_count_exact(INTS, INTS, 1, 2, x)
    # each closed form counts and lists what its explicit k-th powers do at
    # every v from -2 to 200^k + 3, below 1, on and between the powers and past them
    for k, closed in (1, INTS), (2, CountingSequence.squares()):
        top = 200**k + 3
        powers = [(s**k, 1) for s in range(1, 204) if s**k <= top]
        explicit = CountingSequence(powers, complete_to=top)
        for v in range(-2, top + 1):
            assert closed.count_upto(v) == explicit.count_upto(v), (k, v)
            assert list(closed.iter_upto(v)) == list(explicit.iter_upto(v)), (k, v)
    for v in (10**40 - 1, 10**40, 10**40 + 1):
        assert CountingSequence.squares().count_upto(v) == math.isqrt(v)


def test_empirical_fit_roundtrip():
    pts = [(10.0**k, 3.5 * 10.0**k * math.log(10.0**k) ** 2) for k in range(2, 10)]
    fit = empirical_fit(pts, 1, 2)
    assert fit.coefficient == pytest.approx(3.5, rel=1e-9)
    assert fit.residual < 1e-9


def test_empirical_fit_harmonic():
    xs = [10**k for k in range(3, 9)] + [3 * 10**k for k in range(3, 8)]
    pts = []
    for x in xs:
        pts.append((x, product_count_exact(INTS, INTS, 1, 1, x)))
    fit = empirical_fit(pts, 1, 1)
    assert fit.coefficient == pytest.approx(1.0, rel=0.02)


def test_empirical_fit_insufficient():
    with pytest.raises(InsufficientData):
        empirical_fit([(10, 1)] * 4, 1, 0)
    with pytest.raises(InsufficientData):
        empirical_fit([(10 + i, 10) for i in range(10)], 1, 0)


def test_empirical_fit_refuses_points_past_the_float_range():
    # float(10**310) overflows: the fit is an estimate and has no data there
    pts = [(10**k, 10**k) for k in range(300, 311)]
    with pytest.raises(InsufficientData, match="float range"):
        empirical_fit(pts, 1, 0)
    assert empirical_fit(pts[:9], 1, 0).coefficient == pytest.approx(1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: CountingSequence([(1, 1), (4, 1)], complete_to=5).count_upto(6), InsufficientRange,
     "sequence complete to 5, asked for 6"),
    (lambda: product_count_exact(INTS, INTS, 0, 1, 10), ValueError, "weights must be positive"),
], ids=["past-complete-to", "weight-zero"])
def test_convolve_refusals(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
