"""The irreducibility test of the cubic search against a rational-root search.

A form with no root in P^1(F_p) has no rational root.  The array pass
_irreducible marks the forms that a root table mod 5, 7, 11, 13 or 17 rules
out, decides every other form with d != 0 by the certificate on the monic
h(u) = u^3 + b u^2 + ac u + a^2 d (_certificate), and sends the forms the
certificate leaves to is_irreducible, the exact rational-root test alone.
The tables are checked entry by entry against a scan of the roots mod p,
and the tests against a search over every candidate root [x:y] with
|y| <= |a| and |x| <= |d|, against each other on every candidate form of
the search at 1e5, and on forms whose coefficients or disc = 0 send them to
is_irreducible.  With its float proposals moved off the roots, the
certificate may leave rows undecided but decides none wrongly.
"""

from itertools import product
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from malle_lab.fields import cubic  # noqa: E402
from malle_lab.fields.cubic import is_irreducible  # noqa: E402


def _has_rational_root(f) -> bool:
    """A root [x:y] in P^1(Q), by search: [1:0] when a = 0, else y | a and x | d."""
    a, b, c, d = f
    if a == 0:
        return True
    return any(
        ((a * x + b * y) * x + c * y * y) * x + d * y**3 == 0
        for y in range(1, abs(a) + 1)
        for x in range(-abs(d), abs(d) + 1)
    )


_coef = st.integers(-40, 40)
_small = st.integers(-7, 7)


@st.composite
def _products(draw):
    """(q x - p y)(u x^2 + v x y + w y^2): reducible, so no root table marks it."""
    p, q = draw(st.tuples(_small, _small).filter(any))
    u, v, w = draw(st.tuples(_small, _small, _small).filter(any))
    return q * u, q * v - p * u, q * w - p * v, -p * w


@settings(max_examples=300)
@given(st.one_of(st.tuples(_coef, _coef, _coef, _coef), _products()))
def test_is_irreducible_matches_a_rational_root_search(f):
    assert is_irreducible(f) == (not _has_rational_root(f))
    if f[0] != 0:  # _irreducible takes forms with a != 0
        row = tuple(np.array([x], np.int64) for x in f)
        assert cubic._irreducible(row).tolist() == [not _has_rational_root(f)]


def test_no_root_tables_match_a_root_scan():
    assert [p for p, _ in cubic._no_root_tables()] == [5, 7, 11, 13, 17]
    for p, table in cubic._no_root_tables():
        assert len(table) == p**4
        for i, (a, b, c, d) in enumerate(product(range(p), repeat=4)):
            no_root = a != 0 and all((((a * r + b) * r + c) * r + d) % p for r in range(p))
            assert table[i] == no_root, (p, a, b, c, d)


def _candidates(x):
    """Every candidate form (a, b, c, d) of the search at x, both signs, as four int64 arrays."""
    rows = []
    for sign, amax in ((1, cubic._amax_pos(x)), (-1, cubic._amax_neg(x))):
        for a in range(1, amax + 1):
            b, c, d, _ = (cubic._pos_candidates if sign > 0 else cubic._neg_candidates)(x, a)
            rows.append((np.full_like(b, a), b, c, d))
    return tuple(np.concatenate(col) for col in zip(*rows))


def test_certificate_decides_every_candidate_at_1e5_as_is_irreducible():
    f = _candidates(10**5)
    truth = [is_irreducible(g) for g in zip(*(x.tolist() for x in f))]
    with mock.patch.object(cubic, "is_irreducible", wraps=is_irreducible) as scalar:
        mask = cubic._irreducible(f)
        assert scalar.call_count == 0
        assert len(cubic.enumerate_cubic(10**5)) == 21794
        assert scalar.call_count == 0
    assert mask.tolist() == truth
    live = f[3] != 0  # the rows the certificate sees, screened or not, both signs
    irreducible, decided = cubic._certificate(tuple(x[live] for x in f))
    assert decided.all() and irreducible.tolist() == np.array(truth)[live].tolist()
    signs = np.sign(cubic.disc_form(f)[live])
    assert signs.min() == -1 and signs.max() == 1


def test_certificate_decides_only_exactly_whatever_the_floats_propose():
    """Proposals moved off the roots may leave rows undecided, never decided wrongly."""
    f = _candidates(10**5)
    f = tuple(x[f[3] != 0] for x in f)
    truth = np.array([is_irreducible(g) for g in zip(*(x.tolist() for x in f))])
    real_roots = cubic._real_roots
    rng = np.random.default_rng(0)
    for move in ("shift", "merge", "jitter"):
        def moved(*args):
            r = real_roots(*args)
            if move == "shift":  # up to two whole cells away, often off every root
                return r + rng.integers(-2, 3, size=r.shape)
            if move == "merge":  # one root proposed twice, one not at all
                r[:, 1] = r[:, 0]
                return r
            return r + rng.uniform(-1, 1, size=r.shape)

        with mock.patch.object(cubic, "_real_roots", side_effect=moved):
            irreducible, decided = cubic._certificate(f)
        assert 0 < decided.sum() < decided.size, move
        assert (irreducible[decided] == truth[decided]).all(), move


_wide = st.one_of(st.integers(-(2**40), -(2**21)), st.integers(2**21, 2**40))
_unit_ends = st.integers(-12, 12).filter(bool)


@st.composite
def _past_the_bound(draw):
    """A form with a wide b or c, so that a disc term is past 2^62, and small a, d."""
    a, d = draw(_unit_ends), draw(_unit_ends)
    b, c = draw(st.one_of(st.tuples(_wide, _coef), st.tuples(_coef, _wide), st.tuples(_wide, _wide)))
    return a, b, c, d


@st.composite
def _repeated_factor(draw):
    """(p x + q y)^2 (r x + s y) with p, q, r, s != 0: disc = 0, a != 0 and d != 0."""
    p, q, r, s = (draw(_small.filter(bool)) for _ in range(4))
    return p * p * r, p * p * s + 2 * p * q * r, 2 * p * q * s + q * q * r, q * q * s


@settings(max_examples=200)
@given(st.one_of(_past_the_bound(), _repeated_factor()))
def test_rows_past_the_bound_or_of_disc_zero_reach_is_irreducible(f):
    row = tuple(np.array([x], np.int64) for x in f)
    assert cubic._certificate(row)[1].tolist() == [False]
    expected = is_irreducible(f)
    with mock.patch.object(cubic, "is_irreducible", wraps=is_irreducible) as scalar:
        assert cubic._irreducible(row).tolist() == [expected]
    screened = any(table[((f[0] % p * p + f[1] % p) * p + f[2] % p) * p + f[3] % p]
                   for p, table in cubic._no_root_tables())
    assert scalar.call_count == (0 if screened else 1)
    if cubic.disc_form(f) == 0:  # a repeated factor over Q: a rational root
        assert not expected
