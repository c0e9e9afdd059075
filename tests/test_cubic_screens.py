"""The irreducibility test of the cubic search against a rational-root search.

A form with no root in P^1(F_p) has no rational root.  The array pass
_irreducible marks the forms that a root table mod 5, 7, 11, 13 or 17 rules
out, and sends every other form with d != 0 to is_irreducible, the exact
rational-root test alone.  The tables are checked entry by entry against a
scan of the roots mod p, and both tests against a search over every
candidate root [x:y] with |y| <= |a| and |x| <= |d|.
"""

from itertools import product

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
