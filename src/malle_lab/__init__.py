"""Compositum discriminant calculus and desk-scale counting for S_n x A fields over Q.

Oracles
-------
Slow, independent routes kept to check the fast ones in tests.  No module of
the package calls them, and `fields.polysearch` (which needs numpy) is not
imported by `malle_lab.fields`:

- `counting.count_pairs_brute`: the double loop over both lists, checking
  `counting.count_pairs`;
- `convolve.product_count_brute`: the double loop over both sequences,
  checking `convolve.product_count_exact`;
- `sieve.count_points_brute`: the walk over every lattice point of the
  cube [-r, r]^n, checking `sieve.count_points_mod_q`;
- `fields.cyclic.cyclic_count_oracle`: the Möbius count of character
  subgroups, checking `fields.cyclic.enumerate_cyclic`;
- `fields.polysearch`: the monic-polynomial search with p-adic local
  discriminants, checking `fields.cubic.enumerate_cubic`;
- `fields.cubic._neg_reduced`: the exact fundamental-domain test for
  negative forms, checking the Re phi window of the negative-form search.
"""

__version__ = "0.1.0"
