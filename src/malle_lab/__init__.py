"""Compositum discriminant calculus and desk-scale counting for S_n x A fields over Q.

Oracles
-------
Slow routes and closed forms, independent of the routes the package runs,
kept to check them in tests.  No module of the package calls them or
imports `fields.polysearch` (which needs numpy):

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
- `tamecomp.ind_abelian` and `tamecomp.min_index_abelian`: the closed forms
  m - m/ord(c) and m(p - 1)/p, p the least prime dividing m = |A|, for the
  index of c in A's regular representation and its least value over c != e,
  checking the element orders that the lemma verifiers walk;
- `permgroup.product_index_coprime`: the closed form
  ind1*n + ind2*m - ind1*ind2 for coprime ramification indices, checking
  `permgroup.product_index_general`;
- `permgroup.orbit_count`: the number of cycles of a permutation, checking
  `permgroup.embed_product`.
"""

__version__ = "0.1.0"
