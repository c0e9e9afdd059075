"""Degree-l cyclic fields over Q, enumerated by conductor.

A cyclic field of odd prime degree l corresponds to an order-l subgroup of
the Dirichlet character group mod f with conductor exactly f, and then
disc = f^(l-1).  Admissible conductors are products of distinct primes
p = 1 (mod l), optionally times l^2 (the wildly ramified case); a conductor
with t ramified primes carries exactly (l-1)^(t-1) fields, since the l-torsion
of the dual group is C_l^t and an order-l subgroup with full conductor has
(l-1)^t generators with all components nontrivial, l-1 of them per subgroup.
`enumerate_cyclic` builds no record and no entry: it writes one entry per
ramified prime, and each conductor's disc and entry slots, (l-1)^(t-1) equal
rows of them, into the list's columns for `FieldList.from_columns`.  A row
lists its wild entry l first, then its tame primes ascending, so its entries
are in ascending p, as l is below every p = 1 (mod l).

The oracle route ignores admissibility theory entirely: for every modulus f
it computes the number of order-l subgroups of the dual of (Z/fZ)* from the
unit group's cyclic decomposition and extracts the exact-conductor count by
Möbius inversion over divisors.
"""

from __future__ import annotations

from ..arith import divisors, factor, iroot, is_prime, primes_upto
from ..errors import InvariantViolation
from ..permgroup import CycleType
from .records import DISC_LIMIT, FieldList, _offsets

__all__ = ["enumerate_cyclic", "cyclic_count_oracle"]


def enumerate_cyclic(l: int, x: int) -> FieldList:
    """All degree-l cyclic fields over Q with disc = f^(l-1) <= x.

    Each ramified prime has one entry per call, shared by every field
    ramified at it.
    """
    if l < 3 or not is_prime(l) or l % 2 == 0:
        raise ValueError("l must be an odd prime")
    if x < 1:
        raise ValueError("x must be >= 1")
    import numpy as np

    fmax = iroot(x, l - 1)
    primes = [p for p in primes_upto(fmax) if p % l == 1]  # the slot of the i-th prime is i
    conductors: list[tuple[int, tuple[int, ...]]] = []  # (f, entry slots)

    def dfs(start: int, f: int, tame: tuple[int, ...], wild: tuple[int, ...]):
        if tame or wild:
            conductors.append((f, wild + tame))
        for i in range(start, len(primes)):
            if f * primes[i] > fmax:
                break
            dfs(i + 1, f * primes[i], tame + (i,), wild)

    dfs(0, 1, (), ())
    if l * l <= fmax:
        dfs(0, l * l, (), (len(primes),))
        primes.append(l)  # the wild entry's slot, after the tame ones'
    conductors.sort()  # by f, as no two conductors are equal
    if conductors and conductors[-1][0] ** (l - 1) >= DISC_LIMIT:  # the largest disc
        raise InvariantViolation(f"|disc| {conductors[-1][0] ** (l - 1)} is not below 2^63")
    discs, counts, entry_ids = [], [], []
    for f, slots in conductors:
        copies = (l - 1) ** (len(slots) - 1)
        discs += [f ** (l - 1)] * copies
        counts += [len(slots)] * copies
        entry_ids += slots * copies
    wild = np.array(primes) == l  # of type 1, the tame entries of type 0
    return FieldList.from_columns(
        "enumerated", x, np.array(discs, np.int64), np.ones(len(discs), np.int8), (l, f"C{l}"),
        _offsets(counts), np.array(entry_ids, np.int32), np.array(primes, np.int64),
        np.where(wild, 2 * (l - 1), l - 1), wild.astype(np.int32),
        (CycleType.from_parts([l]), f"{l}-C{l}-cond-{l * l}"),
    )


# ---------------------------------------------------------------------------
# Character-subgroup oracle

def _unit_group_cyclic_orders(f: int) -> list[int]:
    """Cyclic decomposition orders of (Z/fZ)* (CRT over prime powers)."""
    orders = []
    for p, e in factor(f).items():
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                orders.append(2)
            else:
                orders.extend([2, 2 ** (e - 2)])
        else:
            orders.append(p ** (e - 1) * (p - 1))
    return orders


def _subgroup_count(f: int, l: int) -> int:
    """Number of order-l subgroups of the character group mod f."""
    n_l = 1
    for o in _unit_group_cyclic_orders(f):
        if o % l == 0:
            n_l *= l
    return (n_l - 1) // (l - 1)


def cyclic_count_oracle(l: int, x: int) -> int:
    """Count degree-l cyclic fields with disc <= x by Möbius inversion.

    P(f) = S(f) - sum_{d | f, d < f} P(d), where S(f) is the number of
    order-l subgroups of the dual of (Z/fZ)*; the answer is
    sum_{f^(l-1) <= x} P(f).
    """
    fmax = iroot(x, l - 1)
    primitive = [0] * (fmax + 1)
    for f in range(1, fmax + 1):
        proper = divisors(f)[:-1]
        primitive[f] = _subgroup_count(f, l) - sum(primitive[d] for d in proper)
    return sum(primitive)
