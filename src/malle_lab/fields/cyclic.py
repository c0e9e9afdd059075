"""Degree-l cyclic fields over Q, enumerated by conductor.

A cyclic field of odd prime degree l corresponds to an order-l subgroup of
the Dirichlet character group mod f with conductor exactly f, and then
disc = f^(l-1).  Admissible conductors are products of distinct primes
p = 1 (mod l), optionally times l^2 (the wildly ramified case); a conductor
with t ramified primes carries exactly (l-1)^(t-1) fields, since the l-torsion
of the dual group is C_l^t and an order-l subgroup with full conductor has
(l-1)^t generators with all components nontrivial, l-1 of them per subgroup.

The oracle route ignores admissibility theory entirely: for every modulus f
it computes the number of order-l subgroups of the dual of (Z/fZ)* from the
unit group's cyclic decomposition and extracts the exact-conductor count by
Möbius inversion over divisors.
"""

from __future__ import annotations

from ..arith import divisors, factor, iroot, is_prime, primes_upto
from ..permgroup import CycleType
from .records import FieldList, FieldRecord, LocalRamification

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
    fmax = iroot(x, l - 1)
    cycle = CycleType.from_parts([l])
    tame_pool = [
        LocalRamification(p=p, kind="tame", disc_exponent=l - 1, tame_cycle_type=cycle)
        for p in primes_upto(fmax)
        if p % l == 1
    ]
    wild_entry = LocalRamification(
        p=l, kind="wild", disc_exponent=2 * (l - 1), wild_label=f"{l}-C{l}-cond-{l * l}"
    )
    records: list[FieldRecord] = []

    def emit(f: int, ram: tuple[LocalRamification, ...]):
        if not ram:
            return
        for _ in range((l - 1) ** (len(ram) - 1)):
            records.append(
                FieldRecord(
                    degree=l,
                    group_label=f"C{l}",
                    abs_disc=f ** (l - 1),
                    ramification=ram,
                    disc_sign=1,
                )
            )

    def dfs(start: int, f: int, tame: tuple[LocalRamification, ...], wild: bool):
        emit(f, tame + (wild_entry,) if wild else tame)
        for i in range(start, len(tame_pool)):
            loc = tame_pool[i]
            if f * loc.p > fmax:
                break
            dfs(i + 1, f * loc.p, tame + (loc,), wild)

    dfs(0, 1, (), wild=False)
    if l * l <= fmax:
        dfs(0, l * l, (), wild=True)
    records.sort(key=lambda r: r.abs_disc)
    return FieldList(records=tuple(records), provenance="enumerated", x_max=x)


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
