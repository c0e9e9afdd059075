"""Uniformity of cyclic-field counts under forced ramification.

N_q(A, X) counts the A-fields with disc <= X whose discriminant every prime
of the squarefree q divides.  The check compares N_q against the shape
(X/q)^(1/a(A)) * ln^(b-1) X with a, b computed from the materialized regular
representation of A, and asserts a single bound across a grid of q.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log

from ..arith import squarefree_primes
from ..errors import IncompleteList
from ..invariants import a_invariant, b_invariant_Q, close_group
from ..permgroup import Permutation
from .cyclic import enumerate_cyclic
from .records import FieldList

__all__ = ["abelian_uniformity_check", "UniformityReport"]


@dataclass(frozen=True)
class QRatio:
    q: int
    count: int
    shape: float
    ratio: float


@dataclass(frozen=True)
class UniformityReport:
    l: int
    x: int
    a: int
    b: int
    per_q: tuple[QRatio, ...]

    @property
    def max_ratio(self) -> float:
        return max(r.ratio for r in self.per_q)


def abelian_uniformity_check(
    l: int, qs, x: int, field_list: FieldList | None = None
) -> UniformityReport:
    """Ratios N_q / (X/q)^(1/a) ln^(b-1) X over the q grid.

    N_q is counted from the list's columns, with no record view.  A given
    list with rows must be of degree l and group C<l> (ValueError otherwise).
    """
    import numpy as np

    if field_list is None:
        field_list = enumerate_cyclic(l, x)
    elif len(field_list) and (field_list.degree, field_list.group_label) != (l, f"C{l}"):
        raise ValueError(f"a list of degree-{field_list.degree} {field_list.group_label} "
                         f"records, not of degree-{l} C{l} records")
    if field_list.x_max < x:
        raise IncompleteList(f"list complete to {field_list.x_max} < {x}")
    cycle = Permutation.from_cycles([tuple(range(1, l + 1))], degree=l)
    group = close_group([cycle])
    a = a_invariant(group)
    b = b_invariant_Q(group)
    n = field_list.count_upto(x)
    rows = field_list.slot_rows(n)
    ids = field_list.entry_ids[: field_list.offsets[n]]
    per_q = []
    for q in qs:
        primes = squarefree_primes(q)
        # a record lists each prime once, so it is ramified at every prime of
        # q when as many of its entries as q has primes are at one of them
        at_q = np.isin(field_list.entry_p, primes)
        count = int((np.bincount(rows[at_q[ids]], minlength=n) == len(primes)).sum())
        shape = (x / q) ** (1.0 / a) * log(x) ** (b - 1)
        per_q.append(QRatio(q=q, count=count, shape=shape, ratio=count / shape))
    return UniformityReport(l=l, x=x, a=a, b=b, per_q=tuple(per_q))
