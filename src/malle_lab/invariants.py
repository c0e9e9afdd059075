"""Malle invariants a(G) and b(Q, G) for finite permutation groups.

a(G) is the minimal index over non-identity elements.  b(Q, G) counts orbits
of the minimal-index conjugacy classes under the cyclotomic action, which on
conjugacy classes is realized by the power maps c -> c^a for a coprime to the
group exponent (no character table needed: the action permutes classes and
preserves cycle type, hence index).  Every invariant reads one cached
conjugation walk per group, and b walks each cyclotomic orbit once.

For a direct product G1 x G2 in its S_{n1*n2} representation,
a = min(n2*a(G1), n1*a(G2)); when the slopes a(G_i)/n_i are strictly ordered
the minimal-index elements all live in the smaller-slope factor and b equals
that factor's b.  The equal-slope case is refused (SlopeNotGreater, by
`product_b`); for S_n x A it never arises, since
a(S_n)/n = 1/n < 1/2 <= a(A)/|A|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import OrderCapExceeded, SlopeNotGreater, TrivialGroup
from .permgroup import Permutation, cycle_type, index_of

__all__ = [
    "PermutationGroup",
    "ConjugacyClass",
    "close_group",
    "conjugacy_classes",
    "a_invariant",
    "b_invariant_Q",
    "minimal_index_classes",
    "product_a",
    "product_b",
]

DEFAULT_ORDER_CAP = 10**6


@dataclass(frozen=True)
class PermutationGroup:
    degree: int
    generators: tuple[Permutation, ...]
    elements: tuple[Permutation, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def exponent(self) -> int:
        return lcm(*(cycle_type(c.representative).ramification_index for c in self._walk[0]))

    @cached_property
    def _walk(self):
        """The group's one conjugation walk: (classes, images -> class id), in discovery order.

        Every element starts a class or joins one, so a conjugate outside the group
        would push the class sizes past the order: the one assert, that they sum to
        the order, also shows that every class lies in the group.
        """
        gen_invs = [(g, g.inverse()) for g in self.generators]
        class_of, classes = {}, []
        for el in self.elements:
            if el.images in class_of:
                continue
            ci, known, stack = len(classes), len(class_of), [el]
            class_of[el.images] = ci
            while stack:
                x = stack.pop()
                for g, ginv in gen_invs:
                    y = g * x * ginv
                    if y.images not in class_of:
                        class_of[y.images] = ci
                        stack.append(y)
            classes.append(ConjugacyClass(el, len(class_of) - known, index_of(cycle_type(el))))
        assert sum(c.size for c in classes) == self.order
        return tuple(classes), class_of


@dataclass(frozen=True)
class ConjugacyClass:
    representative: Permutation
    size: int
    index: int


def close_group(generators, order_cap: int = DEFAULT_ORDER_CAP) -> PermutationGroup:
    """Materialize the group generated by `generators` (BFS closure).

    Element ordering is deterministic: BFS discovery order from the identity,
    multiplying by generators on the right.
    """
    gens = tuple(generators)
    if not gens:
        raise ValueError("need at least one generator")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValueError("generators must share a degree")
    ident = Permutation.identity(degree)
    seen = {ident.images}
    order = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for el in frontier:
            for g in gens:
                prod = el * g
                if prod.images not in seen:
                    seen.add(prod.images)
                    order.append(prod)
                    nxt.append(prod)
                    if len(order) > order_cap:
                        raise OrderCapExceeded(
                            f"closure exceeded cap {order_cap}"
                        )
        frontier = nxt
    return PermutationGroup(degree, gens, tuple(order))


def conjugacy_classes(group: PermutationGroup) -> list[ConjugacyClass]:
    """Partition into conjugacy classes (orbit closure under generator conjugation)."""
    return list(group._walk[0])


def a_invariant(group: PermutationGroup) -> int:
    """The least index over the non-identity classes (index is a class function)."""
    if group.order < 2:
        raise TrivialGroup("a(G) needs a non-identity element")
    return min(c.index for c in group._walk[0] if c.index > 0)


def _power(p: Permutation, k: int) -> Permutation:
    result = Permutation.identity(p.degree)
    base = p
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


def b_invariant_Q(group: PermutationGroup) -> int:
    """Orbits of minimal-index classes under c -> c^a, gcd(a, exponent) = 1."""
    if group.order < 2:
        raise TrivialGroup("b(Q, G) needs a non-identity element")
    class_of = group._walk[1]
    exp = group.exponent()
    units = [a for a in range(1, exp) if gcd(a, exp) == 1]
    # the power maps form a group action, so the orbits partition the minimal
    # classes: a class not yet marked starts an orbit, walked once to mark it
    marked, b = set(), 0
    for c in minimal_index_classes(group):
        if class_of[c.representative.images] not in marked:
            marked.update(class_of[_power(c.representative, a).images] for a in units)
            b += 1
    return b


def minimal_index_classes(group: PermutationGroup) -> list[ConjugacyClass]:
    if group.order < 2:
        raise TrivialGroup("minimal-index classes need a non-identity element")
    a_val = a_invariant(group)
    return [c for c in group._walk[0] if c.index == a_val]


def product_a(a1: int, deg1: int, a2: int, deg2: int) -> int:
    """a(G1 x G2 in S_{deg1*deg2}) = min(deg2*a1, deg1*a2)."""
    if min(a1, deg1, a2, deg2) < 1:
        raise ValueError("all inputs must be positive")
    return min(deg2 * a1, deg1 * a2)


def product_b(a1: int, deg1: int, b1: int, a2: int, deg2: int, b2: int) -> int:
    """b of the product: the b of the strictly smaller-slope factor."""
    s1, s2 = Fraction(a1, deg1), Fraction(a2, deg2)
    if s1 < s2:
        return b1
    if s2 < s1:
        return b2
    raise SlopeNotGreater(
        f"a/deg = {s1} on both factors; the product b is not asserted here"
    )
