import pytest

from malle_lab.errors import CoprimalityViolation
from malle_lab.permgroup import (
    CycleType,
    Permutation,
    cycle_type,
    embed_product,
    index_of,
    orbit_count,
    product_index_coprime,
    product_index_general,
    representative,
)


def _partitions(n, maxpart=None):
    maxpart = maxpart or n
    if n == 0:
        yield ()
        return
    for p in range(min(n, maxpart), 0, -1):
        for rest in _partitions(n - p, p):
            yield (p,) + rest


def test_cycle_type_basic():
    assert cycle_type(Permutation.identity(4)).parts == (1, 1, 1, 1)
    assert cycle_type(Permutation.parse("(12)", degree=3)).parts == (2, 1)
    assert cycle_type(Permutation.parse("(123)(45)", degree=5)).parts == (3, 2)


def test_parse_multidigit_and_roundtrip():
    p = Permutation.parse("(1,2,12)(3 4)", degree=12)
    assert cycle_type(p).parts == (3, 2) + (1,) * 7
    assert p * p.inverse() == Permutation.identity(12)


def test_parse_reads_the_whole_text_as_cycles():
    assert Permutation.parse(" (12) (3,4)\t") == Permutation.parse("(12)(34)")
    assert Permutation.parse("(1, 2 3)") == Permutation.parse("(123)")
    for identity in ("e", "()", "", "  "):
        assert Permutation.parse(identity, degree=3) == Permutation.identity(3)


@pytest.mark.parametrize("text", [
    "(12)(3", "(12)x", "(12)(", "(1,2),(3,4)", "x(12)", "(12)()", "(1,,2)", "(1,)", "(0)",
    "(\u0661\u0662)",  # Arabic-Indic digits, which int() would read
])
def test_parse_refuses_text_outside_its_cycles(text):
    # each once parsed as the cycles it contained, but "(0)", which raised
    # IndexError
    with pytest.raises(ValueError):
        Permutation.parse(text)


def test_index_of():
    assert index_of(CycleType.from_parts([1, 1, 1])) == 0
    assert index_of(CycleType.from_parts([3])) == 2
    assert index_of(CycleType.from_parts([2, 2, 1])) == 2


def test_embed_identity_preserving():
    for m, n in [(2, 3), (4, 5)]:
        assert embed_product(
            Permutation.identity(m), Permutation.identity(n)
        ) == Permutation.identity(m * n)


def test_embed_transposition_times_identity():
    p = embed_product(Permutation.parse("(12)", degree=2), Permutation.identity(3))
    assert cycle_type(p).parts == (2, 2, 2)


def test_embed_orbits_and_coprime_example():
    p = embed_product(
        Permutation.parse("(12)", degree=3), Permutation.parse("(12345)", degree=5)
    )
    assert p.degree == 15
    assert orbit_count(p) == 2
    assert index_of(cycle_type(p)) == 13
    ct1 = CycleType.from_parts([2, 1])
    ct2 = CycleType.from_parts([5])
    assert product_index_coprime(ct1, ct2) == 13
    assert product_index_general(ct1, ct2) == 13


def test_orbit_count_basic():
    assert orbit_count(Permutation.identity(6)) == 6
    assert orbit_count(Permutation.parse("(123456)")) == 1


def test_coprime_examples():
    assert product_index_coprime(
        CycleType.from_parts([1, 1, 1]), CycleType.from_parts([5])
    ) == 12
    assert product_index_coprime(
        CycleType.from_parts([2, 1]), CycleType.from_parts([7] * 5)
    ) == 95


def test_coprime_violation():
    with pytest.raises(CoprimalityViolation):
        product_index_coprime(CycleType.from_parts([2]), CycleType.from_parts([2, 1]))


def test_general_examples():
    assert product_index_general(
        CycleType.from_parts([3]), CycleType.from_parts([3])
    ) == 6
    assert product_index_general(
        CycleType.from_parts([2, 1]), CycleType.from_parts([3])
    ) == 7
    # identity factor of degree m gives m * ind(ct2)
    ident = CycleType.from_parts([1] * 4)
    ct2 = CycleType.from_parts([3, 2])
    assert product_index_general(ident, ct2) == 4 * index_of(ct2)


def test_exhaustive_oracle_all_degree_pairs_up_to_6():
    """product formulas vs brute-force orbit count, all cycle types m, n <= 6."""
    for m in range(1, 7):
        for n in range(1, 7):
            for parts1 in _partitions(m):
                ct1 = CycleType.from_parts(parts1)
                p1 = representative(ct1)
                for parts2 in _partitions(n):
                    ct2 = CycleType.from_parts(parts2)
                    p2 = representative(ct2)
                    emb = embed_product(p1, p2)
                    ind_oracle = index_of(cycle_type(emb))
                    assert product_index_general(ct1, ct2) == ind_oracle
                    e1, e2 = ct1.ramification_index, ct2.ramification_index
                    from math import gcd

                    if gcd(e1, e2) == 1:
                        assert product_index_coprime(ct1, ct2) == ind_oracle
                    # lower bound by the marginal indices
                    assert ind_oracle >= max(
                        n * index_of(ct1), m * index_of(ct2)
                    )


def test_embed_degree_multiplicative():
    p1 = Permutation.parse("(123)", degree=4)
    p2 = Permutation.parse("(12)", degree=3)
    assert embed_product(p1, p2).degree == 12


def test_cycle_type_json():
    assert CycleType.from_parts([1, 3, 2]).to_json() == [3, 2, 1]


@pytest.mark.parametrize("call, message", [
    (lambda: Permutation(()), "degree must be >= 1"),
    (lambda: Permutation((1, 1)), "not a bijection on 1..2: (1, 1)"),
    (lambda: Permutation.identity(2) * Permutation.identity(3), "degree mismatch"),
    (lambda: Permutation.from_cycles([(1, 2), (2, 3)]), "cycles are not disjoint"),
    (lambda: Permutation.from_cycles([(1, 5)], degree=3), "cycle point exceeds degree"),
    (lambda: CycleType(3, (1, 2)), "parts must be sorted descending"),
    (lambda: CycleType(4, (2, 1)), "parts (2, 1) do not sum to degree 4"),
], ids=["degree-zero", "not-a-bijection", "degree-mismatch", "cycles-not-disjoint",
        "point-past-degree", "parts-ascending", "parts-off-degree"])
def test_permgroup_refusals(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_permutation_repr_lists_its_nontrivial_cycles():
    assert repr(Permutation.from_cycles([(1, 2), (3, 4, 5)], degree=6)) == \
        "Permutation((1,2)(3,4,5), deg=6)"
    assert repr(Permutation.identity(4)) == "Permutation(e, deg=4)"


def test_products_and_inverses_skip_the_bijection_check(monkeypatch):
    """Only the public constructor checks: over the closure and the invariants of
    S_4 every checked permutation is an identity, none a product or an inverse."""
    from malle_lab import invariants

    gens = [Permutation.parse("(12)", degree=4), Permutation.parse("(1234)", degree=4)]
    checked = []
    check = Permutation.__post_init__

    def spy(self):
        checked.append(self.images)
        check(self)

    monkeypatch.setattr(Permutation, "__post_init__", spy)
    group = invariants.close_group(gens)
    assert group.order == 24
    assert (invariants.a_invariant(group), invariants.b_invariant_Q(group)) == (1, 1)
    assert group.exponent() == 12 and len(invariants.conjugacy_classes(group)) == 5
    assert checked and set(checked) == {(1, 2, 3, 4)}
    # the unchecked products are still the permutations the checked constructor makes
    g, h = gens
    gh = Permutation(tuple(g(h(i)) for i in range(1, 5)))
    assert g * h == gh and hash(g * h) == hash(gh) and gh.images == (1, 3, 4, 2)
    assert (g * h).inverse() == Permutation((1, 4, 2, 3))
