import pytest

from malle_lab.arith import iroot, is_prime, is_squarefree, prime_factors


def test_squarefree_and_prime_factors_match_definitions():
    primes = [p for p in range(2, 3001) if all(p % d for d in range(2, int(p**0.5) + 1))]
    for q in range(1, 3001):
        divisors = [p for p in primes if q % p == 0]
        assert prime_factors(q) == divisors
        assert is_squarefree(q) == all(q % (p * p) for p in divisors)


def test_iroot_matches_definition():
    for n in range(0, 3001):
        for k in range(1, 8):
            r = iroot(n, k)
            assert r**k <= n < (r + 1) ** k
    big = 2**53 + 1  # no float holds it
    assert iroot(big**3, 3) == big
    assert iroot(big**3 - 1, 3) == big - 1
    for k in (2, 3, 5, 7, 400):
        r = iroot(10**400, k)
        assert r**k <= 10**400 < (r + 1) ** k
    assert iroot(10**399, 3) == 10**133 and iroot(10**399 - 1, 3) == 10**133 - 1
    for n, k in [(-1, 2), (5, 0)]:
        with pytest.raises(ValueError):
            iroot(n, k)


def test_is_prime_matches_trial_division():
    primes = set(p for p in range(2, 20001) if all(p % d for d in range(2, int(p**0.5) + 1)))
    assert [n for n in range(-3, 20001) if is_prime(n)] == sorted(primes)
    # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7
    assert not is_prime(3215031751)
    assert is_prime(2**61 - 1) and not is_prime(2**61 + 1)
