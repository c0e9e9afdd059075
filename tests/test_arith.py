import math

import pytest

from malle_lab.arith import (
    PRIME_MASK_BOUND,
    SIEVE_LIMIT,
    are_prime,
    divisors,
    factor,
    iroot,
    is_prime,
    prime_mask,
    primes_upto,
    spf_table,
    squarefree_primes,
)
from malle_lab.errors import NotSquarefree


def _valuation(q, p):
    v = 0
    while q % p == 0:
        q, v = q // p, v + 1
    return v


def test_squarefree_and_prime_factors_match_definitions():
    """The sieve, spf table, factoring and divisor helpers too, for n <= 3000."""
    import numpy as np

    primes = [p for p in range(2, 3001) if all(p % d for d in range(2, int(p**0.5) + 1))]
    for n in range(0, 3001):
        assert primes_upto(n) == [p for p in primes if p <= n]
    spf = spf_table(3000)
    assert isinstance(spf, np.ndarray) and spf.dtype == np.int32 and spf.shape == (3001,)
    for q in range(1, 3001):
        prime_divisors = [p for p in primes if q % p == 0]
        if all(q % (p * p) for p in prime_divisors):
            assert squarefree_primes(q) == prime_divisors
        else:
            with pytest.raises(NotSquarefree, match=f"^q must be squarefree positive, got {q}$"):
                squarefree_primes(q)
        if q >= 2:
            assert spf[q] == prime_divisors[0]
        got = factor(q)
        assert got == {p: _valuation(q, p) for p in prime_divisors}
        assert list(got) == prime_divisors
        assert divisors(q) == [d for d in range(1, q + 1) if q % d == 0]
    assert factor(1) == {} and divisors(1) == [1]
    for q in (0, -5):
        with pytest.raises(NotSquarefree, match=f"^q must be squarefree positive, got {q}$"):
            squarefree_primes(q)
    assert spf_table(1).tolist() == [0, 1] and primes_upto(1) == []


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
    # k = 2 is math.isqrt's, on and next to squares past 2^64
    for r in (2**32 - 1, 2**32, 2**32 + 1, 3**41, 10**200 + 7):
        for n in (r * r - 1, r * r, r * r + 1, (r + 1) ** 2 - 1):
            assert iroot(n, 2) == math.isqrt(n)
    for n, k in [(-1, 2), (5, 0)]:
        with pytest.raises(ValueError):
            iroot(n, k)


def test_is_prime_matches_trial_division():
    primes = set(p for p in range(2, 20001) if all(p % d for d in range(2, int(p**0.5) + 1)))
    assert [n for n in range(-3, 20001) if is_prime(n)] == sorted(primes)
    # 1373653 = 829 * 1657 is the least strong pseudoprime to the bases 2 and 3,
    # 25326001 one to the bases 2, 3 and 5, and 3215031751 to 2, 3, 5 and 7
    assert not is_prime(1373653)
    assert not is_prime(25326001)
    assert not is_prime(3215031751)
    assert is_prime(2**61 - 1) and not is_prime(2**61 + 1)


def test_sieves_refuse_past_their_limit_before_they_allocate():
    # 1e12 would be a terabyte bool mask and 4 TB of int32: the refusal
    # must come first, as a ValueError the CLI reports with exit code 2
    for sieve in (prime_mask, primes_upto, spf_table):
        for n in (10**12, SIEVE_LIMIT + 1):
            with pytest.raises(ValueError, match=r"past its limit 2147483647 \(2\^31 - 1\)"):
                sieve(n)
    assert SIEVE_LIMIT == 2**31 - 1


def test_the_sieve_matches_is_prime():
    """prime_mask and are_prime against is_prime: on 0..2e6, on each side of the
    sieve bound, and on the least strong pseudoprimes to the first 1, 2 and 4 bases."""
    import numpy as np

    n = 2 * 10**6
    expected = [is_prime(k) for k in range(n + 1)]
    assert prime_mask(n).tolist() == expected
    assert are_prime(np.arange(n + 1)).tolist() == expected
    assert prime_mask(1).tolist() == [False, False] and prime_mask(-1).size == 0
    assert PRIME_MASK_BOUND == 2**24
    edge = np.arange(PRIME_MASK_BOUND - 300, PRIME_MASK_BOUND + 300)
    assert are_prime(edge).tolist() == [is_prime(k) for k in edge.tolist()]
    assert are_prime(edge).sum() > 30
    pseudo = np.array([2047, 1_373_653, 25_326_001, 3_215_031_751, -7, 0, 1, 2, 2**61 - 1])
    assert are_prime(pseudo).tolist() == [False] * 7 + [True, True]
    assert are_prime(np.zeros(0, np.int64)).tolist() == []
