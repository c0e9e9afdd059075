from malle_lab.arith import is_squarefree, prime_factors


def test_squarefree_and_prime_factors_match_definitions():
    primes = [p for p in range(2, 3001) if all(p % d for d in range(2, int(p**0.5) + 1))]
    for q in range(1, 3001):
        divisors = [p for p in primes if q % p == 0]
        assert prime_factors(q) == divisors
        assert is_squarefree(q) == all(q % (p * p) for p in divisors)
