"""Integer arithmetic shared across the package, without floats.

`is_squarefree` and `prime_factors` work by trial division and take q >= 1;
callers check that first.
"""

from __future__ import annotations

__all__ = ["iroot", "is_prime", "is_squarefree", "prime_factors"]

# Miller-Rabin with these bases decides primality of every n < 3.18e23
# (Sorenson and Webster); larger n only pass as strong probable primes
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def iroot(n: int, k: int) -> int:
    """Largest r >= 0 with r**k <= n (n >= 0, k >= 1), by integer Newton steps.

    The seed 2**ceil(bits(n)/k) lies above the root, and from above the
    iteration r -> ((k-1) r + n // r**(k-1)) // k decreases strictly until
    it reaches the root.
    """
    if n < 0 or k < 1:
        raise ValueError(f"iroot needs n >= 0 and k >= 1, got n={n}, k={k}")
    if n < 2 or k == 1:
        return n
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def is_prime(n: int) -> bool:
    """Whether n is prime: small primes by division, the rest by Miller-Rabin."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        y = pow(a, d, n)
        if y == 1 or y == n - 1:
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def is_squarefree(q: int) -> bool:
    """No prime square divides q (q >= 1)."""
    n, p = q, 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        while n % p == 0:
            n //= p
        p += 1
    return True


def prime_factors(q: int) -> list[int]:
    """The distinct primes dividing q (q >= 1), ascending."""
    out, p = [], 2
    n = q
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out
