"""Integer arithmetic shared across the package, by trial division.

The functions take q >= 1; callers check that first.
"""

from __future__ import annotations

__all__ = ["is_squarefree", "prime_factors"]


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
