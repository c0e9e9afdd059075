"""Integer arithmetic shared across the package, without floats.

- `iroot(n, k)`: the integer k-th root, by `math.isqrt` for k = 2 and by
  Newton steps for k >= 3;
- `is_prime(n)`: one gcd with the small primes, then Miller-Rabin;
- `prime_mask(n)`: the sieve, a numpy bool array True exactly at the
  primes <= n;
- `primes_upto(n)`: the primes <= n, read off `prime_mask(n)`;
- `are_prime(values)`: primality of each entry of an int64 array, the
  values below PRIME_MASK_BOUND = 2^24 read off one `prime_mask` to the
  largest of them, the rest by `is_prime`;
- `spf_table(n)`: int32 smallest prime factors of 0..n, for factoring many n;
- `factor(n)`: {p: v_p(n)}, by trial division;
- `divisors(n)`: the divisors of n, ascending, by trial division to sqrt(n);
- `squarefree_primes(q)`: the primes of a squarefree q >= 1 from one
  `factor`, else NotSquarefree.

There is one sieve of Eratosthenes, `prime_mask`; `primes_upto`, `are_prime`
and `spf_table` (through the primes to sqrt(n)) read it.  `prime_mask`,
`primes_upto` and `spf_table` refuse n > SIEVE_LIMIT = 2^31 - 1 (ValueError)
before they allocate: an int32 entry holds no larger value.  numpy is
imported inside the functions, so importing this module does not load it.

`factor` and `divisors` take n >= 1; callers check that first.
`fields.polysearch` keeps its own divisor and valuation helpers: it is the
independent oracle for the cubic enumerator, which factors through this
module, so the two must not share code.
"""

from __future__ import annotations

from math import gcd, isqrt, prod

from .errors import NotSquarefree

__all__ = [
    "iroot",
    "is_prime",
    "prime_mask",
    "primes_upto",
    "are_prime",
    "spf_table",
    "factor",
    "divisors",
    "squarefree_primes",
]

SIEVE_LIMIT = 2**31 - 1  # the largest n that prime_mask, primes_upto and spf_table take
# are_prime sieves the values below it (a mask of at most 16 MB), is_prime the rest
PRIME_MASK_BOUND = 2**24

# Miller-Rabin with these bases decides primality of every n < 3.18e23
# (Sorenson and Webster); larger n only pass as strong probable primes.
# Fewer bases decide below the least strong pseudoprime to all of them
# (Pomerance, Selfridge, Wagstaff): the first two below 1,373,653 = 829 * 1657,
# the first four below 3,215,031,751.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PRODUCT = prod(_MR_BASES)


def iroot(n: int, k: int) -> int:
    """Largest r >= 0 with r**k <= n (n >= 0, k >= 1): `math.isqrt` for k = 2,
    else by integer Newton steps.

    The seed 2**ceil(bits(n)/k) lies above the root, and from above the
    iteration r -> ((k-1) r + n // r**(k-1)) // k decreases strictly until
    it reaches the root.
    """
    if k == 2 and n >= 0:
        return isqrt(n)
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
    """Whether n is prime: small primes by one gcd, the rest by Miller-Rabin."""
    if n < 2 or gcd(n, _MR_PRODUCT) != 1:
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    if n < 1_373_653:
        bases = _MR_BASES[:2]
    elif n < 3_215_031_751:
        bases = _MR_BASES[:4]
    else:
        bases = _MR_BASES
    for a in bases:
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


def _check_sieve(n: int) -> None:
    if n > SIEVE_LIMIT:
        raise ValueError(f"a sieve to {n} is past its limit {SIEVE_LIMIT} (2^31 - 1)")


def prime_mask(n: int):
    """numpy bool array of n + 1 entries (none for n < 0), True exactly at the primes <= n."""
    _check_sieve(n)
    import numpy as np

    mask = np.ones(max(n + 1, 0), bool)
    mask[:2] = False
    for p in range(2, isqrt(n) + 1 if n > 0 else 0):
        if mask[p]:
            mask[p * p :: p] = False
    return mask


def primes_upto(n: int) -> list[int]:
    """The primes <= n, ascending."""
    import numpy as np

    return np.flatnonzero(prime_mask(n)).tolist()


def are_prime(values):
    """Bool array: whether each entry of the int64 array `values` is prime.

    The values in [0, PRIME_MASK_BOUND) are read off one `prime_mask` to the
    largest of them; `is_prime` decides those at or above the bound.
    """
    import numpy as np

    out = np.zeros(values.shape, bool)
    small = np.flatnonzero((values >= 0) & (values < PRIME_MASK_BOUND))
    if small.size:
        out[small] = prime_mask(int(values[small].max()))[values[small]]
    big = np.flatnonzero(values >= PRIME_MASK_BOUND)
    out[big] = [is_prime(n) for n in values[big].tolist()]
    return out


def spf_table(n: int):
    """spf[m] = the smallest prime factor of m for 2 <= m <= n, as a numpy int32 array."""
    _check_sieve(n)
    import numpy as np

    spf = np.arange(n + 1, dtype=np.int32)
    # descending, so that the smallest prime of each m is written last
    for p in reversed(primes_upto(isqrt(n))):
        spf[p * p :: p] = p
    return spf


def factor(n: int) -> dict[int, int]:
    """{p: v_p(n)} in ascending p, by trial division."""
    fac: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        fac[n] = 1
    return fac


def divisors(n: int) -> list[int]:
    """The positive divisors of n, ascending."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def squarefree_primes(q: int) -> list[int]:
    """The primes dividing q, ascending; NotSquarefree unless q >= 1 is squarefree."""
    if q >= 1:
        fac = factor(q)
        if all(v == 1 for v in fac.values()):
            return list(fac)
    raise NotSquarefree(f"q must be squarefree positive, got {q}")
