"""Small integer helpers: primality, factorisation, divisor enumeration,
and the number-theoretic Mobius function.

Trial division throughout; the library only ever factors desk-scale
integers, where this beats importing a heavyweight dependency.
"""

from __future__ import annotations

from itertools import count
from typing import Iterator

from .errors import InvalidInput


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def primes() -> Iterator[int]:
    """Ascending primes, unbounded."""
    yield 2
    for n in count(3, 2):
        if is_prime(n):
            yield n


def prime_factors(n: int) -> dict[int, int]:
    """Factorisation as {prime: multiplicity}; n must be >= 1."""
    if n < 1:
        raise InvalidInput(f"cannot factor {n}: expected a positive integer")
    out: dict[int, int] = {}
    while n % 2 == 0:
        out[2] = out.get(2, 0) + 1
        n //= 2
    d = 3
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, k in prime_factors(n).items():
        power = 1
        step = []
        for _ in range(k):
            power *= p
            step.extend(d * power for d in divs)
        divs.extend(step)
    divs.sort()
    return divs


def smallest_prime_factors(elements: list[int]) -> dict[int, int]:
    """The smallest prime factor of every n > 1 in ``elements``, an
    ascending list closed under taking divisors (a range 1..N or a
    divisor set), by one sieve over the list itself."""
    members = set(elements)
    largest = elements[-1] if elements else 0
    smallest: dict[int, int] = {}
    for q in elements:
        if q == 1 or q in smallest:
            continue
        # q is prime: no smaller prime marked it, and its divisors are listed.
        for d in elements:
            n = q * d
            if n > largest:
                break
            if n in members and n not in smallest:
                smallest[n] = q
    return smallest


def classical_mobius(n: int) -> int:
    """The number-theoretic Mobius function: 0 when a square divides n,
    otherwise (-1) to the number of distinct prime factors."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidInput(f"expected a positive integer, got {n!r}")
    factors = prime_factors(n)
    if any(k > 1 for k in factors.values()):
        return 0
    return -1 if len(factors) % 2 else 1
