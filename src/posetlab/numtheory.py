"""Small integer helpers: primality, factorisation, divisor enumeration,
and the number-theoretic Mobius function.

Every answer is exact, and every call does bounded work or raises
``BoundTooLarge`` (CLI exit 1):

* Trial division by the primes below 1000 takes out small factors, and
  decides primality outright below 1000**2.
* Past that, primality is the strong probable-prime test to the thirteen
  prime bases 2, 3, ..., 41. It has no false positive below psi_13 =
  3317044064679887385961981 (J. Sorenson and J. Webster, *Strong
  pseudoprimes to twelve prime bases*, Math. Comp. 86, 2017), so it is a
  proof there. A failed base proves a number composite at any size; a
  number at or past psi_13 that passes every base is refused.
* A composite cofactor is first tested for a perfect power by exact
  integer roots, then split by Brent's variant of Pollard's rho (R. P.
  Brent, BIT 20, 1980) on y -> y*y + c with c = 1, 2, ... in turn, so
  the output is deterministic. A split is accepted only when a gcd
  certifies it: every factor returned divides n and has passed the
  primality test.
* Each call has one fixed budget of work, counted in rho steps on a
  modulus below 2**256. A step on a longer modulus, and each base of the
  primality test, are charged in proportion to their cost. Past the
  budget the call is refused.
* The factorisations of the last few large cofactors are kept, so a
  witness stream over y*q, y*q', ... splits y's cofactor once. Refusals
  are not kept.
"""

from __future__ import annotations

import functools
import math
from itertools import count
from typing import Iterator

from .errors import BoundTooLarge, InvalidInput

_TRIAL_LIMIT = 1000
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13: the least strong pseudoprime to every base in _BASES.
_PROVEN_LIMIT = 3317044064679887385961981
# About twice the 1.9 million steps that split (10**12 + 39)(10**12 + 61).
_STEP_BUDGET = 1 << 22
# Rho steps between two gcds.
_BATCH = 128


def _sieve(limit: int) -> tuple[int, ...]:
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return tuple(i for i, flag in enumerate(flags) if flag)


_SMALL_PRIMES = _sieve(_TRIAL_LIMIT)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)


class _Budget:
    """Work left to one call, in rho steps on a modulus below 2**256.
    Modular products cost the square of the modulus length, so a step
    modulo an n of b bits is charged 1 + (b // 256)**2 steps."""

    def __init__(self):
        self.left = _STEP_BUDGET

    def spend(self, steps: int, n: int) -> None:
        self.left -= steps * (1 + (n.bit_length() >> 8) ** 2)
        if self.left < 0:
            raise BoundTooLarge(
                f"factorisation or primality test needs more than {_STEP_BUDGET} rho steps"
            )


def is_prime(n: int) -> bool:
    """Whether n is prime; ``BoundTooLarge`` when n passes every base of
    the test but lies past its proven range, or the test is past the
    budget. Below ``_TRIAL_LIMIT`` it is one set lookup, as multiset
    keys nearly always are."""
    if n < _TRIAL_LIMIT:
        return n in _SMALL_PRIME_SET
    for p in _SMALL_PRIMES:
        if p * p > n:
            return True
        if n % p == 0:
            return n == p
    return _passes_bases(n, _Budget())


def _passes_bases(n: int, budget: _Budget) -> bool:
    """Primality of an n > 1 with no prime factor below ``_TRIAL_LIMIT``."""
    if n < _TRIAL_LIMIT**2:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _BASES:
        # One base is about b modular squarings: b / 2 rho steps.
        budget.spend(n.bit_length() // 2, n)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _PROVEN_LIMIT:
        raise BoundTooLarge(
            f"probable prime of {n.bit_length()} bits lies past the proven range "
            f"below {_PROVEN_LIMIT}"
        )
    return True


def primes() -> Iterator[int]:
    """Ascending primes, unbounded."""
    yield 2
    for n in count(3, 2):
        if is_prime(n):
            yield n


def prime_factors(n: int) -> dict[int, int]:
    """Factorisation as {prime: multiplicity}, in ascending prime order;
    n must be >= 1."""
    if n < 1:
        raise InvalidInput(f"cannot factor {n}: expected a positive integer")
    out, m = _trial_division(n)
    if m > 1:
        out.update(sorted(_cached_large_prime_factors(m)))
    return out


def _trial_division(n: int) -> tuple[dict[int, int], int]:
    """``(factors, m)``: the primes below ``_TRIAL_LIMIT`` in n >= 1 with
    their multiplicities, ascending, plus a prime cofactor when trial
    division proves one; and m, the cofactor left to factor, which is 1
    or has no prime factor below the limit."""
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            # What is left has no prime factor below its square root.
            if n > 1:
                out[n] = 1
            return out, 1
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out[p] = k
    return out, n


# A witness stream factors y*q for one fresh prime q after another, so
# the same large cofactor of y comes back once per candidate.
_FACTOR_CACHE_SIZE = 32


@functools.lru_cache(maxsize=_FACTOR_CACHE_SIZE)
def _cached_large_prime_factors(n: int) -> tuple[tuple[int, int], ...]:
    """Factorisation of n > 1, which has no prime factor below
    ``_TRIAL_LIMIT``, as an immutable tuple of ``(prime, multiplicity)``
    pairs in no particular order; a refusal raises and is not cached."""
    found: dict[int, int] = {}
    for p in _large_primes(n):
        if p is not None:
            found[p] = found.get(p, 0) + 1
    return tuple(found.items())


def _large_primes(n: int):
    """The prime factors of n > 1, which has none below ``_TRIAL_LIMIT``,
    each yielded once per multiplicity as soon as it is known, so a
    caller can stop at the first repeat. A perfect power met on the way
    yields None before its root is split: some prime repeats there,
    though which one is not yet known."""
    budget = _Budget()
    found: list[int] = []
    pending = [n]
    while pending:
        m = pending.pop()
        for p in found:
            while m % p == 0:
                m //= p
                yield p
        if m == 1:
            continue
        power = _perfect_power(m)
        if power is not None:
            yield None
            root, k = power
            pending += [root] * k
        elif _passes_bases(m, budget):
            found.append(m)
            yield m
        else:
            g = _rho(m, budget)
            # The smaller part first: its primes are then stripped from the other.
            pending += sorted((g, m // g), reverse=True)


def _perfect_power(m: int) -> tuple[int, int] | None:
    """``(r, k)`` with r**k == m for the least prime k that has one, or
    None; m has no prime factor below ``_TRIAL_LIMIT``, so r exceeds it."""
    for k in _SMALL_PRIMES:
        if _TRIAL_LIMIT**k >= m:
            return None
        r = _integer_root(m, k)
        if r**k == m:
            return r, k
    return None


def _integer_root(m: int, k: int) -> int:
    """The largest r with r**k <= m, by Newton's method from a float
    estimate."""
    if k == 2:
        return math.isqrt(m)
    # The leading 31 bits of a float estimate, rounded up: the descent
    # must start at or above the root.
    x = math.log2(m) / k
    shift = max(0, int(x) - 30)
    r = (int(2 ** (x - shift)) + 1) << shift
    while True:
        s = ((k - 1) * r + m // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _rho(n: int, budget: _Budget) -> int:
    """A factor 1 < g < n of the composite n, certified by a gcd."""
    for c in count(1):
        y, q, g, r = 2, 1, 1, 1
        while g == 1:
            x = y
            budget.spend(r, n)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(_BATCH, r - k)
                budget.spend(steps, n)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += steps
            r *= 2
        if g == n:
            # The batch overshot: replay it one step at a time.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def divisor_grid(factors: dict[int, int]) -> list[int]:
    """All positive divisors of the n with factorisation ``factors`` in
    mixed-radix order: the divisor with exponent e_i of the i-th prime
    sits at index sum of e_i * (k_1 + 1) * ... * (k_{i-1} + 1), so the
    first prime's exponent varies fastest."""
    divs = [1]
    for p, k in factors.items():
        power = 1
        step = []
        for _ in range(k):
            power *= p
            step.extend(d * power for d in divs)
        divs.extend(step)
    return divs


def classical_mobius(n: int) -> int:
    """The number-theoretic Mobius function: 0 when a square divides n,
    otherwise (-1) to the number of distinct prime factors. A square
    found by trial division, as a perfect power met while the cofactor
    is split or as a prime met twice answers 0 before the rest of n is
    factored."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidInput(f"expected a positive integer, got {n!r}")
    factors, m = _trial_division(n)
    if any(k > 1 for k in factors.values()):
        return 0
    count = len(factors)
    if m > 1:
        seen: set[int] = set()
        for p in _large_primes(m):
            if p is None or p in seen:
                return 0
            seen.add(p)
        count += len(seen)
    return -1 if count % 2 else 1
