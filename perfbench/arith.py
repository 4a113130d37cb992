"""Plain int/Fraction arithmetic for the benchmark's generator and oracles.

Nothing here imports posetlab, so the oracles stay independent of the
program they check. Gaussian rationals are ``(real, imag)`` pairs of
``Fraction``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

_SCALAR = re.compile(r"^([+-]?\d+(?:/\d+)?)(?:([+-]\d+(?:/\d+)?)i)?$")


def parse_scalar(text: str) -> tuple:
    match = _SCALAR.match(text)
    if not match:
        raise ValueError(f"not a scalar: {text!r}")
    return Fraction(match.group(1)), Fraction(match.group(2) or 0)


def format_scalar(real, imag=0) -> str:
    def part(value: Fraction) -> str:
        value = Fraction(value)
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"

    if not imag:
        return part(real)
    sign = "+" if imag > 0 else "-"
    return f"{part(real)}{sign}{part(abs(Fraction(imag)))}i"


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def small_primes(count: int) -> list:
    out, n = [], 2
    while len(out) < count:
        if is_prime(n):
            out.append(n)
        n += 1
    return out


def factorize(n: int, known=()) -> dict:
    """Factorisation of n as {prime: multiplicity}; divides out the
    ``known`` primes first, then trial-divides what is left, which must
    be small."""
    out = {}

    def divide_out(p):
        nonlocal n
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p

    for p in known:
        divide_out(p)
    d = 2
    while d * d <= n:
        divide_out(d)
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def mobius_of_exponents(exponents) -> int:
    """mu of a product-of-chains interval whose top exceeds its bottom
    by the given exponents: 0 when any exceeds 1, else (-1)^(count of 1s)."""
    sign = 1
    for k in exponents:
        if k > 1:
            return 0
        if k == 1:
            sign = -sign
    return sign


def closed_form_mobius(family: str, x, y) -> int:
    """mu(x, y) for x <= y. Integers for divisibility, chain and
    multisets (integer images), sorted tuples for subsets."""
    if family == "chain":
        return {0: 1, 1: -1}.get(y - x, 0)
    if family == "subsets":
        return -1 if (len(y) - len(x)) % 2 else 1
    return mobius_of_exponents(factorize(y // x).values())


def window_elements(family: str, bound: int) -> list:
    """The downward-closed window: 1..bound, or every subset of 1..bound."""
    if family == "subsets":
        return [tuple(i + 1 for i in range(bound) if mask >> i & 1) for mask in range(1 << bound)]
    return list(range(1, bound + 1))


def leq(family: str, x, y) -> bool:
    if family == "chain":
        return x <= y
    if family == "subsets":
        return set(x) <= set(y)
    return y % x == 0


def decode(family: str, text: str):
    """Inverse of ``workloads.encode``: subsets to sorted tuples, every
    other family to its integer (image)."""
    if family == "subsets":
        body = text.strip()[1:-1]
        return tuple(sorted(int(v) for v in body.split(","))) if body else ()
    if family == "multisets":
        n = 1
        if text != "1":
            for factor in text.split("*"):
                base, _, exp = factor.partition("^")
                n *= int(base) ** int(exp or 1)
        return n
    return int(text)


def rank(rows) -> int:
    """Rank over the rationals of an integer matrix, by fraction-free
    elimination with each reduced row divided by its content."""
    rows = [list(row) for row in rows if any(row)]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        for i in range(r + 1, len(rows)):
            factor = rows[i][c]
            if factor:
                row = [top[c] * a - factor * b for a, b in zip(rows[i], top)]
                content = gcd(*row)
                rows[i] = [a // content for a in row] if content > 1 else row
        r += 1
    return r
