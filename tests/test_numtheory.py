"""Integer helpers against brute-force oracles."""

import itertools

import pytest

from posetlab.errors import InvalidInput
from posetlab.numtheory import divisors, is_prime, prime_factors, primes, smallest_prime_factors


def test_is_prime_small_values():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    assert {n for n in range(31) if is_prime(n)} == known


def test_primes_stream_ascending():
    first = list(itertools.islice(primes(), 10))
    assert first == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


@pytest.mark.parametrize("n", range(1, 300))
def test_prime_factors_reconstruct(n):
    factors = prime_factors(n)
    product = 1
    for p, k in factors.items():
        assert is_prime(p) and k >= 1
        product *= p**k
    assert product == n


def test_prime_factors_rejects_nonpositive():
    with pytest.raises(InvalidInput):
        prime_factors(0)


def test_divisors_examples():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(97) == [1, 97]


def test_divisors_against_scan():
    for n in range(1, 200):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


@pytest.mark.parametrize(
    "elements",
    [list(range(1, 400)), divisors(720720), divisors(2**10), [1], []],
    ids=["range", "divisors-720720", "divisors-1024", "one", "empty"],
)
def test_smallest_prime_factors_against_factorisation(elements):
    expected = {n: min(prime_factors(n)) for n in elements if n > 1}
    assert smallest_prime_factors(elements) == expected
