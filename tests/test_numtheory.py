"""Integer helpers against brute-force oracles."""

import functools
import itertools
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posetlab.numtheory as numtheory
from helpers import classical_mu_oracle
from posetlab import get_poset, witnesses
from posetlab.errors import BoundTooLarge, InvalidInput
from posetlab.numtheory import (
    _integer_root,
    classical_mobius,
    divisor_grid,
    is_prime,
    prime_factors,
    primes,
)


def test_is_prime_small_values():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    assert {n for n in range(31) if is_prime(n)} == known
    assert not any(is_prime(n) for n in (0, 1, -7))


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
    # Mixed-radix order: the first prime's exponent varies fastest.
    assert divisor_grid({}) == [1]
    assert divisor_grid({2: 2, 3: 1}) == [1, 2, 4, 3, 6, 12]
    assert divisor_grid({97: 1}) == [1, 97]


def test_divisors_against_scan():
    for n in range(1, 200):
        assert sorted(divisor_grid(prime_factors(n))) == [d for d in range(1, n + 1) if n % d == 0]


# -- the factoriser against trial division ----------------------------------

BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981


def trial_division(n):
    """The oracle: {prime: multiplicity} by dividing out 2, 3, 5, 7, ..."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def oracle_is_prime(n):
    return n > 1 and trial_division(n) == {n: 1}


@functools.lru_cache(maxsize=None)
def next_prime(n):
    """The least prime >= n, certified by trial division."""
    while not oracle_is_prime(n):
        n += 1
    return n


def failing_bases(n):
    """The bases of ``BASES`` to which odd n > 41 is not a strong probable
    prime, by the textbook definition."""
    s = 0
    d = n - 1
    while d % 2 == 0:
        d //= 2
        s += 1
    failed = []
    for a in BASES:
        terms = [pow(a, d << r, n) for r in range(s)]
        if terms[0] != 1 and n - 1 not in terms:
            failed.append(a)
    return failed


def test_is_prime_below_a_million_against_a_sieve():
    limit = 10**6
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for p in range(2, 1001):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit, p)))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if flags[n]]


@settings(max_examples=200, deadline=None)
@given(n=st.one_of(st.integers(1, 10**6), st.integers(1, 10**10)))
def test_prime_factors_against_trial_division(n):
    assert prime_factors(n) == trial_division(n)


SMALL_PRIMES = st.integers(2, 10**4).map(next_prime)
MEDIUM_PRIMES = st.integers(10**6, 10**9).map(next_prime)
LARGE_PRIMES = st.integers(10**12, 10**12 + 10**8).map(next_prime)


@settings(max_examples=40, deadline=None)
@given(
    small=st.lists(SMALL_PRIMES, max_size=4),
    medium=st.lists(MEDIUM_PRIMES, max_size=2),
    large=st.lists(LARGE_PRIMES, max_size=1),
)
def test_products_of_primes_of_mixed_sizes(small, medium, large):
    chosen = small + medium + large
    expected = {p: chosen.count(p) for p in sorted(set(chosen))}
    got = prime_factors(math.prod(chosen))
    assert got == expected
    assert list(got) == sorted(got)


@settings(max_examples=10, deadline=None)
@given(p=LARGE_PRIMES, k=st.sampled_from([2, 3]), cofactor=st.sampled_from([1, 2, 999983, 1009]))
def test_squares_and_cubes_of_primes_near_10_to_12(p, k, cofactor):
    n = p**k * cofactor
    assert prime_factors(n) == dict(sorted({p: k, **trial_division(cofactor)}.items()))


@settings(max_examples=300, deadline=None)
@given(
    m=st.one_of(
        st.integers(1, 10**60),
        st.integers(1, 2**5000),
        st.builds(lambda r, k, d: r**k + d, st.integers(1, 10**30), st.integers(2, 60), st.integers(-1, 1)),
    ),
    k=st.integers(2, 1000),
)
def test_integer_root_brackets_the_root(m, k):
    m = max(m, 1)
    r = _integer_root(m, k)
    assert r**k <= m < (r + 1) ** k


@pytest.mark.parametrize(
    "n,factors",
    [
        (561, {3: 1, 11: 1, 17: 1}),
        (41041, {7: 1, 11: 1, 13: 1, 41: 1}),
        (3215031751, {151: 1, 751: 1, 28351: 1}),
        (3825123056546413051, {149491: 1, 747451: 1, 34233211: 1}),
        (318665857834031151167461, {399165290221: 1, 798330580441: 1}),
    ],
    ids=["carmichael-561", "carmichael-41041", "spsp-2-3-5-7", "spsp-to-31", "spsp-to-37"],
)
def test_carmichael_numbers_and_strong_pseudoprimes_are_composite(n, factors):
    assert not is_prime(n)
    assert prime_factors(n) == factors


def test_strong_pseudoprimes_fail_only_the_last_bases():
    # Only the thirteenth base, 41, proves 318665857834031151167461
    # composite.
    assert failing_bases(3215031751) == [11, 13, 17, 23, 29, 31, 41]
    assert failing_bases(3825123056546413051) == [37, 41]
    assert failing_bases(318665857834031151167461) == [41]


def test_psi_13_is_never_reported_prime():
    assert failing_bases(PSI_13) == []
    try:
        assert not is_prime(PSI_13)
    except BoundTooLarge:
        pass
    try:
        assert prime_factors(PSI_13) == {1287836182261: 1, 2575672364521: 1}
    except BoundTooLarge:
        pass


def test_primes_below_psi_13_are_proven_and_past_it_refused():
    assert is_prime(10**24 + 7)
    assert prime_factors(10**24 + 7) == {10**24 + 7: 1}
    for probable_prime in (10**30 + 57, 2**521 - 1):
        with pytest.raises(BoundTooLarge, match="proven range"):
            is_prime(probable_prime)
        with pytest.raises(BoundTooLarge, match="proven range"):
            prime_factors(probable_prime)


def test_25_digit_semiprime_factors():
    p, q = 10**12 + 39, 10**12 + 61
    # Prime by the thirteen-base theorem.
    assert failing_bases(p) == failing_bases(q) == []
    assert prime_factors(q * p) == {p: 1, q: 1}
    assert sorted(divisor_grid(prime_factors(p * q))) == [1, p, q, p * q]


def test_two_19_digit_primes_exhaust_the_budget():
    p, q = 10**18 + 3, 10**18 + 9
    start = time.perf_counter()
    with pytest.raises(BoundTooLarge, match="rho steps"):
        prime_factors(p * q)
    # A few seconds on a desktop core; the bound only catches a hang.
    assert time.perf_counter() - start < 60


def test_huge_inputs_take_bounded_work():
    # A Mersenne prime of 11213 bits: one base costs more than the budget.
    with pytest.raises(BoundTooLarge, match="rho steps"):
        is_prime(2**11213 - 1)
    # Perfect powers of a prime above the trial-division table are roots,
    # and a prime found by rho is divided out of the rest.
    assert prime_factors(1009**1400) == {1009: 1400}
    assert prime_factors(1009**70 * 1013**3 * 6) == {2: 1, 3: 1, 1009: 70, 1013: 3}


@pytest.mark.parametrize(
    "n",
    [
        1009 * 1013,
        (10**12 + 39) * 1009,
        999983 * 1000003 * (2**61 - 1),
        (2**61 - 1) * (2**31 - 1) * 1009**2,
        3825123056546413051 * 41041,
    ],
)
def test_factors_come_back_ascending(n):
    factors = prime_factors(n)
    assert list(factors) == sorted(factors)
    assert math.prod(p**k for p, k in factors.items()) == n
    assert all(is_prime(p) for p in factors)


@settings(max_examples=100, deadline=None)
@given(s=st.integers(2, 3000), m=st.one_of(st.integers(1, 10**6), MEDIUM_PRIMES))
def test_classical_mobius_of_squareful_numbers(s, m):
    n = s * s * m
    assert classical_mobius(n) == classical_mu_oracle(n) == 0


@settings(max_examples=10, deadline=None)
@given(p=MEDIUM_PRIMES, k=st.sampled_from([2, 3]), cofactor=st.sampled_from([1, 6, 1009, 1013 * 1019]))
def test_classical_mobius_of_squares_past_the_trial_limit(p, k, cofactor):
    # The oracle would trial-divide up to p; a square divides, so mu is 0.
    assert classical_mobius(p**k * cofactor) == 0


SEMIPRIME = 1000003 * 1000033


def test_changing_a_factorisation_leaves_the_cache_intact():
    numtheory._cached_large_prime_factors.cache_clear()
    first = prime_factors(SEMIPRIME)
    first[2] = 1
    first[1000003] = 5
    assert prime_factors(SEMIPRIME) == {1000003: 1, 1000033: 1}
    info = numtheory._cached_large_prime_factors.cache_info()
    assert (info.misses, info.hits, info.maxsize) == (1, 1, numtheory._FACTOR_CACHE_SIZE)


def test_refusals_are_not_cached(monkeypatch):
    numtheory._cached_large_prime_factors.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(numtheory, "_STEP_BUDGET", 1)
        with pytest.raises(BoundTooLarge):
            prime_factors(SEMIPRIME)
    assert prime_factors(SEMIPRIME) == {1000003: 1, 1000033: 1}


def test_witness_stream_splits_the_cofactor_once():
    numtheory._cached_large_prime_factors.cache_clear()
    certs = list(witnesses(get_poset("divisibility"), SEMIPRIME, [], 3))
    assert [c.z for c in certs] == [2 * SEMIPRIME, 3 * SEMIPRIME, 5 * SEMIPRIME]
    info = numtheory._cached_large_prime_factors.cache_info()
    assert info.misses == 1 and info.hits >= 3
