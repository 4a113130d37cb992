"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line (run
with ``pytest -s`` to see them). All checks are exact: integer equality
or Gaussian-rational equality, zero tolerance everywhere.
"""

import random
from contextlib import contextmanager

from sympy import divisors

from helpers import (
    classical_mu_oracle,
    random_explicit_poset,
    random_interval_function,
    random_scalar,
    random_support_function,
    squarefree_upto,
)
from posetlab import (
    FiniteSupportFunction,
    GaussianRational,
    Window,
    check_witness_conditions,
    closed_form_mobius,
    convolve,
    enumerate_window,
    finite_support_pair_search,
    get_poset,
    integer_to_multiset,
    invert,
    leq,
    materialize,
    mobius_function,
    mobius_inversion,
    mobius_value,
    multiset_to_integer,
    support_census,
    verify_uncertainty_witnesses,
    zeta_function,
    zeta_transform,
)

DIV = get_poset("divisibility")
CHAIN = get_poset("chain")
SUBSETS = get_poset("subsets")
MULTISETS = get_poset("multisets")


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {name}")
        raise
    print(f"PASS criterion {number}: {name}")


def mu_int(poset, x, y):
    return mobius_value(poset, x, y).as_integer()


def test_criterion_1_mobius_zeta_inversion_identity():
    with criterion(1, "mu*zeta = zeta*mu = delta on all tested intervals"):
        # Divisibility, every interval with top <= 200.
        for y in range(1, 201):
            for x in divisors(y):
                inner = [x * d for d in divisors(y // x)]
                want = 1 if x == y else 0
                assert sum(mu_int(DIV, x, z) for z in inner) == want
                assert sum(mu_int(DIV, z, y) for z in inner) == want

        # Chain, every interval with top <= 200; one row-filling call per
        # base point, then running sums over the memoised values.
        for x in range(1, 201):
            mobius_value(CHAIN, x, 200)
            total = 0
            for y in range(x, 201):
                total += mu_int(CHAIN, x, y)
                assert total == (1 if y == x else 0)
        for y in range(1, 201):
            total = 0
            for x in range(y, 0, -1):
                total += mu_int(CHAIN, x, y)
                assert total == (1 if x == y else 0)

        # Subsets of {1..8}, every pair S <= T.
        for t in enumerate_window(Window(SUBSETS, 8)):
            for s in SUBSETS.ideal(t):
                inner = SUBSETS.interval(s, t)
                want = 1 if s == t else 0
                assert sum(mu_int(SUBSETS, s, z) for z in inner) == want
                assert sum(mu_int(SUBSETS, z, t) for z in inner) == want

        # 50 random explicit posets with at most 12 elements.
        rng = random.Random(20250809)
        for _ in range(50):
            p = random_explicit_poset(rng, rng.randint(2, 12))
            elements = enumerate_window(Window(p))
            for i, x in enumerate(elements):
                for y in elements[i:]:
                    if not leq(p, x, y):
                        continue
                    inner = p.interval(x, y)
                    want = 1 if x == y else 0
                    assert sum(mu_int(p, x, z) for z in inner) == want
                    assert sum(mu_int(p, z, y) for z in inner) == want


def test_criterion_2_closed_form_agreement():
    with criterion(2, "recursion matches closed forms with zero failures"):
        for y in range(1, 1001):
            for x in divisors(y):
                assert mobius_value(DIV, x, y) == closed_form_mobius(DIV, x, y)

        for m in range(1, 501):
            mobius_value(CHAIN, m, 500)
            for n in range(m, 501):
                assert mobius_value(CHAIN, m, n) == closed_form_mobius(CHAIN, m, n)

        rng = random.Random(271828)
        ground = list(range(1, 11))
        for _ in range(10_000):
            t = tuple(sorted(rng.sample(ground, rng.randint(0, 10))))
            s = tuple(sorted(rng.sample(t, rng.randint(0, len(t)))))
            assert mobius_value(SUBSETS, s, t) == closed_form_mobius(SUBSETS, s, t)


def test_criterion_3_inversion_round_trip():
    with criterion(3, "zeta transform then Mobius inversion is the identity"):
        setups = [
            (DIV, Window(DIV, 60)),
            (CHAIN, Window(CHAIN, 40)),
            (SUBSETS, Window(SUBSETS, 6)),
            (MULTISETS, Window(MULTISETS, 60)),
        ]
        rng = random.Random(314159)
        for poset, window in setups:
            pool = enumerate_window(window)
            for _ in range(100):
                f = random_support_function(rng, poset, pool, max_support=8, limit=100)
                g = materialize(zeta_transform(f), window)
                assert materialize(mobius_inversion(g), window) == f


def test_criterion_4_witness_verification():
    with criterion(4, "witness certificates verified by brute-force inversion"):
        rng = random.Random(604060)

        g_div = FiniteSupportFunction(
            DIV, {d: random_scalar(rng) for d in divisors(60)}
        )
        certs = verify_uncertainty_witnesses(DIV, g_div, 10)
        assert len(certs) >= 10
        for cert in certs:
            again = check_witness_conditions(DIV, cert.y, cert.avoid_set, cert.z)
            assert again.all_hold
            brute = sum(
                (
                    GaussianRational(classical_mu_oracle(cert.z // x)) * g_div[x]
                    for x in divisors(cert.z)
                ),
                GaussianRational(0),
            )
            assert brute == cert.observed_fz == cert.predicted_fz
            assert brute

        subsets_pool = enumerate_window(Window(SUBSETS, 3))
        g_sub = FiniteSupportFunction(
            SUBSETS, {s: random_scalar(rng) for s in subsets_pool}
        )
        certs = verify_uncertainty_witnesses(SUBSETS, g_sub, 10)
        assert len(certs) >= 10
        for cert in certs:
            again = check_witness_conditions(SUBSETS, cert.y, cert.avoid_set, cert.z)
            assert again.all_hold
            sign = lambda x: GaussianRational(-1 if (len(cert.z) - len(x)) % 2 else 1)
            brute = sum(
                (sign(x) * g_sub[x] for x in SUBSETS.ideal(cert.z)),
                GaussianRational(0),
            )
            assert brute == cert.observed_fz == cert.predicted_fz
            assert brute


def test_criterion_5_chain_counterexample():
    with criterion(5, "chain pair search reproduces the finite-support pair"):
        window, shell = Window(CHAIN, 10), Window(CHAIN, 20)
        result = finite_support_pair_search(CHAIN, window, shell)
        assert result.nullspace_dimension == 9

        f, g = result.candidate
        assert f and set(f.support()) <= set(enumerate_window(window))
        refreshed = materialize(zeta_transform(f), shell)
        assert refreshed == g
        for y in range(11, 21):
            assert refreshed[y] == 0

        known_pair = FiniteSupportFunction(CHAIN, {1: 1, 2: -1})
        assert result.vector_in_nullspace(known_pair)
        assert dict(materialize(zeta_transform(known_pair), shell).items()) == {
            1: GaussianRational(1)
        }


def test_criterion_6_divisibility_non_counterexample():
    with criterion(6, "divisor windows admit no finite-support pair"):
        small = finite_support_pair_search(
            DIV, Window(DIV, 6, divisor_closure=True), Window(DIV, 12)
        )
        assert small.nullspace_dimension == 0
        assert small.candidate is None

        window = Window(DIV, 60, divisor_closure=True)
        result = finite_support_pair_search(DIV, window, Window(DIV, 360))
        assert result.nullspace_dimension == 0
        if result.candidate is not None:
            doubled = finite_support_pair_search(DIV, window, Window(DIV, 720))
            assert not doubled.vector_in_nullspace(result.candidate[0])


def test_criterion_7_census_fidelity():
    with criterion(7, "censuses match closed forms and the squarefree sieve"):
        chain_census = support_census(
            CHAIN, mobius_function(CHAIN), 1, Window(CHAIN, 100)
        )
        assert chain_census.members == [1, 2]
        assert chain_census.verdict == "finite-certified"

        div_census = support_census(DIV, mobius_function(DIV), 1, Window(DIV, 1000))
        sieve = squarefree_upto(1000)
        assert div_census.members == sieve
        assert len(div_census.members) == 608
        assert div_census.verdict == "infinite-certified"


def test_criterion_8_isomorphism():
    with criterion(8, "multiset/integer map is a bijective order embedding"):
        for n in range(1, 100_001):
            assert multiset_to_integer(integer_to_multiset(n)) == n

        for n in range(1, 121):
            for m in range(1, 121):
                assert leq(
                    MULTISETS, integer_to_multiset(n), integer_to_multiset(m)
                ) == (m % n == 0)

        rng = random.Random(161803)
        for _ in range(2000):
            n, m = rng.randint(1, 100_000), rng.randint(1, 100_000)
            assert leq(
                MULTISETS, integer_to_multiset(n), integer_to_multiset(m)
            ) == (m % n == 0)


def test_criterion_9_incidence_algebra_inverse():
    with criterion(9, "lazy inversion agrees with Mobius and composes to delta"):
        rng = random.Random(987654)
        setups = [
            (DIV, Window(DIV, 200)),
            (CHAIN, Window(CHAIN, 200)),
            (SUBSETS, Window(SUBSETS, 8)),
            (MULTISETS, Window(MULTISETS, 200)),
        ]
        for poset, window in setups:
            elements = enumerate_window(window)
            zeta_inverse = invert(zeta_function(poset))
            checked = 0
            while checked < 1000:
                x, y = rng.choice(elements), rng.choice(elements)
                if not leq(poset, x, y):
                    continue
                assert zeta_inverse.evaluate(x, y) == mobius_value(poset, x, y)
                checked += 1

        elements = enumerate_window(Window(CHAIN, 30))
        a = random_interval_function(rng, CHAIN, elements)
        b = invert(a)
        ab, ba = convolve(a, b), convolve(b, a)
        checked = 0
        while checked < 100:
            x, y = rng.choice(elements), rng.choice(elements)
            if not leq(CHAIN, x, y):
                continue
            expected = GaussianRational(1 if x == y else 0)
            assert ab.evaluate(x, y) == expected
            assert ba.evaluate(x, y) == expected
            checked += 1
