"""Shared oracles and deterministic generators for the test suite.

Oracles here are deliberately independent of the library's computation
paths: sieves and naive factor counting for number theory, literal
summation for identities.
"""

from fractions import Fraction

from hypothesis import strategies as st

import posetlab.lab
from posetlab import ExplicitPoset, FiniteSupportFunction, GaussianRational, custom_function


def squarefree_upto(n: int) -> list[int]:
    """Squarefree integers <= n by sieving multiples of squares."""
    flags = [True] * (n + 1)
    p = 2
    while p * p <= n:
        for k in range(p * p, n + 1, p * p):
            flags[k] = False
        p += 1
    return [k for k in range(1, n + 1) if flags[k]]


def classical_mu_oracle(n: int) -> int:
    """Number-theoretic Mobius by naive factor counting."""
    k = 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            k += 1
        else:
            d += 1
    if n > 1:
        k += 1
    return (-1) ** k


def random_explicit_poset(rng, size: int) -> ExplicitPoset:
    """Random DAG with edges respecting index order and a forced unique
    bottom at the first node."""
    ids = [f"v{i:02d}" for i in range(size)]
    covers = []
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.3:
                covers.append([ids[i], ids[j]])
    has_incoming = {high for _, high in covers}
    for ident in ids[1:]:
        if ident not in has_incoming:
            covers.append([ids[0], ident])
    return ExplicitPoset(ids, covers)


def random_scalar(rng, limit: int = 100) -> GaussianRational:
    """Nonzero Gaussian rational with parts bounded by limit."""
    while True:
        value = GaussianRational(
            Fraction(rng.randint(-limit, limit), rng.randint(1, limit)),
            Fraction(rng.randint(-limit, limit), rng.randint(1, limit)),
        )
        if value:
            return value


def exact_scalars(kind: str, limit: int = 9):
    """Hypothesis strategy for nonzero scalars of one tier: ``"int"``,
    ``"rational"`` or ``"gaussian"``."""
    parts = st.integers(-limit, limit)
    denominators = st.integers(1, limit)
    if kind == "int":
        return parts.filter(bool).map(GaussianRational)
    rationals = st.builds(Fraction, parts, denominators)
    if kind == "rational":
        return rationals.filter(bool).map(GaussianRational)
    return st.builds(GaussianRational, rationals, rationals.filter(bool))


def random_support_function(rng, poset, pool, max_support: int = 8, limit: int = 100):
    """Finite-support function with support drawn from pool."""
    size = rng.randint(1, min(max_support, len(pool)))
    support = rng.sample(list(pool), size)
    return FiniteSupportFunction(poset, {x: random_scalar(rng, limit) for x in support})


def random_interval_function(rng, poset, elements, name="random"):
    """Deterministic pseudo-random interval function over the pairs of a
    window, with nonzero diagonal (hence invertible there). Roughly a
    third of the off-diagonal entries are zero."""
    table = {}
    for i, x in enumerate(elements):
        for y in elements[i:]:
            if not poset.leq(x, y):
                continue
            if x == y:
                table[(x, y)] = random_scalar(rng, 9)
            elif rng.random() >= 0.3:
                table[(x, y)] = random_scalar(rng, 9)
    return custom_function(poset, lambda x, y: table.get((x, y), 0), name=name)


def skew_witness_stream(monkeypatch):
    """Make every witness certificate report twice the true mu(y, z), so
    that witness verification must find its conclusion violated."""
    stream = posetlab.lab.witnesses

    def skewed(*args, **kwargs):
        for cert in stream(*args, **kwargs):
            yield cert._replace(mu_yz=cert.mu_yz * 2)

    monkeypatch.setattr(posetlab.lab, "witnesses", skewed)
