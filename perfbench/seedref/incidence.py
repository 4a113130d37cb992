"""Interval functions and the incidence algebra.

An ``IntervalFunction`` assigns an exact scalar to every interval
``[x, y]`` of a poset. The algebra's multiplication is convolution,

    (a * b)(x, y) = sum over x <= z <= y of a(x, z) * b(z, y),

with identity ``delta`` (1 on the diagonal, 0 elsewhere) and with the
constant function ``zeta`` whose convolution inverse is the Mobius
function. Mobius values are computed by the defining recursion

    mu(x, x) = 1,    mu(x, y) = - sum over x <= z < y of mu(x, z),

evaluated by dynamic programming over the finite interval; general
inverses use the analogous triangular recursion, dividing by diagonal
entries as it goes.

Evaluations are memoised per instance. Instances are logically
immutable: evaluation is pure, so a concurrent duplicate computation
writes the identical value into the cache (CPython dict operations are
atomic), and sharing an instance across threads is safe.
"""

from __future__ import annotations

import weakref

from . import numtheory
from .errors import InvalidInput, NoClosedForm, NotComparable, NotInvertible, PosetMismatch
from .posets import Poset
from .scalars import MINUS_ONE, ONE, ZERO, GaussianRational, as_scalar


class IntervalFunction:
    """A scalar-valued function on the intervals of a poset.

    Build instances through :func:`delta_function`, :func:`zeta_function`,
    :func:`mobius_function`, :func:`custom_function`, :func:`convolve`,
    and :func:`invert`.
    """

    def __init__(self, poset, kind, *, rule=None, name=None, left=None, right=None, inner=None):
        self.poset = poset
        self.kind = kind
        self._rule = rule
        self._name = name
        self.left = left
        self.right = right
        self.inner = inner
        self._memo: dict = {}

    @property
    def name(self) -> str:
        if self._name:
            return self._name
        if self.kind == "convolution":
            return f"({self.left.name}*{self.right.name})"
        if self.kind == "inverse":
            return f"inverse({self.inner.name})"
        return self.kind

    def evaluate(self, x, y) -> GaussianRational:
        """The value on the interval [x, y]; raises ``NotComparable``
        when x <= y fails."""
        p = self.poset
        x, y = p.canon(x), p.canon(y)
        if not p._leq(x, y):
            raise NotComparable(
                f"not comparable: {p.format_element(x)} !<= "
                f"{p.format_element(y)} in {p.family}"
            )
        return self._evaluate_canonical(x, y)

    def _evaluate_canonical(self, x, y) -> GaussianRational:
        key = (x, y)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        value = self._compute(x, y)
        self._memo[key] = value
        return value

    def _compute(self, x, y) -> GaussianRational:
        kind = self.kind
        if kind == "delta":
            return ONE if x == y else ZERO
        if kind == "zeta":
            return ONE
        if kind == "custom":
            return as_scalar(self._rule(x, y))
        if kind == "mobius":
            return self._mobius_row(x, y)
        if kind == "convolution":
            return self._convolution(x, y)
        if kind == "inverse":
            return self._inverse_row(x, y)
        raise AssertionError(f"unknown kind {kind!r}")

    def _mobius_row(self, x, y) -> GaussianRational:
        # Fills the memo for every (x, z) with z in [x, y]. Canonical
        # interval order is a linear extension, so each value only needs
        # earlier ones. Tracking nonzero entries keeps the inner sum
        # proportional to the actual support of the row.
        p = self.poset
        memo = self._memo
        nonzeros: list = []
        for z in p._interval(x, y):
            cached = memo.get((x, z))
            if cached is not None:
                if cached:
                    nonzeros.append((z, cached))
                continue
            if z == x:
                value = ONE
            else:
                total = ZERO
                for w, mu_w in nonzeros:
                    if p._leq(w, z):
                        total = total + mu_w
                value = -total
            memo[(x, z)] = value
            if value:
                nonzeros.append((z, value))
        return memo[(x, y)]

    def _inverse_row(self, x, y) -> GaussianRational:
        # Triangular solve for b with (b * a)(x, .) = delta, filling the
        # memo for the whole row. Raises lazily on a zero diagonal.
        p = self.poset
        a = self.inner
        memo = self._memo
        nonzeros: list = []
        for z in p._interval(x, y):
            cached = memo.get((x, z))
            if cached is not None:
                if cached:
                    nonzeros.append((z, cached))
                continue
            diagonal = a._evaluate_canonical(z, z)
            if not diagonal:
                raise NotInvertible(z)
            if z == x:
                value = ONE / diagonal
            else:
                total = ZERO
                for w, b_w in nonzeros:
                    if p._leq(w, z):
                        total = total + b_w * a._evaluate_canonical(w, z)
                value = -(total / diagonal)
            memo[(x, z)] = value
            if value:
                nonzeros.append((z, value))
        return memo[(x, y)]

    def _convolution(self, x, y) -> GaussianRational:
        p = self.poset
        total = ZERO
        for z in p._interval(x, y):
            a_val = self.left._evaluate_canonical(x, z)
            if a_val:
                b_val = self.right._evaluate_canonical(z, y)
                if b_val:
                    total = total + a_val * b_val
        return total

    def __repr__(self):
        return f"IntervalFunction({self.name} on {self.poset.family})"


def delta_function(p: Poset) -> IntervalFunction:
    """The identity of the incidence algebra."""
    return IntervalFunction(p, "delta")


def zeta_function(p: Poset) -> IntervalFunction:
    """The constant-1 interval function."""
    return IntervalFunction(p, "zeta")


_MOBIUS_INSTANCES: "weakref.WeakKeyDictionary[Poset, IntervalFunction]"
_MOBIUS_INSTANCES = weakref.WeakKeyDictionary()


def mobius_function(p: Poset) -> IntervalFunction:
    """The Mobius function of ``p``, shared per poset so the recursion
    cache accumulates across callers."""
    fn = _MOBIUS_INSTANCES.get(p)
    if fn is None:
        fn = IntervalFunction(p, "mobius")
        _MOBIUS_INSTANCES[p] = fn
    return fn


def custom_function(p: Poset, rule, name: str | None = None) -> IntervalFunction:
    """Wrap an evaluation rule ``rule(x, y) -> scalar``; the rule must be
    pure and total on the intervals of ``p``."""
    return IntervalFunction(p, "custom", rule=rule, name=name or "custom")


def convolve(a: IntervalFunction, b: IntervalFunction) -> IntervalFunction:
    """The lazily evaluated convolution a * b."""
    if a.poset != b.poset:
        raise PosetMismatch(f"cannot convolve over {a.poset.family} and {b.poset.family}")
    return IntervalFunction(a.poset, "convolution", left=a, right=b)


def invert(a: IntervalFunction) -> IntervalFunction:
    """The two-sided convolution inverse of ``a``, evaluated lazily;
    raises ``NotInvertible`` on the first zero diagonal entry met."""
    return IntervalFunction(a.poset, "inverse", inner=a)


def evaluate(a: IntervalFunction, x, y) -> GaussianRational:
    return a.evaluate(x, y)


def mobius_value(p: Poset, x, y) -> GaussianRational:
    """mu(x, y) by the defining recursion; always integer-valued."""
    return mobius_function(p).evaluate(x, y)


def classical_mobius(n: int) -> int:
    """The number-theoretic Mobius function: 0 when a square divides n,
    otherwise (-1) to the number of distinct prime factors."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidInput(f"expected a positive integer, got {n!r}")
    factors = numtheory.prime_factors(n)
    if any(k > 1 for k in factors.values()):
        return 0
    return -1 if len(factors) % 2 else 1


def closed_form_mobius(p: Poset, x, y) -> GaussianRational:
    """Closed-form mu(x, y) for the built-in families, as an oracle
    independent of the recursion. Explicit posets have none."""
    x, y = p.canon(x), p.canon(y)
    if not p._leq(x, y):
        raise NotComparable(
            f"not comparable: {p.format_element(x)} !<= "
            f"{p.format_element(y)} in {p.family}"
        )
    family = p.family
    if family == "divisibility":
        return GaussianRational(classical_mobius(y // x))
    if family == "chain":
        if x == y:
            return ONE
        if x + 1 == y:
            return MINUS_ONE
        return ZERO
    if family == "subsets":
        return MINUS_ONE if (len(y) - len(x)) % 2 else ONE
    if family == "multisets":
        lower = dict(x)
        sign = 1
        for prime, mult in y:
            diff = mult - lower.get(prime, 0)
            if diff > 1:
                return ZERO
            if diff == 1:
                sign = -sign
        return GaussianRational(sign)
    raise NoClosedForm(f"no closed-form Mobius function for {family} posets")
