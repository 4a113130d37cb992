"""Interval functions and the incidence algebra.

An ``IntervalFunction`` assigns an exact scalar to every interval
``[x, y]`` of a poset. The algebra's multiplication is convolution,

    (a * b)(x, y) = sum over x <= z <= y of a(x, z) * b(z, y),

with identity ``delta`` (1 on the diagonal, 0 elsewhere). One
triangular recursion computes every inverse b of a, a row at a time:

    b(x, x) = 1 / a(x, x),
    b(x, y) = - (sum over x <= z < y of b(x, z) * a(z, y)) / a(y, y).

The Mobius function is the inverse of the constant function ``zeta``,
where this is the defining recursion
``mu(x, y) = - sum over x <= z < y of mu(x, z)``.

Evaluations are memoised per instance. Instances are logically
immutable: evaluation is pure, so a concurrent duplicate computation
writes the identical value into the cache (CPython dict operations are
atomic), and sharing an instance across threads is safe.
"""

from __future__ import annotations

import weakref

from .errors import NotComparable, NotInvertible, PosetMismatch
from .posets import Poset
from .scalars import ONE, ZERO, GaussianRational, as_scalar


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
        if self.kind == "zeta":
            # Not memoised: a Mobius row would leave one entry per term.
            return ONE
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
        if kind == "custom":
            return as_scalar(self._rule(x, y))
        if kind == "convolution":
            return self._convolution(x, y)
        if kind == "inverse":
            return self._inverse_row(x, y)
        raise AssertionError(f"unknown kind {kind!r}")

    def _inverse_row(self, x, y) -> GaussianRational:
        # Triangular solve for b with (b * a)(x, .) = delta, filling the
        # memo for the whole row. Canonical interval order is a linear
        # extension, so each value only needs earlier ones; tracking the
        # nonzero entries keeps the inner sum proportional to the row's
        # support. Raises lazily on a zero diagonal. The `is ONE` tests
        # spare a Mobius row (a = zeta) every multiply and divide.
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
                value = ONE if diagonal is ONE else ONE / diagonal
            else:
                total = ZERO
                for w, b_w in nonzeros:
                    if p._leq(w, z):
                        a_wz = a._evaluate_canonical(w, z)
                        total = total + (b_w if a_wz is ONE else b_w * a_wz)
                value = -total if diagonal is ONE else -(total / diagonal)
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
    """The Mobius function of ``p``, the inverse of zeta, shared per
    poset so the recursion cache accumulates across callers."""
    fn = _MOBIUS_INSTANCES.get(p)
    if fn is None:
        fn = IntervalFunction(p, "inverse", inner=zeta_function(p), name="mobius")
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


def closed_form_mobius(p: Poset, x, y) -> GaussianRational:
    """Closed-form mu(x, y) for the built-in families, as an oracle
    independent of the recursion. Explicit posets have none."""
    x, y = p.canon(x), p.canon(y)
    if not p._leq(x, y):
        raise NotComparable(
            f"not comparable: {p.format_element(x)} !<= "
            f"{p.format_element(y)} in {p.family}"
        )
    return p._closed_form_mobius(x, y)
