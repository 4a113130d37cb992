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
``mu(x, y) = - sum over x <= z < y of mu(x, z)``. The same solver, run
down the interval instead of up it, solves a * b = delta a column at a
time (Rota):

    b(y, y) = 1 / a(y, y),
    b(z, y) = - (sum over z < w <= y of a(z, w) * b(w, y)) / a(z, z).

Memos are kept one dict per line: every memoised function keeps its
rows, ``_memo = {x: {y: value}}``, and an inverse also keeps its
columns, ``_columns = {y: {x: value}}``. A walk fills one line, a row
or a column, in the order of a linear extension of [x, y], so a row
line that holds y, or a column line that holds x, holds all of [x, y].

A row walks its interval's grid (``Poset._grid``, a mixed-radix listing
that is a linear extension) where the poset has one, and canonical
order elsewhere; a column walks the same list reversed. At each z the
sum runs over the nonzero entries so far, each tested with ``_leq``.
A Mobius row or column on a grid (divisibility, multisets, subsets) is
not summed at all. On a product of chains zeta is a product of one
prefix-sum operator per chain, so Mobius is the product of their
inverses, and the row of x is the Mobius transform of the point mass
at x: one integer difference pass per grid coordinate, in the same pass
loop as the whole-window kernel of :mod:`posetlab.functions`, with no
order test. Reversing the grid complements every digit, so the same
passes over the reversed list give a column. The chain, which has no
grid, and explicit posets keep the scan; a Mobius row of the chain holds
at most two nonzero entries.

Values are computed and memoised in their narrowest exact type (see
:func:`posetlab.scalars.narrow`), so a Mobius row is plain ``int``
arithmetic; :meth:`IntervalFunction.evaluate` and the other public
entry points return ``GaussianRational``.

Evaluations are memoised per instance. Instances are logically
immutable: evaluation is pure, so a concurrent duplicate computation
writes the identical value into the cache (CPython dict operations are
atomic, and a line is created with ``setdefault``, so two walks of one
line fill the same dict), and sharing an instance across threads is
safe.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotInvertible, PosetMismatch
from .posets import Poset, _grid_passes, _run_passes
from .scalars import GaussianRational, as_scalar, narrow


class IntervalFunction:
    """A scalar-valued function on the intervals of a poset.

    Build instances through :func:`delta_function`, :func:`zeta_function`,
    :func:`mobius_function`, :func:`custom_function`, :func:`convolve`,
    and :func:`invert`, which fix the ``name``. A convolution keeps its
    factors as ``operands == (a, b)``, an inverse ``(a,)``; a custom
    function keeps its ``rule``.
    """

    def __init__(self, poset, kind, name, operands=(), rule=None):
        self.poset = poset
        self.kind = kind
        self.name = name
        self.operands = operands
        self._rule = rule
        self._memo: dict = {}
        if kind == "inverse":
            self._columns: dict = {}

    def evaluate(self, x, y) -> GaussianRational:
        """The value on the interval [x, y]; raises ``NotComparable``
        when x <= y fails."""
        return as_scalar(self._evaluate_canonical(*self.poset._comparable(x, y)))

    def _zeta_power(self) -> int | None:
        """k where this function is zeta^k: 1 for zeta, 0 for delta,
        minus the operand's power for an inverse of one of these, None
        for anything else. Its sign is that of the whole-window kernel
        run that transforms by this function (delta's transform runs
        none), and two powers decide an inverse-pair check."""
        if self.kind == "inverse":
            power = self.operands[0]._zeta_power()
            return None if power is None else -power
        return {"zeta": 1, "delta": 0}.get(self.kind)

    def _evaluate_canonical(self, x, y):
        """The value on [x, y] for canonical x <= y, in narrowest form."""
        kind = self.kind
        # Neither is memoised: a Mobius row would leave one zeta entry per
        # term, and a delta search one delta entry per cell.
        if kind == "zeta":
            return 1
        if kind == "delta":
            return 1 if x == y else 0
        line = self._memo.get(x)
        if line is not None:
            cached = line.get(y)
            if cached is not None:
                return cached
        if kind == "inverse":
            return self._inverse_row(x, y)
        value = narrow(self._rule(x, y)) if kind == "custom" else self._convolution(x, y)
        self._memo.setdefault(x, {})[y] = value
        return value

    def _inverse_row(self, x, y):
        """This inverse's value on [x, y], solving x's row over [x, y]."""
        return self._solve(x, y, False)[y]

    def _column(self, x, y):
        """y's column line of this inverse, holding all of [x, y]. A walk
        fills its line in the walk's order, so where x is in the line,
        all of [x, y] is, and nothing is solved."""
        line = self._columns.get(y)
        if line is None or x not in line:
            line = self._solve(x, y, True)
        return line

    def _solve(self, x, y, column):
        # Triangular solve for b with (b * a)(x, .) = delta, filling x's
        # row line over [x, y]: b(x, z) a(z, z) = delta(x, z) minus the
        # sum of b(x, w) a(w, z) over x <= w < z. A column solves
        # (a * b)(., y) = delta down [x, y] the same way into y's column
        # line, with the order test and a's arguments swapped (zeta is
        # symmetric). The walk follows a linear extension, the grid or
        # canonical order, reversed for a column, so each value only
        # needs earlier ones; each is a sum over the nonzero entries so
        # far that ``_leq`` puts below it. Raises on the first zero
        # diagonal in canonical order.
        p = self.poset
        leq = p._leq
        operand = self.operands[0]
        a = _zeta if operand.kind == "zeta" else operand._evaluate_canonical
        grid = p._grid(x, y)
        walk = p._interval(x, y) if grid is None else grid[0]
        if column:
            line, start = self._columns.setdefault(y, {}), y
            walk, below, read = walk[::-1], leq, a
            leq = lambda w, z: below(z, w)
            if a is not _zeta:
                a = lambda w, z: read(z, w)
        else:
            line, start = self._memo.setdefault(x, {}), x
        if grid is not None and a is _zeta:
            # The difference passes of the module docstring. Every z of
            # [x, y] is kept, zeros included, as the scan would.
            values = [0] * len(walk)
            values[0] = 1
            _run_passes(values, _grid_passes(grid[1]), -1)
            line.update(zip(walk, values))
            return line
        nonzeros: list = []
        try:
            for z in walk:
                cached = line.get(z)
                if cached is not None:
                    if cached:
                        nonzeros.append((z, cached))
                    continue
                diagonal = a(z, z)
                if not diagonal:
                    raise NotInvertible(z)
                total = 1 if z == start else 0
                for w, b_w in nonzeros:
                    if leq(w, z):
                        total -= b_w * a(w, z)
                value = _divide(total, diagonal)
                line[z] = value
                if value:
                    nonzeros.append((z, value))
        except NotInvertible:
            # A walk in canonical order meets the first zero diagonal there.
            for z in p._interval(x, y):
                if not a(z, z):
                    raise NotInvertible(z) from None
            raise
        return line

    def _convolution(self, x, y):
        p = self.poset
        left, right = self.operands
        # Fills a row-solved left factor's row over [x, y] in one walk,
        # and an inverse right factor's column, so the loop below only
        # reads memos. Where the column meets a zero diagonal, the loop
        # reads the right factor's rows: they may never reach it, and
        # otherwise name the element they always named.
        left._evaluate_canonical(x, y)
        read = right._evaluate_canonical
        b = lambda z: read(z, y)
        # Where no read can raise, the exact sum does not depend on the
        # order of its terms, so it walks the grid unsorted.
        unordered = right.kind in _TOTAL
        if right.kind == "inverse":
            try:
                b = right._column(x, y).__getitem__
                unordered = True
            except NotInvertible:
                pass
        grid = p._grid(x, y) if unordered and left.kind in _FILLED else None
        total = 0
        for z in p._interval(x, y) if grid is None else grid[0]:
            a_val = left._evaluate_canonical(x, z)
            if a_val:
                b_val = b(z)
                if b_val:
                    total += a_val * b_val
        return narrow(total)

    def __repr__(self):
        return f"IntervalFunction({self.name} on {self.poset.family})"


# Kinds whose reads never raise, and those whose row over [x, y] costs
# no recursion once the value at (x, y) is read: delta and zeta are one
# comparison, and an inverse's row is then memoised whole.
_TOTAL = ("delta", "zeta")
_FILLED = _TOTAL + ("inverse",)


def _zeta(x, y):
    """zeta's value, 1, on every interval, read without the method call
    and kind test of ``IntervalFunction._evaluate_canonical``; a Mobius
    row reads it once per term."""
    return 1


def _divide(value, divisor):
    """value / divisor for narrow operands and a nonzero divisor, exactly
    and in narrowest form; ``int / int`` would give a float."""
    if divisor == -1:
        value = -value
    elif divisor != 1:
        if type(value) is GaussianRational or type(divisor) is GaussianRational:
            value = as_scalar(value) / divisor
        else:
            value = Fraction(value) / divisor
    return value if type(value) is int else narrow(value)


def delta_function(p: Poset) -> IntervalFunction:
    """The identity of the incidence algebra."""
    return IntervalFunction(p, "delta", "delta")


def zeta_function(p: Poset) -> IntervalFunction:
    """The constant-1 interval function."""
    return IntervalFunction(p, "zeta", "zeta")


def mobius_function(p: Poset) -> IntervalFunction:
    """The Mobius function of ``p``, the inverse of zeta, shared per
    poset so its memos, its rows and its columns, accumulate across
    callers. It is kept on the poset itself: the two refer only
    to each other, so neither keeps the other alive."""
    fn = p.__dict__.get("_mobius")
    if fn is None:
        fn = p._mobius = IntervalFunction(p, "inverse", "mobius", (zeta_function(p),))
    return fn


def custom_function(p: Poset, rule, name: str | None = None) -> IntervalFunction:
    """Wrap an evaluation rule ``rule(x, y) -> scalar``; the rule must be
    pure and total on the intervals of ``p``."""
    return IntervalFunction(p, "custom", name or "custom", rule=rule)


def convolve(a: IntervalFunction, b: IntervalFunction) -> IntervalFunction:
    """The lazily evaluated convolution a * b."""
    if a.poset != b.poset:
        raise PosetMismatch(f"cannot convolve over {a.poset.family} and {b.poset.family}")
    return IntervalFunction(a.poset, "convolution", f"({a.name}*{b.name})", (a, b))


def invert(a: IntervalFunction) -> IntervalFunction:
    """The two-sided convolution inverse of ``a``, evaluated lazily;
    raises ``NotInvertible`` on the first zero diagonal entry met."""
    return IntervalFunction(a.poset, "inverse", f"inverse({a.name})", (a,))


def evaluate(a: IntervalFunction, x, y) -> GaussianRational:
    return a.evaluate(x, y)


def mobius_value(p: Poset, x, y) -> GaussianRational:
    """mu(x, y) by the defining recursion; always integer-valued."""
    return mobius_function(p).evaluate(x, y)


def closed_form_mobius(p: Poset, x, y) -> GaussianRational:
    """Closed-form mu(x, y) for the built-in families, as an oracle
    independent of the recursion. Explicit posets have none."""
    return p._closed_form_mobius(*p._comparable(x, y))
