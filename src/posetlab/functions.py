"""Finite-support point functions and their transforms.

A ``FiniteSupportFunction`` maps finitely many poset elements to nonzero
scalars. Transforming one by an interval function ``a`` gives the point
function

    y  |->  sum over x <= y of a(x, y) * f(x),

which can have infinite support even when f does not, so a transform
is an ``EvaluableFunction`` that keeps f and a, is evaluated one element
at a time, and is only turned back into finite data by :func:`materialize`
over an explicit window. The zeta transform (cumulative sums over
ideals) and Mobius inversion are the two named specialisations.

Evaluating a transform at one element y computes the defining sum
above; this point rule is the reference oracle. On posets that are
downsets of a product of chains (divisibility, multisets, subsets and
the chain), :func:`materialize` computes transforms by zeta or by an
inverse of zeta (Mobius) for a whole window at once instead: one pass
per coordinate, as in Yates's algorithm and the fast zeta transform of
Bjorklund, Husfeldt, Kaski and Koivisto (SODA 2012). The poset reads
the passes from the ``Window``, whose shape its family knows
(:meth:`~posetlab.posets.Poset.window_passes`), with the listing they
index, the window or its grid. They run on integer numerators over a
common denominator of f's stored values, and their result is stored
in window order, canonical and narrow. Every other transform, and
every explicit poset, is evaluated point by point, in narrow arithmetic
on f's stored values. The kernel's pass loop also solves Mobius rows
and columns on grids (:mod:`posetlab.incidence`).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import InvalidInput, PosetMismatch
from .incidence import IntervalFunction, mobius_function, zeta_function
from .posets import Poset, Window, _check_cap, _run_passes, enumerate_window
from .scalars import ZERO, GaussianRational, _Immutable, _set, as_scalar, format_narrow, narrow, parse_narrow


class FiniteSupportFunction(_Immutable):
    """An exact map from finitely many elements to nonzero scalars.

    Zero values are pruned at construction and after every arithmetic
    operation, so the key set always equals the support. Entries are
    kept in canonical element order and their values in narrowest form
    (see :func:`posetlab.scalars.narrow`); ``f[x]`` and :meth:`items`
    wrap them as ``GaussianRational``. Instances are immutable and, as
    their entries are a dict, unhashable.
    """

    __slots__ = ("poset", "_entries")
    __hash__ = None

    def __init__(self, poset: Poset, entries=()):
        _set(self, "poset", poset)
        items = entries.items() if isinstance(entries, dict) else entries
        _set(self, "_entries", _ordered(poset, ((poset.canon(x), narrow(v)) for x, v in items)))

    @classmethod
    def _canonical(cls, poset: Poset, entries: dict) -> "FiniteSupportFunction":
        """The function storing ``entries`` as given: canonical elements
        in canonical order mapped to nonzero narrow values, as the
        constructor would store them."""
        f = object.__new__(cls)
        _set(f, "poset", poset)
        _set(f, "_entries", entries)
        return f

    def support(self) -> list:
        return list(self._entries)

    def items(self) -> list:
        return [(element, as_scalar(value)) for element, value in self._entries.items()]

    def __getitem__(self, element) -> GaussianRational:
        value = self._entries.get(self.poset.canon(element))
        return ZERO if value is None else as_scalar(value)

    def __len__(self):
        return len(self._entries)

    def __bool__(self):
        return bool(self._entries)

    def __add__(self, other):
        if not isinstance(other, FiniteSupportFunction):
            return NotImplemented
        if self.poset != other.poset:
            raise PosetMismatch("cannot add functions on different posets")
        merged = dict(self._entries)
        for element, value in other._entries.items():
            merged[element] = merged.get(element, 0) + value
        return FiniteSupportFunction(self.poset, merged)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, scalar):
        scalar = narrow(scalar)
        return FiniteSupportFunction(
            self.poset, {element: value * scalar for element, value in self._entries.items()}
        )

    __rmul__ = __mul__

    def __repr__(self):
        pairs = ", ".join(
            f"{self.poset.format_element(k)}: {v}" for k, v in self.items()
        )
        return f"FiniteSupportFunction({self.poset.family}; {pairs})"


def _ordered(poset: Poset, pairs) -> dict:
    """Stored entries from canonical ``(element, narrow value)`` pairs:
    a repeated element is refused, zeros are dropped and the rest is put
    in canonical order. Every kept element's sort key is computed, once,
    after the repeats are checked, since a multisets key refuses an
    image past the cap; entries whose keys already ascend, as every
    written document's do, are returned as staged, unsorted."""
    staged = {}
    for element, value in pairs:
        if element in staged:
            raise InvalidInput(f"duplicate entry for {poset.format_element(element)}")
        if value:
            staged[element] = value
    keys = list(map(poset.sort_key, staged))
    if all(map(operator.lt, keys, keys[1:])):
        return staged
    ordered = sorted(zip(keys, staged.items()), key=operator.itemgetter(0))
    return {element: value for _, (element, value) in ordered}


class EvaluableFunction:
    """The transform of ``h`` by ``a``, built by :func:`alpha_transform`:
    y |-> sum of a(x, y) * h(x) over support elements x <= y. Its support
    is in general infinite, but evaluation at one element terminates
    because the sum ranges over h's finite support. The point rule and
    the kernel of :func:`materialize` both read ``h``'s stored narrow
    values; no copy of them is kept here.
    """

    def __init__(self, h: FiniteSupportFunction, a: IntervalFunction):
        self.poset = h.poset
        self.h = h
        self.a = a

    def __call__(self, element) -> GaussianRational:
        p = self.poset
        y = p.canon(element)
        a = self.a._evaluate_canonical
        total = 0
        for x, value in self.h._entries.items():
            if p._leq(x, y):
                total += a(x, y) * value
        return as_scalar(total)


def alpha_transform(h: FiniteSupportFunction, a: IntervalFunction) -> EvaluableFunction:
    """The transform of ``h`` by the interval function ``a``:
    y |-> sum of a(x, y) * h(x) over support elements x <= y."""
    if h.poset != a.poset:
        raise PosetMismatch("function and interval function live on different posets")
    return EvaluableFunction(h, a)


def zeta_transform(f: FiniteSupportFunction) -> EvaluableFunction:
    """Cumulative sums over principal ideals:
    y |-> sum of f(x) over support elements x <= y."""
    return alpha_transform(f, zeta_function(f.poset))


def mobius_inversion(g: FiniteSupportFunction) -> EvaluableFunction:
    """Inverse of the zeta transform:
    y |-> sum of mu(x, y) * g(x) over support elements x <= y."""
    return alpha_transform(g, mobius_function(g.poset))


def materialize(e: EvaluableFunction, w: Window) -> FiniteSupportFunction:
    """The exact restriction of ``e`` to the window, keeping the nonzero
    values.

    A transform by zeta or by an inverse of zeta, on a window with
    :meth:`~posetlab.posets.Poset.window_passes`, is computed for the
    whole window coordinate by coordinate, and one by delta, or an
    inverse of delta, is the support copied onto the window; either
    equals ``e(y)`` at every window element. Anything else, including
    any object with only a ``poset`` and a ``__call__``, is evaluated at
    every window element.
    Support elements outside the window never reach a window element,
    because windows are downward closed."""
    if e.poset != w.poset:
        raise PosetMismatch("function and window live on different posets")
    return _materialize_elements(e, w, enumerate_window(w))


def _materialize_elements(e: EvaluableFunction, w: Window, elements: list) -> FiniteSupportFunction:
    """:func:`materialize` on the window ``w``, whose ``elements`` are
    ``enumerate_window(w)``."""
    if isinstance(e, EvaluableFunction):
        sign = e.a._zeta_power()
        # Delta (power 0) runs no pass: its transform is h copied onto the window.
        shape = None if sign is None else e.poset.window_passes(w, elements) if sign else (elements, [])
        if shape is not None:
            values = _coordinatewise(e.h._entries, sign, elements, *shape)
            return FiniteSupportFunction._canonical(e.poset, values)
    return FiniteSupportFunction(e.poset, ((y, e(y)) for y in elements))


def _coordinatewise(entries: dict, sign: int, elements: list, listing: list, passes) -> dict:
    """Zeta (sign 1) or Mobius (sign -1) transform of the narrow
    ``entries`` (element -> value) on the enumerated window
    ``elements``, whose ``listing`` and ``passes`` are the window's
    :meth:`~posetlab.posets.Poset.window_passes`: the nonzero values,
    narrow, in the order of ``elements``.

    Zeta is the product of one prefix-sum operator per chain, and Mobius
    the product of their inverses, so each coordinate gets its passes
    (``posets._run_passes``): a[t] += a[s] over the passes in order for
    zeta, and a[t] -= a[s] over them in reverse for Mobius, which undoes
    each step with a[s] as that step read it. The coefficients are 1 and
    -1, so the passes run on the values scaled by the lcm of their
    denominators, as integers: one list for real parts, and one for
    imaginary parts only when one is nonzero."""
    position = dict(zip(listing, range(len(listing))))
    # Support outside the window reaches no window element.
    placed = [(position[x], v) for x, v in entries.items() if x in position]
    real = [(i, v.real if type(v) is GaussianRational else v) for i, v in placed]
    imag = [(i, v.imag) for i, v in placed if type(v) is GaussianRational]
    scale = math.lcm(*{part.denominator for _, part in real + imag})
    numerators = []
    for parts in (real, imag) if imag else (real,):
        values = [0] * len(listing)
        for i, part in parts:
            values[i] = part.numerator * (scale // part.denominator)
        _run_passes(values, passes, sign)
        if listing is not elements:
            # The passes ran in listing order; the result is in window order.
            values = [values[position[y]] for y in elements]
        numerators.append(values)
    if not imag:
        return {elements[i]: _unscale(scale, n) for i, n in enumerate(numerators[0]) if n}
    return {elements[i]: _unscale(scale, re, im) for i, (re, im) in enumerate(zip(*numerators)) if re or im}


def _unscale(scale: int, real: int, imag: int = 0):
    """``(real + imag i) / scale`` in its narrowest type."""
    if imag:
        return GaussianRational(Fraction(real, scale), Fraction(imag, scale))
    return Fraction(real, scale) if real % scale else real // scale


# -- function documents ------------------------------------------------


def function_to_document(f: FiniteSupportFunction, poset_label: str | None = None) -> dict:
    """Serialise to ``{"poset": ..., "values": {encoding: scalar}}`` with
    entries in canonical element order. The stored narrow values are
    printed as they are, without wrapping them as ``GaussianRational``."""
    fmt = f.poset.format_element
    return {
        "poset": poset_label or f.poset.family,
        "values": {fmt(k): format_narrow(v) for k, v in f._entries.items()},
    }


def function_from_document(doc: dict, poset: Poset) -> FiniteSupportFunction:
    """Parse a function document against a resolved poset. Zero values
    are accepted and pruned. Each value is read in its narrowest type,
    so only a value with a nonzero imaginary part builds a
    ``GaussianRational``, and each distinct value text is parsed once:
    entries with the same text share its immutable value. Elements and
    values are read in entry order, so the first malformed one raises,
    before any repeated element; entries already in canonical order are
    kept in it without a sort (see :func:`_ordered`). A document of more
    than ``DEFAULT_ELEMENT_CAP`` entries is refused before any is read."""
    if not isinstance(doc, dict) or "values" not in doc:
        raise InvalidInput("function document must be an object with a 'values' key")
    values = doc["values"]
    if not isinstance(values, dict):
        raise InvalidInput("'values' must map element encodings to scalars")
    _check_cap(len(values), f"function document of {len(values)} entries exceeds cap {{cap}}")
    parse_element = poset.parse_element
    # Keyed by text, not by the JSON value: 1, true and 1.0 are equal
    # keys, but 'True' and '1.0' are invalid scalars.
    parsed = {}
    entries = []
    for key, text in values.items():
        element = parse_element(key)
        text = str(text)
        if text not in parsed:
            parsed[text] = parse_narrow(text)
        entries.append((element, parsed[text]))
    # Parsed elements are canonical and parsed values narrow already.
    return FiniteSupportFunction._canonical(poset, _ordered(poset, entries))
