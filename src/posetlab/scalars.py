"""Exact complex-rational scalars.

Every value the library returns is a ``GaussianRational``: a complex
number whose real and imaginary parts are arbitrary-precision rationals.
There is no floating point and no rounding anywhere, so algebraic
identities can be asserted with plain equality.

Internally, interval-function values are carried in their narrowest
exact type (:func:`narrow`): an ``int`` when the value is a real
integer, a ``Fraction`` when it is real but not an integer, and a
``GaussianRational`` only when its imaginary part is nonzero. Nearly
every value the library computes is an integer, and native ``int``
arithmetic is many times faster than building two ``Fraction`` parts.
The three types compare and hash alike on equal values, and results are
wrapped back into ``GaussianRational`` where they leave the library.

The text format is ``"p/q"`` or ``"p"`` for the real part with an optional
``"+r/s i"`` / ``"-r/s i"`` imaginary part, emitted without whitespace:
``1``, ``-2/3``, ``0+1i``, ``1/2-3/4i``. Parsing tolerates whitespace.
The format has one reader, :func:`parse_narrow`, and one printer,
:func:`format_narrow`, both on narrow values; ``GaussianRational.parse``
and ``str`` go through them, and function documents are read and
written with them directly, so an integer or rational document builds
no ``GaussianRational``. The document reader parses each distinct value
text once, and the entries with that text share the parsed value, which
is immutable.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

from .errors import InvalidInput

# Sign, numerator digits and optional denominator digits of each part.
_UNSIGNED = r"(\d+)(?:/(\d+))?"
_FULL_RE = _re.compile(rf"^([+-]?){_UNSIGNED}(?:([+-]){_UNSIGNED}i)?$")
_IMAG_RE = _re.compile(rf"^([+-]?){_UNSIGNED}i$")

# Bound once: every scalar is built through it, and a global lookup is
# cheaper than looking up ``object.__setattr__`` on each call.
_set = object.__setattr__


class _Immutable:
    """Base of the library's immutable values: scalars, finite-support
    functions and result records.

    A subclass lists its fields as ``__slots__``, in constructor order,
    and sets them in ``__init__`` through ``_set``. Fields cannot be
    assigned or deleted afterwards; copy and pickle rebuild an instance
    through ``__init__``. Two instances are equal when they are of the
    same class with equal fields, and hash as the tuple of their fields.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())


class GaussianRational(_Immutable):
    """Immutable exact scalar with rational real and imaginary parts.

    Both parts are ``fractions.Fraction`` values, hence always in lowest
    terms with positive denominator. Mixed arithmetic with ``int`` and
    ``Fraction`` is supported; floats are rejected to keep exactness.
    """

    __slots__ = ("real", "imag")

    def __init__(self, real=0, imag=0):
        if isinstance(real, float) or isinstance(imag, float):
            raise TypeError("floats are inexact; pass int or Fraction")
        _set(self, "real", Fraction(real))
        _set(self, "imag", Fraction(imag))

    @classmethod
    def parse(cls, text: str) -> "GaussianRational":
        """Parse the canonical scalar text format (whitespace tolerated)."""
        return as_scalar(parse_narrow(text))

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.real + other.real, self.imag + other.imag)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.real - other.real, self.imag - other.imag)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(other.real - self.real, other.imag - self.imag)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.real * other.real - self.imag * other.imag,
            self.real * other.imag + self.imag * other.real,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        norm = other.real * other.real + other.imag * other.imag
        if not norm:
            raise ZeroDivisionError("division by zero scalar")
        return GaussianRational(
            (self.real * other.real + self.imag * other.imag) / norm,
            (self.imag * other.real - self.real * other.imag) / norm,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational(-self.real, -self.imag)

    def __pos__(self):
        return self

    def __bool__(self):
        return bool(self.real) or bool(self.imag)

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.real == other.real and self.imag == other.imag

    def __hash__(self):
        # Matches hash of int/Fraction when the value is real, so mixed
        # equality stays consistent with hashing.
        if not self.imag:
            return hash(self.real)
        return hash((self.real, self.imag))

    def is_integer(self) -> bool:
        return not self.imag and self.real.denominator == 1

    def as_integer(self) -> int:
        if not self.is_integer():
            raise ValueError(f"{self} is not an integer")
        return self.real.numerator

    def __str__(self):
        return format_narrow(self)

    def __repr__(self):
        try:
            return f"GaussianRational({str(self)!r})"
        except InvalidInput:
            # Past the digit limit of ``str``: the sizes of the parts.
            return f"GaussianRational(<real {_bit_lengths(self.real)}, imag {_bit_lengths(self.imag)}>)"


def _bit_lengths(part: Fraction) -> str:
    return f"{part.numerator.bit_length()}/{part.denominator.bit_length()} bits"


def parse_narrow(text: str):
    """Parse the scalar text format (whitespace tolerated) into its
    narrowest exact type (see :func:`narrow`): a ``GaussianRational`` is
    built only for a nonzero imaginary part. ``GaussianRational.parse``
    wraps the result."""
    compact = "".join(text.split())
    match = _FULL_RE.match(compact)
    try:
        if match:
            sign, num, den, im_sign, im_num, im_den = match.groups()
            # The real part is read first, so its error is the one reported.
            real = _parse_rational(sign, num, den)
            imag = _parse_rational(im_sign, im_num, im_den) if im_sign else 0
            return GaussianRational(real, imag) if imag else real
        match = _IMAG_RE.match(compact)
        if match:
            imag = _parse_rational(*match.groups())
            return GaussianRational(0, imag) if imag else 0
    except ZeroDivisionError:
        raise InvalidInput(f"zero denominator in scalar: {text!r}") from None
    except ValueError:
        # Python refuses to convert integer strings past its digit limit.
        raise InvalidInput(f"scalar has too many digits ({len(compact)} characters)") from None
    raise InvalidInput(f"invalid scalar: {text!r}")


def _parse_rational(sign: str, num: str, den: str | None):
    """The rational ``sign num/den`` in its narrowest type, read as
    ``Fraction(text)`` reads it: digits through ``int``, so with its
    digit limit and Unicode digits."""
    value = int(num)
    if sign == "-":
        value = -value
    return value if den is None else narrow(Fraction(value, int(den)))


def format_narrow(value) -> str:
    """The scalar text of an ``int``, ``Fraction`` or ``GaussianRational``,
    the same for equal values of the three types, so a narrow value
    prints without being wrapped. ``GaussianRational.__str__`` is this
    printer."""
    try:
        if type(value) is GaussianRational:
            if value.imag:
                sign = "+" if value.imag > 0 else "-"
                return str(value.real) + sign + str(abs(value.imag)) + "i"
            value = value.real
        return str(value)
    except ValueError:
        # Past Python's digit limit, as in parse: such text could not be read back.
        raise InvalidInput("scalar has too many digits to print") from None


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return GaussianRational(value)
    return None


def as_scalar(value) -> GaussianRational:
    """Coerce an int, Fraction, or GaussianRational; reject anything else."""
    coerced = _coerce(value)
    if coerced is None:
        raise InvalidInput(f"cannot interpret {value!r} as an exact scalar")
    return coerced


def narrow(value):
    """``value`` in its narrowest exact type: ``int``, ``Fraction`` or,
    with a nonzero imaginary part, ``GaussianRational``. Anything that
    :func:`as_scalar` rejects is rejected here too."""
    kind = type(value)
    if kind is int:
        return value
    if kind is GaussianRational:
        if value.imag:
            return value
        value = value.real
    elif kind is not Fraction:
        return narrow(as_scalar(value))
    return value.numerator if value.denominator == 1 else value


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
MINUS_ONE = GaussianRational(-1)
