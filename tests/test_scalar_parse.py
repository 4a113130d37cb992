"""``GaussianRational.parse`` against a ``Fraction``-based reference.

The reference reads each part with ``Fraction(text)``, as the parser
once did; the parser now reads digits with ``int``. Both must accept and
reject the same texts, with the same values and the same messages.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from posetlab import GaussianRational, InvalidInput
from posetlab.scalars import as_scalar, format_narrow, narrow, parse_narrow

_RATIONAL = r"[+-]?\d+(?:/\d+)?"
_REF_FULL = re.compile(rf"^(?P<re>{_RATIONAL})(?:(?P<im>[+-]\d+(?:/\d+)?)i)?$")
_REF_IMAG = re.compile(rf"^(?P<im>{_RATIONAL})i$")


def reference_parse(text):
    """``(real, imag)`` as ``Fraction``s, or the ``InvalidInput`` message."""
    compact = "".join(text.split())
    try:
        match = _REF_FULL.match(compact)
        if match:
            real = Fraction(match.group("re"))
            return real, Fraction(match.group("im")) if match.group("im") else Fraction(0)
        match = _REF_IMAG.match(compact)
        if match:
            return Fraction(0), Fraction(match.group("im"))
    except ZeroDivisionError:
        return f"zero denominator in scalar: {text!r}"
    except ValueError:
        return f"scalar has too many digits ({len(compact)} characters)"
    return f"invalid scalar: {text!r}"


def parse_outcome(text):
    try:
        value = GaussianRational.parse(text)
    except InvalidInput as exc:
        return str(exc)
    assert type(value.real) is Fraction and type(value.imag) is Fraction
    return value.real, value.imag


# Digit strings: short ones with leading zeros and zeros, Arabic-Indic
# and fullwidth digits (which int and Fraction both read), and strings
# past Python's default 4300-digit limit for int conversion.
digits = st.one_of(
    st.text("0123456789", min_size=1, max_size=6),
    st.text("0١٢３", min_size=1, max_size=3),
    st.sampled_from(["0", "7", "1"]).map(lambda d: d * 4301),
)
signs = st.sampled_from(["", "+", "-"])
spaces = st.sampled_from(["", " ", "\t", " \n "])


@st.composite
def rationals(draw):
    text = draw(signs) + draw(spaces) + draw(digits)
    if draw(st.booleans()):
        text += draw(spaces) + "/" + draw(spaces) + draw(st.one_of(digits, st.just("0")))
    return text


@st.composite
def scalar_texts(draw):
    form = draw(st.sampled_from(["real", "complex", "imaginary"]))
    if form == "real":
        text = draw(rationals())
    elif form == "complex":
        text = draw(rationals()) + draw(spaces) + draw(rationals()) + "i"
    else:
        text = draw(rationals()) + draw(spaces) + "i"
    return draw(spaces) + text + draw(spaces)


class TestParseMatchesFractionReference:
    @given(scalar_texts())
    @example("1/0")
    @example("-0/5+0/0i")
    @example("007/014-00i")
    @example("1/0+" + "9" * 4400 + "i")
    @example("9" * 4400 + "/0")
    @example("١٢/３")
    def test_generated_texts(self, text):
        assert parse_outcome(text) == reference_parse(text)

    @given(st.text("0123456789+-/i ١", max_size=12))
    def test_arbitrary_texts(self, text):
        assert parse_outcome(text) == reference_parse(text)


# -- the narrow reader and printer -------------------------------------


def typed(value):
    """``value`` with its type, so that ``2`` and ``Fraction(2)`` differ."""
    return value, type(value)


def outcome(read, text):
    try:
        return typed(read(text))
    except InvalidInput as exc:
        return str(exc)


def reference_narrow(text):
    """The reference parse, narrowed by hand, or its message."""
    parsed = reference_parse(text)
    if isinstance(parsed, str):
        return parsed
    real, imag = parsed
    if imag:
        return typed(GaussianRational(real, imag))
    return typed(real.numerator if real.denominator == 1 else real)


@st.composite
def stray_i_texts(draw):
    """A scalar text with one ``i`` put in anywhere."""
    text = draw(scalar_texts())
    at = draw(st.integers(0, len(text)))
    return text[:at] + "i" + text[at:]


class TestNarrowParse:
    @given(st.one_of(scalar_texts(), stray_i_texts(), st.text("0123456789+-/i ١", max_size=12)))
    @example("4/2")
    @example("0+0i")
    @example("-0/3i")
    @example("1/2+0/7i")
    @example("1+2ii")
    @example("i")
    @example("1/0")
    @example("1/0+" + "9" * 4400 + "i")
    @example("9" * 4400 + "/0")
    def test_matches_the_wide_parse_and_the_reference(self, text):
        narrow_outcome = outcome(parse_narrow, text)
        assert narrow_outcome == outcome(lambda t: narrow(GaussianRational.parse(t)), text)
        assert narrow_outcome == reference_narrow(text)


def reference_print(real: Fraction, imag: Fraction) -> str:
    """The scalar text from numerator and denominator digits."""

    def part(q):
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    if not imag:
        return part(real)
    return part(real) + ("+" if imag > 0 else "-") + part(abs(imag)) + "i"


def printed(fmt, value):
    try:
        return fmt(value)
    except (InvalidInput, ValueError) as exc:
        # Past Python's digit limit the library refuses with InvalidInput
        # and the reference's str with ValueError.
        return "too many digits" if "digits" in str(exc) else repr(exc)


# A part (numerator, denominator, power) is numerator / denominator times
# 10**power; powers of +-4300 pass Python's default limit of 4300 digits
# for str(int). Values are built inside the test, because such a value
# cannot be printed in a report either.
_PARTS = st.tuples(st.integers(), st.integers(1, 10**6), st.sampled_from([0, 0, 0, 4300, -4300]))


def part(spec) -> Fraction:
    num, den, power = spec
    return Fraction(num * 10 ** max(power, 0), den * 10 ** max(-power, 0))


class TestNarrowPrinter:
    @given(_PARTS, _PARTS, st.sampled_from(["narrow", "fraction", "gaussian"]))
    @example((-7, 1, 4300), (0, 1, 0), "narrow")
    @example((1, 1, -4300), (0, 1, 0), "fraction")
    @example((1, 1, 0), (1, 1, 4300), "gaussian")
    @example((0, 1, 0), (-3, 4, 0), "gaussian")
    @example((6, 3, 0), (0, 1, 0), "fraction")
    def test_matches_str_of_the_wrapped_value(self, real, imag, kind):
        value = part(real)
        if kind == "narrow":
            value = narrow(value)
        elif kind == "gaussian":
            value = GaussianRational(value, part(imag))
        wide = as_scalar(value)
        expected = printed(lambda v: reference_print(v.real, v.imag), wide)
        assert printed(format_narrow, value) == printed(str, wide) == expected
        assert printed(format_narrow, narrow(value)) == expected
        if expected == "too many digits":
            with pytest.raises(InvalidInput, match="^scalar has too many digits to print$"):
                format_narrow(value)
