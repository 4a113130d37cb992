"""``GaussianRational.parse`` against a ``Fraction``-based reference.

The reference reads each part with ``Fraction(text)``, as the parser
once did; the parser now reads digits with ``int``. Both must accept and
reject the same texts, with the same values and the same messages.
"""

import re
from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from posetlab import GaussianRational, InvalidInput

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
