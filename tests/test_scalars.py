"""Gaussian-rational arithmetic and the scalar text format."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from posetlab import FiniteSupportFunction, GaussianRational, InvalidInput, closed_form_mobius, get_poset
from posetlab.scalars import MINUS_ONE, ONE, ZERO, narrow

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
scalars = st.builds(GaussianRational, rationals, rationals)


class TestTextFormat:
    @pytest.mark.parametrize(
        "text", ["1", "-2/3", "0+1i", "1/2-3/4i", "0", "7/2", "-1-1i"]
    )
    def test_canonical_round_trip(self, text):
        assert str(GaussianRational.parse(text)) == text

    @pytest.mark.parametrize(
        "text,expected",
        [
            (" 1/2 - 3/4 i ", GaussianRational(Fraction(1, 2), Fraction(-3, 4))),
            ("2/4", GaussianRational(Fraction(1, 2))),
            ("3i", GaussianRational(0, 3)),
            ("+5", GaussianRational(5)),
        ],
    )
    def test_lenient_parse(self, text, expected):
        assert GaussianRational.parse(text) == expected

    @pytest.mark.parametrize("text", ["", "abc", "1.5", "1/0", "1+2", "i"])
    def test_rejects_garbage(self, text):
        with pytest.raises(InvalidInput):
            GaussianRational.parse(text)

    @pytest.mark.parametrize(
        "text", ["7" * 5000, "1/" + "3" * 4400, "1+" + "9" * 4400 + "i", "-" + "1" * 4301 + "i"]
    )
    def test_rejects_oversized_digit_strings(self, text):
        with pytest.raises(InvalidInput, match="too many digits"):
            GaussianRational.parse(text)

    def test_refuses_to_print_past_digit_limit(self):
        value = GaussianRational(Fraction(1, int("7" * 3000))) + GaussianRational(
            Fraction(1, int("7" * 2999 + "1"))
        )
        with pytest.raises(InvalidInput, match="too many digits"):
            str(value)

    @given(scalars)
    def test_emit_parse_round_trip(self, value):
        assert GaussianRational.parse(str(value)) == value

    def test_repr_names_bit_lengths_past_digit_limit(self):
        assert repr(GaussianRational(Fraction(2, 3), 1)) == "GaussianRational('2/3+1i')"
        assert repr(GaussianRational(10**4300)) == "GaussianRational(<real 14285/1 bits, imag 0/1 bits>)"
        assert repr(GaussianRational(1, Fraction(-1, 2**20000))) == (
            "GaussianRational(<real 1/1 bits, imag 1/20001 bits>)"
        )


class TestArithmetic:
    @given(scalars, scalars)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(scalars, scalars, scalars)
    def test_multiplication_associates(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(scalars, scalars, scalars)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(scalars)
    def test_additive_inverse(self, a):
        assert a + (-a) == GaussianRational(0)

    @given(scalars, scalars)
    def test_division_inverts_multiplication(self, a, b):
        if b:
            assert (a / b) * b == a

    def test_complex_multiplication(self):
        i = GaussianRational(0, 1)
        assert i * i == -1
        assert str(GaussianRational(1, 2) / GaussianRational(0, 1)) == "2-1i"

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1) / GaussianRational(0)

    def test_mixed_arithmetic_with_ints_and_fractions(self):
        a = GaussianRational(Fraction(1, 2), 1)
        assert a + 1 == GaussianRational(Fraction(3, 2), 1)
        assert 2 * a == GaussianRational(1, 2)
        assert a - Fraction(1, 2) == GaussianRational(0, 1)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            GaussianRational(0.5)


class TestValueProtocol:
    def test_equality_and_hash_match_ints(self):
        assert GaussianRational(3) == 3
        assert hash(GaussianRational(3)) == hash(3)
        assert GaussianRational(Fraction(1, 2)) == Fraction(1, 2)

    def test_truthiness(self):
        assert not GaussianRational(0)
        assert GaussianRational(0, 1)

    def test_integer_checks(self):
        assert GaussianRational(-4).is_integer()
        assert GaussianRational(-4).as_integer() == -4
        assert not GaussianRational(Fraction(1, 2)).is_integer()
        assert not GaussianRational(1, 1).is_integer()
        with pytest.raises(ValueError):
            GaussianRational(1, 1).as_integer()


class TestImmutability:
    def test_parts_cannot_be_assigned_or_deleted(self):
        value = GaussianRational(1, 2)
        for name in ("real", "imag"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, Fraction(7))
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.other = 1
        assert (value.real, value.imag) == (1, 2)

    def test_shared_constants_stay_unchanged(self):
        chain = get_poset("chain")
        f = FiniteSupportFunction(chain, {1: 1})
        missing = f[5]
        assert missing is ZERO
        with pytest.raises(AttributeError):
            missing.real = Fraction(7)
        with pytest.raises(AttributeError):
            del missing.imag
        assert ZERO == 0 and (ZERO.real, ZERO.imag) == (0, 0)
        assert f[9] == 0
        assert FiniteSupportFunction(get_poset("divisibility"), {2: 3})[5] == 0
        mu = closed_form_mobius(chain, 1, 2)
        with pytest.raises(AttributeError):
            mu.real = Fraction(7)
        assert closed_form_mobius(chain, 1, 2) == -1
        assert closed_form_mobius(chain, 1, 5) == 0
        assert (ONE, MINUS_ONE) == (1, -1)


class TestNarrow:
    @pytest.mark.parametrize(
        "value,expected,kind",
        [
            (5, 5, int),
            (Fraction(4, 2), 2, int),
            (Fraction(-1, 3), Fraction(-1, 3), Fraction),
            (GaussianRational(-7), -7, int),
            (GaussianRational(Fraction(3, 4)), Fraction(3, 4), Fraction),
            (GaussianRational(1, -2), GaussianRational(1, -2), GaussianRational),
        ],
    )
    def test_narrowest_type(self, value, expected, kind):
        narrowed = narrow(value)
        assert type(narrowed) is kind and narrowed == expected

    @pytest.mark.parametrize("value", [True, 0.5, 1.0, 1j, "1", None])
    def test_rejects_what_as_scalar_rejects(self, value):
        with pytest.raises(InvalidInput):
            narrow(value)

    @given(scalars)
    def test_equal_with_equal_hash(self, value):
        narrowed = narrow(value)
        assert narrowed == value and hash(narrowed) == hash(value)
        assert narrow(narrowed) is narrowed
