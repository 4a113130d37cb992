"""Narrow scalar tiers inside the incidence algebra.

Interval-function values are memoised as ``int``, as ``Fraction`` when
real but not integral, and as ``GaussianRational`` only with a nonzero
imaginary part. These tests compare rows, inverses and convolutions
with a recursion done entirely in ``GaussianRational``, check that every
memo value is in that normal form, and check that every public result
is a ``GaussianRational``.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posetlab.lab as lab
from helpers import random_explicit_poset
from posetlab import (
    FiniteSupportFunction,
    GaussianRational,
    Window,
    alpha_transform,
    check_witness_conditions,
    closed_form_mobius,
    convolve,
    custom_function,
    delta_function,
    enumerate_window,
    evaluate,
    finite_support_pair_search,
    get_poset,
    interval,
    invert,
    materialize,
    mobius_function,
    mobius_inversion,
    mobius_value,
    verify_uncertainty_witnesses,
    witnesses,
    zeta_function,
)
from posetlab.incidence import IntervalFunction
from posetlab.linalg import nullspace, primitive_integer_vector

DIV = get_poset("divisibility")
CHAIN = get_poset("chain")
SUBSETS = get_poset("subsets")
MULTISETS = get_poset("multisets")

BUILTIN_WINDOWS = {
    "divisibility": Window(DIV, 24),
    "chain": Window(CHAIN, 10),
    "subsets": Window(SUBSETS, 3),
    "multisets": Window(MULTISETS, 24),
}

I = GaussianRational(0, 1)

# Diagonal entries of the custom functions, one kind per test case.
DIAGONALS = {
    "one": lambda rng: 1,
    "minus_one": lambda rng: -1,
    "non_unit_int": lambda rng: rng.choice([2, -2, 3, -5]),
    "fraction": lambda rng: rng.choice([Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]),
    "gaussian": lambda rng: GaussianRational(rng.randint(-2, 2), rng.choice([-1, 1, 2])),
}


def is_normal(value) -> bool:
    """int; Fraction that is not an integer; GaussianRational with a
    nonzero imaginary part. Floats and bools are never normal."""
    kind = type(value)
    if kind is int:
        return True
    if kind is Fraction:
        return value.denominator != 1
    if kind is GaussianRational:
        return bool(value.imag)
    return False


def assert_memos_normal(*functions):
    for fn in functions:
        for lines in (fn._memo, getattr(fn, "_columns", {})):
            for key, line in lines.items():
                for other, value in line.items():
                    assert not isinstance(value, (float, bool)), (fn, key, other, value)
                    assert is_normal(value), (fn, key, other, value)


def as_gaussian(value) -> GaussianRational:
    return value if isinstance(value, GaussianRational) else GaussianRational(value)


def off_diagonal(rng):
    kind = rng.randrange(5)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-3, 3)
    if kind == 2:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))
    return GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2))


def presented(rng, value):
    """``value`` as a custom rule might return it: narrow, or a real
    value wrapped as a GaussianRational or an integer as a Fraction."""
    if isinstance(value, GaussianRational) and not value.imag:
        value = value.real
    choice = rng.randrange(3)
    if choice == 1 and not isinstance(value, GaussianRational):
        return GaussianRational(value)
    if choice == 2 and isinstance(value, int):
        return Fraction(value)
    return value


def table_function(p, elements, rng, diagonal):
    """A custom interval function on the window's intervals, and the
    same function read as GaussianRational for the oracles."""
    table = {}
    for i, x in enumerate(elements):
        for y in elements[i:]:
            if p.leq(x, y):
                kind = rng.choice(sorted(DIAGONALS)) if diagonal == "mixed" else diagonal
                value = DIAGONALS[kind](rng) if x == y else off_diagonal(rng)
                table[(x, y)] = presented(rng, value)
    fn = custom_function(p, lambda x, y: table.get((x, y), 0))
    return fn, lambda x, y: as_gaussian(table.get((x, y), 0))


def oracle_inverse_row(p, a, elements, x) -> dict:
    """b(x, z) for every window z >= x, by b(x, z) a(z, z) = delta(x, z)
    minus the sum of b(x, w) a(w, z) over x <= w < z, in GaussianRational."""
    row = {}
    for z in elements:
        if p.leq(x, z):
            total = GaussianRational(1 if z == x else 0)
            for w in interval(p, x, z):
                if w != z:
                    total = total - row[w] * a(w, z)
            row[z] = total / a(z, z)
    return row


def oracle_inverse_column(p, a, elements, y) -> dict:
    """b(z, y) for every window z <= y, by a(z, z) b(z, y) = delta(z, y)
    minus the sum of a(z, w) b(w, y) over z < w <= y, in GaussianRational."""
    column = {}
    for z in reversed(elements):
        if p.leq(z, y):
            total = GaussianRational(1 if z == y else 0)
            for w in interval(p, z, y):
                if w != z:
                    total = total - a(z, w) * column[w]
            column[z] = total / a(z, z)
    return column


def oracle_convolution(p, a, b, x, y) -> GaussianRational:
    """The defining sum; b is read only where a is nonzero, so it may be
    undefined elsewhere."""
    total = GaussianRational(0)
    for z in interval(p, x, y):
        a_value = a(x, z)
        if a_value:
            total = total + a_value * b(z, y)
    return total


def window_elements(family, rng):
    if family == "explicit":
        p = random_explicit_poset(rng, rng.randint(2, 9))
        return p, enumerate_window(Window(p))
    window = BUILTIN_WINDOWS[family]
    return window.poset, enumerate_window(window)


class TestAgainstGaussianOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        family=st.sampled_from(sorted(BUILTIN_WINDOWS) + ["explicit"]),
        diagonal=st.sampled_from(sorted(DIAGONALS) + ["mixed"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_inverses_and_convolutions(self, family, diagonal, seed):
        rng = random.Random(seed)
        p, elements = window_elements(family, rng)
        a, a_gaussian = table_function(p, elements, rng, diagonal)
        b, b_gaussian = table_function(p, elements, rng, rng.choice(sorted(DIAGONALS)))
        inverse = invert(a)
        product = convolve(a, b)
        inverse_product = convolve(inverse, a)
        mobius = invert(zeta_function(p))
        one = lambda x, y: GaussianRational(1)
        for x in rng.sample(elements, min(3, len(elements))):
            expected = oracle_inverse_row(p, a_gaussian, elements, x)
            expected_mobius = oracle_inverse_row(p, one, elements, x)
            for y, value in expected.items():
                for result, oracle in (
                    (inverse.evaluate(x, y), value),
                    (mobius.evaluate(x, y), expected_mobius[y]),
                    (product.evaluate(x, y), oracle_convolution(p, a_gaussian, b_gaussian, x, y)),
                    (inverse_product.evaluate(x, y), GaussianRational(1 if x == y else 0)),
                ):
                    assert type(result) is GaussianRational
                    assert result == oracle
        assert_memos_normal(a, b, inverse, product, inverse_product, mobius)

    @pytest.mark.parametrize("family", sorted(BUILTIN_WINDOWS))
    def test_shared_mobius_memo_is_integer(self, family):
        window = BUILTIN_WINDOWS[family]
        p = window.poset
        elements = enumerate_window(window)
        for y in elements:
            for x in p.ideal(y):
                assert mobius_value(p, x, y) == closed_form_mobius(p, x, y)
        memo = mobius_function(p)._memo
        assert memo and all(type(value) is int for line in memo.values() for value in line.values())


class TestNormalForm:
    def test_custom_values_are_narrowed_once(self):
        values = {(1, 1): Fraction(4, 2), (1, 2): GaussianRational(3), (2, 2): GaussianRational(Fraction(1, 2))}
        a = custom_function(CHAIN, lambda x, y: values.get((x, y), 0))
        for x, y in values:
            a.evaluate(x, y)
        assert a._memo == {1: {1: 2, 2: 3}, 2: {2: Fraction(1, 2)}}
        assert [type(v) for line in a._memo.values() for v in line.values()] == [int, int, Fraction]

    def test_zeta_and_delta_are_plain_integers(self):
        assert type(zeta_function(CHAIN)._evaluate_canonical(1, 3)) is int
        delta = delta_function(CHAIN)
        assert (delta._evaluate_canonical(2, 2), delta._evaluate_canonical(2, 3)) == (1, 0)
        assert all(type(value) is int for line in delta._memo.values() for value in line.values())

    def test_real_quotient_of_gaussians_is_narrowed(self):
        # b(1, 1) = 1/i = -i, then b(1, 2) = -(-i * 1) / i = 1 exactly.
        a = custom_function(CHAIN, lambda x, y: I if x == y else 1)
        inverse = invert(a)
        assert inverse.evaluate(1, 4) == oracle_inverse_row(
            CHAIN, lambda x, y: I if x == y else GaussianRational(1), [1, 2, 3, 4], 1
        )[4]
        assert inverse._memo[1][1] == -I
        assert type(inverse._memo[1][2]) is int and inverse._memo[1][2] == 1
        assert_memos_normal(inverse)

    def test_non_unit_integer_diagonal_divides_exactly(self):
        inverse = invert(custom_function(CHAIN, lambda x, y: 2 if x == y else 1))
        assert inverse.evaluate(1, 3) == GaussianRational(Fraction(-1, 8))
        assert inverse._memo == {1: {1: Fraction(1, 2), 2: Fraction(-1, 4), 3: Fraction(-1, 8)}}
        assert_memos_normal(inverse)

    def test_fractions_summing_to_an_integer_are_narrowed(self):
        # b(1, 2) = -1/2, then b(1, 3) = -(3/2 + (-1/2) * 1) = -1.
        halves = {(1, 2): Fraction(1, 2), (1, 3): Fraction(3, 2)}
        inverse = invert(custom_function(CHAIN, lambda x, y: halves.get((x, y), 1)))
        assert inverse.evaluate(1, 3) == -1
        assert inverse._memo[1][3] == -1 and type(inverse._memo[1][3]) is int
        assert_memos_normal(inverse)


class TestConvolutionRow:
    def test_mobius_zeta_solves_one_row(self, monkeypatch):
        mobius = mobius_function(CHAIN)
        mobius._memo.clear()
        calls = []
        solve = IntervalFunction._solve

        def counting(self, x, y, column):
            calls.append((x, y, column))
            return solve(self, x, y, column)

        monkeypatch.setattr(IntervalFunction, "_solve", counting)
        product = convolve(mobius, zeta_function(CHAIN))
        assert product.evaluate(1, 400) == 0
        assert calls == [(1, 400, False)]
        for y in (1, 2, 3, 399):
            assert product.evaluate(1, y) == delta_function(CHAIN).evaluate(1, y)
        assert calls == [(1, 400, False)]


class TestPublicBoundary:
    @pytest.mark.parametrize("family", sorted(BUILTIN_WINDOWS))
    def test_point_values_are_gaussian(self, family):
        window = BUILTIN_WINDOWS[family]
        p = window.poset
        elements = enumerate_window(window)
        x, y = elements[0], elements[-1]
        custom = custom_function(p, lambda u, v: 2 if u == v else Fraction(1, 3))
        for fn in (zeta_function(p), delta_function(p), custom, invert(custom),
                   mobius_function(p), convolve(custom, mobius_function(p))):
            assert type(fn.evaluate(x, y)) is GaussianRational
            assert type(evaluate(fn, x, x)) is GaussianRational
        assert type(mobius_value(p, x, y)) is GaussianRational
        assert type(closed_form_mobius(p, x, y)) is GaussianRational

    @pytest.mark.parametrize("family", sorted(BUILTIN_WINDOWS))
    def test_transform_values_are_gaussian(self, family):
        window = BUILTIN_WINDOWS[family]
        p = window.poset
        elements = enumerate_window(window)
        h = FiniteSupportFunction(p, {elements[0]: 3, elements[1]: Fraction(1, 2)})
        custom = custom_function(p, lambda u, v: -1 if u == v else 1)
        for a in (zeta_function(p), mobius_function(p), custom, invert(custom)):
            transform = alpha_transform(h, a)
            assert type(transform(elements[-1])) is GaussianRational
            result = materialize(transform, window)
            assert result and all(type(v) is GaussianRational for _, v in result.items())
        assert type(mobius_inversion(h)(elements[-1])) is GaussianRational

    @pytest.mark.parametrize(
        "p,y,avoid",
        [(DIV, 6, [5]), (CHAIN, 1, []), (SUBSETS, (1,), [(2,)]), (MULTISETS, ((2, 1),), [((3, 1),)])],
    )
    def test_witness_fields_are_gaussian(self, p, y, avoid):
        certs = list(witnesses(p, y, avoid, 2, budget=50))
        assert certs
        for cert in certs:
            assert type(cert.mu_yz) is GaussianRational
            conditions = check_witness_conditions(p, y, avoid, cert.z)
            assert type(conditions.mu_yz) is GaussianRational
        g = FiniteSupportFunction(p, {p.bottom(): Fraction(2, 3), y: GaussianRational(1, 1)})
        for cert in verify_uncertainty_witnesses(p, g, 1, budget=50):
            for value in (cert.mu_yz, cert.predicted_fz, cert.observed_fz):
                assert type(value) is GaussianRational

    def test_linalg_cells_are_narrow_and_results_gaussian(self, monkeypatch):
        """The pair search hands ``kernel_candidate`` its memoised narrow
        values as sparse ``{column: value}`` rows (no zero cells), and
        keeps them as the result's rows; everything that comes back out
        of the linear algebra is a ``GaussianRational``."""
        seen = []
        original = lab.kernel_candidate

        def recording(rows, ncols):
            seen.append(rows)
            return original(rows, ncols)

        monkeypatch.setattr(lab, "kernel_candidate", recording)
        beta = custom_function(DIV, lambda x, y: 1 if x == y else Fraction(x, y))
        for b, cell_types in ((zeta_function(DIV), {int}), (mobius_function(DIV), {int}),
                              (beta, {Fraction})):
            result = finite_support_pair_search(DIV, Window(DIV, 6), Window(DIV, 12), beta=b)
            rows = seen.pop()
            assert result.rows is rows
            cells = [entry for row in rows for entry in row.values()]
            assert cells and all(is_normal(entry) for entry in cells)
            assert {type(entry) for entry in cells} == cell_types
            f, g = result.candidate
            assert all(type(v) is GaussianRational for _, v in (*f.items(), *g.items()))
            kernel = nullspace(rows, len(result.unknowns))
            outputs = [*(v for row in kernel for v in row), *primitive_integer_vector(kernel[-1])]
            assert outputs and all(type(v) is GaussianRational for v in outputs)
