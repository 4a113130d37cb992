"""The inverse row solver on product-of-chains grids.

``Poset._grid(x, y)`` lists a product-of-chains interval in mixed-radix
order, and ``IntervalFunction._inverse_row`` walks that order. On a
Boolean grid it sums over the down-set of each z by submask arithmetic
whenever that down-set is no larger than the row's nonzero entries so
far, and otherwise tests each nonzero entry with ``_leq``. These tests
compare its rows with the recursion done in ``GaussianRational`` and
with the closed form, on every built-in family, their dual views and
random explicit posets; check the grids against the intervals; and pin
the number of order tests a row makes.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posetlab.posets as posets
from helpers import random_explicit_poset
from posetlab import (
    BoundTooLarge,
    NotInvertible,
    check_witness_conditions,
    custom_function,
    get_poset,
    invert,
    mobius_function,
    zeta_function,
)
from posetlab.scalars import GaussianRational, narrow
from test_scalar_tiers import DIAGONALS, as_gaussian, is_normal, off_diagonal, oracle_inverse_row, presented

DIV = get_poset("divisibility")
CHAIN = get_poset("chain")
SUBSETS = get_poset("subsets")
MULTISETS = get_poset("multisets")
PRIMES = (2, 3, 5, 7)


def _exponents(rng, atoms, largest):
    """Two exponent vectors lo <= hi over ``atoms`` coordinates."""
    hi = [rng.randint(0, largest) for _ in range(atoms)]
    lo = [rng.randint(0, h) for h in hi]
    return lo, hi


def random_interval(family, rng):
    """A poset and canonical x <= y in it, the interval at most 64
    elements (at most 12 on an explicit poset)."""
    if family == "chain":
        x = rng.randint(1, 30)
        return CHAIN, x, x + rng.randint(0, 30)
    if family == "subsets":
        y = tuple(sorted(rng.sample(range(1, 10), rng.randint(0, 6))))
        return SUBSETS, tuple(m for m in y if rng.random() < 0.3), y
    if family == "explicit":
        p = random_explicit_poset(rng, rng.randint(2, 12))
        x = rng.choice(p.elements())
        return p, x, rng.choice([z for z in p.elements() if p.leq(x, z)])
    lo, hi = _exponents(rng, len(PRIMES), 2 if rng.random() < 0.5 else 1)
    if family == "divisibility":
        return DIV, math.prod(q**k for q, k in zip(PRIMES, lo)), math.prod(q**k for q, k in zip(PRIMES, hi))
    pairs = lambda ks: tuple((q, k) for q, k in zip(PRIMES, ks) if k)
    return MULTISETS, pairs(lo), pairs(hi)


def gaussian_function(p, rng):
    """A custom function with nonzero diagonal and Gaussian rational
    values, drawn on first read so the rule is pure; and the same
    function read as GaussianRational for the oracle."""
    table = {}

    def value(x, y):
        if (x, y) not in table:
            kind = rng.choice(sorted(DIAGONALS))
            table[(x, y)] = presented(rng, DIAGONALS[kind](rng) if x == y else off_diagonal(rng))
        return table[(x, y)]

    return custom_function(p, value), lambda x, y: as_gaussian(value(x, y))


def fresh_mobius(p):
    """The Mobius function of ``p`` with a memo of its own."""
    return invert(zeta_function(p))


def assert_row(fn, oracle, x, elements):
    """Every memo entry of fn's row at x over ``elements`` equals the
    oracle's value and is held in its narrowest type."""
    for z in elements:
        value = fn._memo[(x, z)]
        assert value == oracle[z], (x, z)
        assert type(value) is type(narrow(oracle[z])) and is_normal(value), (x, z, value)


class TestRowsAgainstTheRecursion:
    @settings(max_examples=120, deadline=None)
    @given(
        family=st.sampled_from(["divisibility", "chain", "subsets", "multisets", "explicit"]),
        dual=st.booleans(),
        partial=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_inverse_and_mobius_rows(self, family, dual, partial, seed):
        rng = random.Random(seed)
        base, x, y = random_interval(family, rng)
        p = base._dual() if dual else base
        if dual:
            x, y = y, x
        elements = p._interval(x, y)
        a, a_gaussian = gaussian_function(p, rng)
        inverse, mobius = invert(a), fresh_mobius(p)
        if partial:
            # A row whose memo already holds [x, y'] for some y' in [x, y].
            middle = rng.choice(elements)
            inverse._evaluate_canonical(x, middle)
            mobius._evaluate_canonical(x, middle)
        inverse._evaluate_canonical(x, y)
        mobius._evaluate_canonical(x, y)
        assert_row(inverse, oracle_inverse_row(p, a_gaussian, elements, x), x, elements)
        assert_row(mobius, oracle_inverse_row(p, lambda u, v: GaussianRational(1), elements, x), x, elements)
        if family != "explicit":
            for z in elements:
                lower, upper = (z, x) if dual else (x, z)
                assert mobius._memo[(x, z)] == base._closed_form_mobius(lower, upper)

    @pytest.mark.parametrize("dual", [False, True])
    @pytest.mark.parametrize("base, top", [(SUBSETS, tuple(range(1, 10))), (DIV, math.prod(PRIMES + (11, 13, 17, 19, 23)))])
    def test_large_boolean_rows_match_the_closed_form(self, base, top, dual):
        bottom = base.bottom()
        p, x, y = (base._dual(), top, bottom) if dual else (base, bottom, top)
        mobius = fresh_mobius(p)
        mobius._evaluate_canonical(x, y)
        for z in p._interval(x, y):
            lower, upper = (z, x) if dual else (x, z)
            value = mobius._memo[(x, z)]
            assert type(value) is int and value == base._closed_form_mobius(lower, upper)


class TestFirstZeroDiagonal:
    """``NotInvertible`` names the first zero diagonal in canonical
    order, though the grid walk may meet another one first."""

    CASES = [
        # The grid walk of [{}, {1,2,3}] meets {1,2} before {3}.
        (SUBSETS, (), (1, 2, 3), {(3,), (1, 2)}, (3,)),
        # Its dual walk, from {1,2,3} down, meets {3} before {1,2}.
        (SUBSETS._dual(), (1, 2, 3), (), {(3,), (1, 2)}, (1, 2)),
        # The grid walk of [1, 30] meets 6 before 5.
        (DIV, 1, 30, {5, 6}, 5),
        (DIV._dual(), 30, 1, {5, 6}, 6),
        (MULTISETS, (), ((2, 1), (3, 1), (5, 1)), {((5, 1),), ((2, 1), (3, 1))}, ((5, 1),)),
    ]

    @pytest.mark.parametrize("p, x, y, zeros, first", CASES, ids=lambda v: repr(v))
    def test_names_the_first_in_canonical_order(self, p, x, y, zeros, first):
        assert [z for z in p._interval(x, y) if z in zeros][0] == first
        a = custom_function(p, lambda u, v: 0 if u == v and u in zeros else 1)
        inverse = invert(a)
        with pytest.raises(NotInvertible) as caught:
            inverse._evaluate_canonical(x, y)
        assert caught.value.element == first
        # Whatever the walk memoised on the way is correct.
        one = lambda u, v: GaussianRational(1)
        for (row, z), value in inverse._memo.items():
            below = p._interval(row, z)
            assert not zeros.intersection(below)
            assert value == oracle_inverse_row(p, one, below, row)[z]

    @pytest.mark.parametrize("p, x, y, zeros, first", CASES, ids=lambda v: repr(v))
    def test_a_nested_inverse_raises_the_same(self, p, x, y, zeros, first):
        # invert(c)(z, z) = 1 / c(z, z) raises where c's diagonal is zero.
        c = custom_function(p, lambda u, v: 0 if u == v and u in zeros else 2)
        with pytest.raises(NotInvertible) as caught:
            invert(invert(c))._evaluate_canonical(x, y)
        assert caught.value.element == first


def _grid_cases():
    rng = random.Random(20)
    cases = [random_interval(family, rng) for family in ["divisibility", "subsets", "multisets"] * 15]
    return cases + [
        (DIV, 1, 1),
        (DIV, 7, 7 * 720720),
        (SUBSETS, (), ()),
        (SUBSETS, (3, 8), tuple(range(1, 10))),
        (MULTISETS, ((2, 1),), ((2, 5), (7, 2))),
    ]


class TestGrids:
    @pytest.mark.parametrize("p, x, y", _grid_cases(), ids=repr)
    def test_grid_is_the_interval_in_mixed_radix_order(self, p, x, y):
        elements, radices = p._grid(x, y)
        assert sorted(elements, key=p.sort_key) == p._interval(x, y)
        assert len(elements) == math.prod(radices) and all(r > 1 for r in radices)
        assert elements[0] == x and elements[-1] == y
        # One step up in coordinate c moves the index by the product of
        # the radices before c.
        stride = 1
        for radix in radices:
            for i, z in enumerate(elements):
                if i // stride % radix + 1 < radix:
                    above = elements[i + stride]
                    assert p._leq(z, above) and z != above
            stride *= radix
        dual_elements, dual_radices = p._dual()._grid(y, x)
        assert dual_elements == elements[::-1] and dual_radices == radices

    @pytest.mark.parametrize("p, x, y", [(CHAIN, 1, 10), (random_explicit_poset(random.Random(3), 6), "v00", "v00")])
    def test_no_grid_on_a_single_chain_or_an_explicit_poset(self, p, x, y):
        assert p._grid(x, y) is None and p._dual()._grid(y, x) is None

    @pytest.mark.parametrize(
        "p, x, y, size",
        [
            (SUBSETS, (), tuple(range(1, 8)), 128),
            (SUBSETS, (1,), tuple(range(1, 9)), 128),
            (DIV, 1, 2 * 3 * 5 * 7 * 11 * 13 * 17, 128),
            (DIV, 3, 3 * 720720, 240),
            (MULTISETS, (), ((2, 3), (3, 3), (5, 3), (7, 1)), 128),
        ],
        ids=repr,
    )
    def test_grid_is_capped_like_the_interval(self, p, x, y, size, monkeypatch):
        monkeypatch.setattr(posets, "DEFAULT_ELEMENT_CAP", size - 1)
        self.test_grid_refuses_what_the_interval_refuses(p, x, y)
        monkeypatch.setattr(posets, "DEFAULT_ELEMENT_CAP", size)
        assert sorted(p._grid(x, y)[0], key=p.sort_key) == p._interval(x, y)

    @pytest.mark.parametrize(
        "p, x, y",
        [
            # Intervals of two and four elements whose largest sort key,
            # an integer image, has more than the cap in bits.
            (MULTISETS, ((2, 999999999999),), ((2, 10**12),)),
            (MULTISETS, ((2, 999999999999),), ((2, 10**12), (3, 1))),
        ],
        ids=repr,
    )
    def test_grid_refuses_what_the_interval_refuses(self, p, x, y):
        with pytest.raises(BoundTooLarge) as from_interval:
            p._interval(x, y)
        with pytest.raises(BoundTooLarge) as from_grid:
            p._grid(x, y)
        with pytest.raises(BoundTooLarge) as from_dual:
            p._dual()._grid(y, x)
        assert str(from_grid.value) == str(from_interval.value) == str(from_dual.value)


class TestOrderTests:
    """The order tests one row makes, counted through each family's
    ``_leq`` (dual views and Mobius memos are rebuilt, so they bind and
    fill through the counted test)."""

    @pytest.fixture
    def leq_calls(self, monkeypatch):
        calls = []
        for p in (DIV, CHAIN, SUBSETS, MULTISETS):
            original = type(p)._leq

            def counted(self, x, y, original=original):
                calls.append(1)
                return original(self, x, y)

            monkeypatch.setattr(type(p), "_leq", counted)
            monkeypatch.setitem(p.__dict__, "_mobius", None)
            monkeypatch.setitem(p.__dict__, "_dual_view", None)
        return calls

    def test_boolean_row(self, leq_calls):
        # The nonzero scan made 32,640: every Mobius value there is nonzero.
        mobius_function(SUBSETS)._evaluate_canonical((), tuple(range(1, 9)))
        assert len(leq_calls) <= 502

    def test_witness_columns(self, leq_calls):
        # The nonzero scan made 10,145, 8,128 of them in z's column.
        check_witness_conditions(SUBSETS, tuple(range(1, 7)), [], tuple(range(1, 8)))
        assert len(leq_calls) <= 368

    def test_chain_row_scans_as_before(self, leq_calls):
        mobius_function(CHAIN)._evaluate_canonical(1, 2000)
        assert len(leq_calls) == 3997
