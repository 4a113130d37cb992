"""The inverse row solver on product-of-chains grids, run both ways.

``Poset._grid(x, y)`` lists a product-of-chains interval in mixed-radix
order, and ``IntervalFunction._solve`` walks that order, up it for a
row and down it for a column, testing each nonzero entry so far with
``_leq``; a Mobius row or column on a grid runs one difference pass per
coordinate instead. These tests compare its rows and columns with the
recursions done in ``GaussianRational`` and with the closed form, on
every built-in family and random explicit posets; hold the passes to the
memo the scan leaves; check the grids against the intervals; pin the
number of order tests a row makes; and hold convolutions, which read an
inverse right factor by column, to the defining sum and to the errors
of reading it by row.
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
    convolve,
    custom_function,
    delta_function,
    get_poset,
    invert,
    mobius_function,
    mobius_value,
    zeta_function,
)
from posetlab.incidence import IntervalFunction
from posetlab.posets import interval
from posetlab.scalars import GaussianRational, narrow
from test_scalar_tiers import (
    DIAGONALS,
    as_gaussian,
    is_normal,
    off_diagonal,
    oracle_convolution,
    oracle_inverse_column,
    oracle_inverse_row,
    presented,
)

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


def solve(fn, x, y, column):
    """Solve fn's column at y over [x, y] when ``column``, else its row at
    x, and return that line, ``{z: value}``."""
    if column:
        return fn._column(x, y)
    fn._evaluate_canonical(x, y)
    return fn._memo[x]


def assert_solved(line, oracle, elements):
    """The line holds exactly ``elements``, each value equal to the
    oracle's and held in its narrowest type."""
    assert set(line) == set(elements)
    for z in elements:
        value = line[z]
        assert value == oracle[z], z
        assert type(value) is type(narrow(oracle[z])) and is_normal(value), (z, value)


class TestRowsAndColumnsAgainstTheRecursion:
    # Deep: gates Mobius rows and columns run as integer passes on grids.
    @pytest.mark.deep
    @settings(max_examples=max(120, settings.default.max_examples), deadline=None)
    @given(
        family=st.sampled_from(["divisibility", "chain", "subsets", "multisets", "explicit"]),
        column=st.booleans(),
        partial=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_inverse_and_mobius(self, family, column, partial, seed):
        rng = random.Random(seed)
        p, x, y = random_interval(family, rng)
        elements = p._interval(x, y)
        a, a_gaussian = gaussian_function(p, rng)
        inverse, mobius = invert(a), fresh_mobius(p)
        if partial:
            # A row whose line already holds [x, y'] for some y' in [x, y],
            # or a column holding [x', y].
            middle = rng.choice(elements)
            lower, upper = (middle, y) if column else (x, middle)
            solve(inverse, lower, upper, column)
            solve(mobius, lower, upper, column)
        inverse_line = solve(inverse, x, y, column)
        mobius_line = solve(mobius, x, y, column)
        one = lambda u, v: GaussianRational(1)
        if column:
            assert_solved(inverse_line, oracle_inverse_column(p, a_gaussian, elements, y), elements)
            assert_solved(mobius_line, oracle_inverse_column(p, one, elements, y), elements)
        else:
            assert_solved(inverse_line, oracle_inverse_row(p, a_gaussian, elements, x), elements)
            assert_solved(mobius_line, oracle_inverse_row(p, one, elements, x), elements)
        if family != "explicit":
            for z in elements:
                key = (z, y) if column else (x, z)
                assert mobius_line[z] == p._closed_form_mobius(*key)

    @pytest.mark.parametrize("column", [False, True])
    @pytest.mark.parametrize("p, top", [(SUBSETS, tuple(range(1, 10))), (DIV, math.prod(PRIMES + (11, 13, 17, 19, 23)))])
    def test_large_boolean_intervals_match_the_closed_form(self, p, top, column):
        bottom = p.bottom()
        elements = p._interval(bottom, top)
        line = solve(fresh_mobius(p), bottom, top, column)
        assert set(line) == set(elements)
        for z in elements:
            key = (z, top) if column else (bottom, z)
            assert type(line[z]) is int and line[z] == p._closed_form_mobius(*key)

    def test_columns_are_kept_apart_from_rows(self):
        inverse = fresh_mobius(DIV)
        column = inverse._column(1, 12)
        assert inverse._column(2, 12) is column and inverse._columns == {12: column}
        assert column[1] == 0 and not inverse._memo


class TestPassesMemoiseAsTheScan:
    @settings(max_examples=100, deadline=None)
    @given(
        family=st.sampled_from(["divisibility", "subsets", "multisets"]),
        column=st.booleans(),
        partial=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_memo_keys_and_values(self, family, column, partial, seed):
        # The inverse of a custom function equal to 1 everywhere is the
        # Mobius function solved by the scan.
        rng = random.Random(seed)
        p, x, y = random_interval(family, rng)
        middle = rng.choice(p._interval(x, y))
        lower, upper = (middle, y) if column else (x, middle)

        def memos(operand):
            inverse = invert(operand)
            if partial:
                solve(inverse, lower, upper, column)
            solve(inverse, x, y, column)
            return inverse._memo, inverse._columns

        rows, columns = memos(zeta_function(p))
        assert (rows, columns) == memos(custom_function(p, lambda u, v: 1))
        assert all(type(value) is int for line in [*rows.values(), *columns.values()] for value in line.values())


class TestFirstZeroDiagonal:
    """``NotInvertible`` names the first zero diagonal in canonical
    order, though the grid walk, up for a row or down for a column, may
    meet another one first."""

    CASES = [
        # The row walk of [{}, {1,2,3}] meets {1,2} before {3}.
        (SUBSETS, (), (1, 2, 3), {(3,), (1, 2)}, (3,), False),
        # The column walk, from {1,2,3} down, meets {2,3} before {3}.
        (SUBSETS, (), (1, 2, 3), {(3,), (2, 3)}, (3,), True),
        # The row walk of [1, 30] meets 6 before 5, the column walk 10 before 6.
        (DIV, 1, 30, {5, 6}, 5, False),
        (DIV, 1, 30, {6, 10}, 6, True),
        (MULTISETS, (), ((2, 1), (3, 1), (5, 1)), {((5, 1),), ((2, 1), (3, 1))}, ((5, 1),), False),
        (MULTISETS, (), ((2, 1), (3, 1), (5, 1)), {((2, 1), (3, 1)), ((3, 1), (5, 1))}, ((2, 1), (3, 1)), True),
    ]

    @pytest.mark.parametrize("p, x, y, zeros, first, column", CASES, ids=lambda v: repr(v))
    def test_names_the_first_in_canonical_order(self, p, x, y, zeros, first, column):
        assert [z for z in p._interval(x, y) if z in zeros][0] == first
        walk = p._grid(x, y)[0][:: -1 if column else 1]
        assert [z for z in walk if z in zeros][0] != first
        inverse = invert(custom_function(p, lambda u, v: 0 if u == v and u in zeros else 1))
        with pytest.raises(NotInvertible) as caught:
            solve(inverse, x, y, column)
        assert caught.value.element == first
        # Whatever the walk memoised on the way is correct.
        one = lambda u, v: GaussianRational(1)
        assert set(inverse._columns if column else inverse._memo) <= {y if column else x}
        for line in inverse._memo.values():
            for upper, value in line.items():
                spanned = p._interval(x, upper)
                assert not zeros.intersection(spanned)
                assert value == oracle_inverse_row(p, one, spanned, x)[upper]
        for line in inverse._columns.values():
            for lower, value in line.items():
                spanned = p._interval(lower, y)
                assert not zeros.intersection(spanned)
                assert value == oracle_inverse_column(p, one, spanned, y)[lower]

    @pytest.mark.parametrize("p, x, y, zeros, first, column", CASES, ids=lambda v: repr(v))
    def test_a_nested_inverse_raises_the_same(self, p, x, y, zeros, first, column):
        # invert(c)(z, z) = 1 / c(z, z) raises where c's diagonal is zero.
        c = custom_function(p, lambda u, v: 0 if u == v and u in zeros else 2)
        with pytest.raises(NotInvertible) as caught:
            solve(invert(invert(c)), x, y, column)
        assert caught.value.element == first


class TestColumnLines:
    """``lab`` reads a Mobius column line whole: once solved from the
    bottom it holds exactly ideal(y), and any walk, one that raises
    partway included, leaves [x, y] whole in the line wherever x is."""

    # Deep: the column line the witness check reads whole holds exactly ideal(y).
    @pytest.mark.deep
    @settings(max_examples=max(100, settings.default.max_examples), deadline=None)
    @given(
        family=st.sampled_from(["divisibility", "chain", "subsets", "multisets", "explicit"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_column_line_is_the_ideal(self, family, seed):
        rng = random.Random(seed)
        p, x, y = random_interval(family, rng)
        ideal = p.ideal(y)
        mobius = fresh_mobius(p)
        if rng.random() < 0.5:
            mobius._column(x, y)
        line = mobius._column(p.bottom(), y)
        assert set(line) == set(ideal)
        one = lambda u, v: GaussianRational(1)
        for z in ideal:
            if family == "explicit":
                assert line[z] == oracle_inverse_row(p, one, p._interval(z, y), z)[y]
            else:
                assert line[z] == p._closed_form_mobius(z, y)
        # A custom inverse with zero diagonal entries stops partway.
        zeros = set(rng.sample(ideal, rng.randint(0, min(3, len(ideal)))))
        inverse = invert(custom_function(p, lambda u, v: 0 if u == v and u in zeros else 1))
        for start in (rng.choice(ideal), p.bottom()):
            try:
                inverse._column(start, y)
                raised = False
            except NotInvertible:
                raised = True
            assert raised == bool(zeros.intersection(p._interval(start, y)))
            line = inverse._columns[y]
            for z in line:
                assert set(p._interval(z, y)) <= set(line)

    def test_a_row_leaves_one_line(self, monkeypatch):
        monkeypatch.setitem(SUBSETS.__dict__, "_mobius", None)
        assert mobius_value(SUBSETS, (), tuple(range(1, 13))) == 1
        mobius = mobius_function(SUBSETS)
        assert list(mobius._memo) == [()] and len(mobius._memo[()]) == 4096
        assert mobius._columns == {}


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

    @pytest.mark.parametrize("p, x, y", [case for case in _grid_cases() if set(case[0]._grid(*case[1:])[1]) <= {2}], ids=repr)
    def test_boolean_submasks_index_down_sets_and_reversed_up_sets(self, p, x, y):
        elements = p._grid(x, y)[0]
        reversed_elements = elements[::-1]
        for i in range(len(elements)):
            submasks = {s for s in range(i + 1) if s & i == s}
            assert {elements[s] for s in submasks} == {w for w in elements if p._leq(w, elements[i])}
            assert {reversed_elements[s] for s in submasks} == {
                w for w in elements if p._leq(reversed_elements[i], w)
            }

    @pytest.mark.parametrize("p, x, y", _grid_cases(), ids=repr)
    def test_grid_passes_step_down_each_lower_cover(self, p, x, y):
        elements, radices = p._grid(x, y)
        passes = posets._grid_passes(radices)
        steps = [(elements[t], elements[s]) for targets, sources in passes for t, s in zip(targets, sources)]
        assert len(steps) == len(set(steps))
        lower_covers = {
            (z, w) for z in elements for w in elements if p._leq(w, z) and len(p._interval(w, z)) == 2
        }
        assert set(steps) == lower_covers
        # Mobius undoes zeta, and zeta sums each down-set.
        rng = random.Random(len(elements))
        start = [rng.randint(-9, 9) for _ in elements]
        values = start[:]
        posets._run_passes(values, passes, 1)
        assert values == [sum(v for w, v in zip(elements, start) if p._leq(w, z)) for z in elements]
        posets._run_passes(values, passes, -1)
        assert values == start

    @pytest.mark.parametrize("p, x, y", [(CHAIN, 1, 10), (random_explicit_poset(random.Random(3), 6), "v00", "v00")])
    def test_no_grid_on_a_single_chain_or_an_explicit_poset(self, p, x, y):
        assert p._grid(x, y) is None

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
        assert str(from_grid.value) == str(from_interval.value)


class TestOrderTests:
    """The order tests one row or column makes, counted through each
    family's ``_leq`` (Mobius functions are rebuilt, so they bind and
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
        return calls

    def test_boolean_row(self, leq_calls):
        # The nonzero scan made 32,640 (every Mobius value there is
        # nonzero), and submask sums 502; the passes make none.
        mobius_function(SUBSETS)._evaluate_canonical((), tuple(range(1, 9)))
        assert len(leq_calls) == 0

    def test_witness_columns(self, leq_calls):
        # The nonzero scan made 10,145, 8,128 of them in z's column, and
        # submask sums 368. Only y <= z is tested now.
        check_witness_conditions(SUBSETS, tuple(range(1, 7)), [], tuple(range(1, 8)))
        assert len(leq_calls) == 1

    @pytest.mark.parametrize(
        "p, x, y",
        [(DIV, 1, 720720), (MULTISETS, (), ((2, 4), (3, 2), (5, 1), (7, 1), (11, 1), (13, 1)))],
        ids=repr,
    )
    def test_mixed_radix_row(self, p, x, y, leq_calls):
        # 240 elements in radices 5, 3, 2, 2, 2, 2: the scan made 7,904.
        mobius_function(p)._evaluate_canonical(x, y)
        assert len(leq_calls) == 0

    def test_chain_row_scans_as_before(self, leq_calls):
        mobius_function(CHAIN)._evaluate_canonical(1, 2000)
        assert len(leq_calls) == 3997


def small_interval(family, rng):
    """A poset, x <= y in it, and [x, y] of at most 16 elements; x is
    the bottom half the time, for longer intervals."""
    p, x, y = random_interval(family, rng)
    if rng.random() < 0.5:
        x = p.bottom()
    elements = p._interval(x, y)
    while len(elements) > 16:
        y = rng.choice(elements[:-1])
        elements = p._interval(x, y)
    return p, x, y, elements


def table_rule(p, elements, rng, zero_share):
    """A pure custom rule on the intervals inside ``elements``, with a
    zero diagonal entry at about ``zero_share`` of them; it raises
    ``KeyError`` on any interval outside."""
    table = {}
    for i, u in enumerate(elements):
        for v in elements[i:]:
            if p._leq(u, v):
                if u != v:
                    table[(u, v)] = presented(rng, off_diagonal(rng))
                elif rng.random() < zero_share:
                    table[(u, v)] = 0
                else:
                    table[(u, v)] = presented(rng, DIAGONALS[rng.choice(sorted(DIAGONALS))](rng))
    return lambda u, v: table[(u, v)]


LEFT_KINDS = ["zeta", "delta", "mobius", "custom", "inverse", "convolution"]
RIGHT_KINDS = ["mobius", "inverse", "inverse of inverse", "inverse of convolution"]


def build(p, kind, c, d, shared):
    """A new interval function of ``kind`` over the rules c and d; the
    poset's shared Mobius function when ``shared``."""
    if kind == "zeta":
        return zeta_function(p)
    if kind == "delta":
        return delta_function(p)
    if kind == "mobius":
        return mobius_function(p) if shared else invert(zeta_function(p))
    if kind == "custom":
        return custom_function(p, c)
    if kind == "inverse":
        return invert(custom_function(p, c))
    if kind == "convolution":
        return convolve(custom_function(p, d), invert(custom_function(p, c)))
    if kind == "inverse of inverse":
        return invert(invert(custom_function(p, c)))
    return invert(convolve(custom_function(p, c), zeta_function(p)))


class _Undefined(Exception):
    pass


def _reader(table):
    def read(u, v):
        value = table[(u, v)]
        if value is None:
            raise _Undefined
        return value

    return read


def oracle_table(p, fn, elements):
    """fn's value on every interval inside ``elements`` by the defining
    sums and the row recursion, in GaussianRational; None where it needs
    a zero diagonal entry of an inverted function."""
    pairs = [(u, v) for i, u in enumerate(elements) for v in elements[i:] if p._leq(u, v)]
    if fn.kind in ("zeta", "delta", "custom"):
        one = fn.kind == "zeta"
        return {(u, v): as_gaussian(fn._rule(u, v) if fn.kind == "custom" else int(one or u == v)) for u, v in pairs}
    tables = [_reader(oracle_table(p, operand, elements)) for operand in fn.operands]
    result = {}
    if fn.kind == "convolution":
        for u, v in pairs:
            try:
                result[(u, v)] = oracle_convolution(p, *tables, u, v)
            except _Undefined:
                result[(u, v)] = None
        return result
    (a,) = tables
    for u, v in pairs:
        try:
            total = GaussianRational(1 if u == v else 0)
            for w in interval(p, u, v):
                if w != v:
                    total = total - _reader(result)(u, w) * a(w, v)
            result[(u, v)] = total / a(v, v)
        except (_Undefined, ZeroDivisionError):
            result[(u, v)] = None
    return result


def _no_columns(self, x, y):
    """A column fill that always meets a zero diagonal, so a convolution
    reads its right factor by row."""
    raise NotInvertible(None)


def outcome(fn, x, y):
    """fn's value on [x, y], or the type, text and element of its error."""
    try:
        return fn.evaluate(x, y)
    except NotInvertible as error:
        return type(error), str(error), error.element


class TestConvolutionsReadColumns:
    """A convolution fills an inverse right factor's column, and falls
    back to reading its rows when the fill meets a zero diagonal."""

    # Deep: gates reading an inverse right factor by column and its fall-back to rows.
    @pytest.mark.deep
    @settings(deadline=None)
    @given(
        family=st.sampled_from(["divisibility", "chain", "subsets", "multisets", "explicit"]),
        left=st.sampled_from(LEFT_KINDS),
        right=st.sampled_from(RIGHT_KINDS),
        zero_share=st.sampled_from([0, 0.05, 0.2]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_convolution_equals_the_defining_sum(self, family, left, right, zero_share, seed):
        rng = random.Random(seed)
        p, x, y, elements = small_interval(family, rng)
        c, d = table_rule(p, elements, rng, zero_share), table_rule(p, elements, rng, zero_share)
        product = convolve(build(p, left, d, c, True), build(p, right, c, d, True))
        result = outcome(product, x, y)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(IntervalFunction, "_column", _no_columns)
            by_rows = outcome(convolve(build(p, left, d, c, False), build(p, right, c, d, False)), x, y)
        assert result == by_rows
        expected = oracle_table(p, product, elements)[(x, y)]
        if expected is None:
            assert type(result) is tuple
        else:
            assert type(result) is GaussianRational and result == expected

    def test_a_zero_diagonal_the_rows_never_reach(self):
        # The column over [1, 3] meets c(1, 1) = 0, but a(1, z) is zero
        # for z < 3, so the rows read only b(3, 3).
        a = custom_function(CHAIN, lambda u, v: int(v == 3))
        c = custom_function(CHAIN, lambda u, v: int(u != 1 or v != 1))
        b = invert(c)
        assert convolve(a, b).evaluate(1, 3) == 1
        with pytest.raises(NotInvertible) as caught:
            b._column(1, 3)
        assert caught.value.element == 1

    def test_rows_are_read_in_canonical_order(self):
        # a(x, z) is nonzero at {1,2} and {3} only. The grid of
        # [{}, {1,2,3}] lists {1,2} before {3}, canonical order {3}
        # first; b's row at {3} meets the zero diagonal {1,3}, its row at
        # {1,2} meets {1,2}. A sum that may raise keeps canonical order.
        x, y = (), (1, 2, 3)
        a = custom_function(SUBSETS, lambda u, v: int(v in ((1, 2), (3,))))
        c = custom_function(SUBSETS, lambda u, v: 0 if u == v and u in ((1, 2), (1, 3)) else 1)
        with pytest.raises(NotInvertible) as caught:
            convolve(a, invert(c)).evaluate(x, y)
        assert caught.value.element == (1, 3)

    @pytest.mark.parametrize("p, x, y", [(MULTISETS, (), ((2, 2000),)), (CHAIN, 1, 2001)], ids=repr)
    def test_memo_stays_linear_in_the_interval(self, p, x, y, monkeypatch):
        # Reading the Mobius function by row left |[x, y]|**2 / 2 entries.
        monkeypatch.setitem(p.__dict__, "_mobius", None)
        mobius = mobius_function(p)
        product = convolve(zeta_function(p), mobius)
        assert product.evaluate(x, y) == 0
        lines = [*product._memo.values(), *mobius._memo.values(), *mobius._columns.values()]
        entries = sum(map(len, lines))
        assert entries <= 2 * len(p._interval(x, y))
