"""Interval functions: Mobius recursion, convolution, inversion, oracles."""

import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import classical_mu_oracle, random_explicit_poset, random_interval_function
from posetlab import (
    GaussianRational,
    InvalidInput,
    NoClosedForm,
    NotComparable,
    NotInvertible,
    PosetMismatch,
    Window,
    check_witness_conditions,
    classical_mobius,
    closed_form_mobius,
    convolve,
    custom_function,
    delta_function,
    enumerate_window,
    get_poset,
    interval,
    invert,
    load_explicit_poset,
    mobius_function,
    mobius_value,
    zeta_function,
)

DIV = get_poset("divisibility")
CHAIN = get_poset("chain")
SUBSETS = get_poset("subsets")
MULTISETS = get_poset("multisets")

WINDOWS = [
    (DIV, Window(DIV, 40)),
    (CHAIN, Window(CHAIN, 40)),
    (SUBSETS, Window(SUBSETS, 4)),
    (MULTISETS, Window(MULTISETS, 40)),
]
EXPLICIT_WINDOWS = [
    (p, Window(p))
    for p in (random_explicit_poset(random.Random(seed), 10) for seed in (3, 4, 5))
]


def random_intervals(rng, poset, window, count):
    elements = enumerate_window(window)
    pairs = []
    while len(pairs) < count:
        x = rng.choice(elements)
        y = rng.choice(elements)
        if poset.leq(x, y):
            pairs.append((x, y))
    return pairs


class TestEvaluate:
    def test_zeta_is_constant_one(self):
        assert zeta_function(DIV).evaluate(2, 12) == 1

    def test_delta_examples(self):
        assert delta_function(DIV).evaluate(2, 12) == 0
        assert delta_function(DIV).evaluate(5, 5) == 1

    def test_not_comparable(self):
        with pytest.raises(NotComparable):
            zeta_function(DIV).evaluate(5, 12)

    def test_custom_rule(self):
        a = custom_function(CHAIN, lambda x, y: y - x, name="gap")
        assert a.evaluate(3, 10) == 7
        assert a.name == "gap"

    def test_zeta_is_not_memoised(self):
        zeta = zeta_function(DIV)
        assert invert(zeta).evaluate(1, 30) == -1
        assert zeta._memo == {}
        # Nor is delta, which a delta search reads once per matrix cell.
        delta = delta_function(DIV)
        assert invert(delta).evaluate(1, 30) == 0
        assert (delta.evaluate(5, 5), delta.evaluate(1, 5)) == (1, 0)
        assert delta._memo == {}

    def test_memoised_evaluation_is_stable(self):
        a = custom_function(CHAIN, lambda x, y: y - x)
        assert a.evaluate(1, 5) == a.evaluate(1, 5)


class TestConstruction:
    def test_operands_and_fixed_names(self):
        zeta, delta = zeta_function(DIV), delta_function(DIV)
        g = custom_function(DIV, lambda x, y: 2, "g")
        product = convolve(zeta, g)
        inverse = invert(product)
        assert inverse.name == "inverse((zeta*g))"
        assert (product.operands, inverse.operands) == ((zeta, g), (product,))
        assert (zeta.operands, g.operands, delta.operands) == ((), (), ())
        unnamed = custom_function(DIV, lambda x, y: 1)
        assert [f.name for f in (zeta, delta, mobius_function(DIV), unnamed)] == [
            "zeta", "delta", "mobius", "custom"
        ]
        assert mobius_function(DIV).operands[0].kind == "zeta"
        assert repr(inverse) == "IntervalFunction(inverse((zeta*g)) on divisibility)"
        assert "name" not in vars(type(inverse))
        for attribute in ("left", "right", "inner", "_name"):
            assert not hasattr(inverse, attribute) and not hasattr(product, attribute)
        identity = convolve(inverse, product)
        assert [identity.evaluate(x, y) for x, y in ((1, 6), (2, 12), (3, 3))] == [0, 0, 1]


class TestMobiusValue:
    @pytest.mark.parametrize(
        "poset,x",
        [(DIV, 7), (CHAIN, 7), (SUBSETS, (1, 2)), (MULTISETS, ((2, 1),))],
    )
    def test_diagonal_is_one(self, poset, x):
        assert mobius_value(poset, x, x) == 1

    def test_divisibility_example(self):
        assert mobius_value(DIV, 2, 12) == 1

    def test_chain_vanishes_beyond_successor(self):
        assert mobius_value(CHAIN, 3, 5) == 0
        assert mobius_value(CHAIN, 4, 5) == -1

    def test_defining_recursion_directly(self):
        # mu(x, y) = -sum of mu(x, z) over x <= z < y, summed literally.
        for poset, window in WINDOWS:
            for y in enumerate_window(window)[:20]:
                for x in poset.ideal(y):
                    total = sum(
                        (mobius_value(poset, x, z) for z in interval(poset, x, y) if z != y),
                        GaussianRational(0),
                    )
                    expected = -total if x != y else GaussianRational(1)
                    assert mobius_value(poset, x, y) == expected

    @pytest.mark.parametrize("poset,window", WINDOWS)
    def test_integer_valued(self, poset, window):
        rng = random.Random(3)
        for x, y in random_intervals(rng, poset, window, 50):
            assert mobius_value(poset, x, y).is_integer()


class TestConvolution:
    def test_mobius_zeta_off_diagonal(self):
        mz = convolve(mobius_function(DIV), zeta_function(DIV))
        assert mz.evaluate(1, 12) == 0

    def test_delta_is_identity(self):
        rng = random.Random(11)
        a = random_interval_function(rng, CHAIN, enumerate_window(Window(CHAIN, 12)))
        da = convolve(delta_function(CHAIN), a)
        ad = convolve(a, delta_function(CHAIN))
        for x, y in random_intervals(rng, CHAIN, Window(CHAIN, 12), 25):
            assert da.evaluate(x, y) == a.evaluate(x, y)
            assert ad.evaluate(x, y) == a.evaluate(x, y)

    def test_zeta_squared_counts_interval(self):
        zz = convolve(zeta_function(CHAIN), zeta_function(CHAIN))
        assert zz.evaluate(1, 3) == 3

    def test_poset_mismatch(self):
        with pytest.raises(PosetMismatch):
            convolve(zeta_function(CHAIN), zeta_function(DIV))

    @pytest.mark.parametrize("poset,window", WINDOWS)
    def test_mobius_zeta_delta_identity(self, poset, window):
        # Both convolution orders equal delta, checked by literal sums.
        elements = enumerate_window(window)[:16]
        for i, x in enumerate(elements):
            for y in elements[i:]:
                if not poset.leq(x, y):
                    continue
                inner = interval(poset, x, y)
                left = sum(
                    (mobius_value(poset, x, z) for z in inner), GaussianRational(0)
                )
                right = sum(
                    (mobius_value(poset, z, y) for z in inner), GaussianRational(0)
                )
                expected = GaussianRational(1 if x == y else 0)
                assert left == expected
                assert right == expected

    def test_associativity_on_random_intervals(self):
        rng = random.Random(23)
        for poset, window in WINDOWS:
            elements = enumerate_window(window)[:14]
            a = random_interval_function(rng, poset, elements, name="a")
            b = random_interval_function(rng, poset, elements, name="b")
            c = random_interval_function(rng, poset, elements, name="c")
            left = convolve(convolve(a, b), c)
            right = convolve(a, convolve(b, c))
            for _ in range(25):
                x = rng.choice(elements)
                y = rng.choice(elements)
                if poset.leq(x, y):
                    assert left.evaluate(x, y) == right.evaluate(x, y)


class TestInvert:
    def test_zeta_inverse_is_mobius(self):
        assert invert(zeta_function(DIV)).evaluate(2, 12) == mobius_value(DIV, 2, 12) == 1
        rng = random.Random(5)
        for poset, window in WINDOWS:
            inv = invert(zeta_function(poset))
            for x, y in random_intervals(rng, poset, window, 40):
                assert inv.evaluate(x, y) == mobius_value(poset, x, y)

    @pytest.mark.parametrize("poset,window", WINDOWS + EXPLICIT_WINDOWS)
    def test_mobius_matches_general_inverse(self, poset, window):
        # The custom constant's values pass through the rule and its
        # narrowing; zeta's are the literal 1 of the solver.
        general = invert(custom_function(poset, lambda x, y: 1))
        mobius = mobius_function(poset)
        elements = enumerate_window(window)
        for i, x in enumerate(elements):
            for y in elements[i:]:
                if poset.leq(x, y):
                    assert mobius.evaluate(x, y) == general.evaluate(x, y)

    def test_delta_inverse_is_delta(self):
        inv = invert(delta_function(CHAIN))
        assert inv.evaluate(4, 4) == 1
        assert inv.evaluate(2, 9) == 0

    def test_zero_diagonal_raises_lazily(self):
        a = custom_function(CHAIN, lambda x, y: 0 if x == y == 3 else 1)
        inv = invert(a)
        assert inv.evaluate(1, 2) == -1
        with pytest.raises(NotInvertible) as err:
            inv.evaluate(1, 5)
        assert err.value.element == 3

    def test_double_inverse_round_trip(self):
        rng = random.Random(17)
        for poset, window in WINDOWS:
            elements = enumerate_window(window)[:12]
            a = random_interval_function(rng, poset, elements)
            double = invert(invert(a))
            for _ in range(20):
                x = rng.choice(elements)
                y = rng.choice(elements)
                if poset.leq(x, y):
                    assert double.evaluate(x, y) == a.evaluate(x, y)

    def test_inverse_composes_to_delta(self):
        rng = random.Random(29)
        elements = enumerate_window(Window(CHAIN, 15))
        a = random_interval_function(rng, CHAIN, elements)
        b = invert(a)
        ab = convolve(a, b)
        ba = convolve(b, a)
        for x, y in random_intervals(rng, CHAIN, Window(CHAIN, 15), 30):
            expected = GaussianRational(1 if x == y else 0)
            assert ab.evaluate(x, y) == expected
            assert ba.evaluate(x, y) == expected


class TestClassicalMobius:
    @pytest.mark.parametrize(
        "n,expected", [(1, 1), (2, -1), (4, 0), (6, 1), (30, -1), (12, 0), (97, -1)]
    )
    def test_examples(self, n, expected):
        assert classical_mobius(n) == expected

    def test_against_oracle(self):
        for n in range(1, 400):
            assert classical_mobius(n) == classical_mu_oracle(n)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInput):
            classical_mobius(0)
        with pytest.raises(InvalidInput):
            classical_mobius(-5)


class TestClosedForms:
    def test_examples(self):
        assert closed_form_mobius(DIV, 1, 30) == -1
        assert closed_form_mobius(SUBSETS, (), (1, 2)) == 1
        assert closed_form_mobius(CHAIN, 4, 5) == -1
        assert closed_form_mobius(CHAIN, 4, 4) == 1
        assert closed_form_mobius(CHAIN, 2, 9) == 0

    def test_explicit_has_none(self):
        p = load_explicit_poset({"elements": ["a", "b"], "covers": [["a", "b"]]})
        with pytest.raises(NoClosedForm):
            closed_form_mobius(p, "a", "b")

    def test_agreement_divisibility(self):
        for y in range(1, 201):
            for x in DIV.ideal(y):
                assert mobius_value(DIV, x, y) == closed_form_mobius(DIV, x, y)

    def test_agreement_chain(self):
        for y in range(1, 61):
            for x in range(1, y + 1):
                assert mobius_value(CHAIN, x, y) == closed_form_mobius(CHAIN, x, y)

    def test_agreement_subsets(self):
        rng = random.Random(31)
        ground = list(range(1, 11))
        for _ in range(500):
            t = tuple(sorted(rng.sample(ground, rng.randint(0, 10))))
            s = tuple(sorted(rng.sample(t, rng.randint(0, len(t)))))
            assert mobius_value(SUBSETS, s, t) == closed_form_mobius(SUBSETS, s, t)

    def test_agreement_multisets(self):
        from posetlab import integer_to_multiset

        for n in range(1, 61):
            for d in DIV.ideal(n):
                x, y = integer_to_multiset(d), integer_to_multiset(n)
                assert mobius_value(MULTISETS, x, y) == closed_form_mobius(MULTISETS, x, y)
                assert closed_form_mobius(MULTISETS, x, y) == classical_mobius(n // d)


class TestExplicitPosetAlgebra:
    def test_identity_on_random_explicit_posets(self):
        rng = random.Random(41)
        for _ in range(10):
            p = random_explicit_poset(rng, rng.randint(2, 10))
            elements = enumerate_window(Window(p))
            for x in elements:
                for y in elements:
                    if not p.leq(x, y):
                        continue
                    total = sum(
                        (mobius_value(p, x, z) for z in interval(p, x, y)),
                        GaussianRational(0),
                    )
                    assert total == (1 if x == y else 0)


class TestColumns:
    """An inverse's columns solve a * b = delta a column at a time
    (Rota): its value on [x, z] is the row recursion's, checked exactly."""

    @staticmethod
    def assert_columns_are_rows(p, tops):
        columns = invert(zeta_function(p))
        shared = mobius_function(p)
        for z in tops:
            rows = invert(zeta_function(p))
            for x in p.ideal(z):
                value = rows.evaluate(x, z)
                assert columns._column(x, z)[x] == value == mobius_value(p, x, z)
                assert shared._column(x, z)[x] == value

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), window=st.sampled_from([w for _, w in WINDOWS]))
    def test_builtin_families(self, data, window):
        elements = enumerate_window(window)
        tops = data.draw(st.lists(st.sampled_from(elements), min_size=1, max_size=3))
        self.assert_columns_are_rows(window.poset, tops)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), size=st.integers(1, 12))
    def test_random_explicit_posets(self, seed, size):
        p = random_explicit_poset(random.Random(seed), size)
        self.assert_columns_are_rows(p, enumerate_window(Window(p)))

    def test_one_walk_fills_a_column(self):
        inverse = invert(zeta_function(DIV))
        assert inverse._column(1, 60)[1] == 0
        assert inverse._columns == {60: {x: mobius_value(DIV, x, 60).real for x in DIV.ideal(60)}}

    def test_mobius_value_stays_on_rows(self):
        mobius = mobius_function(SUBSETS)
        mobius._memo.clear()
        mobius._columns.clear()
        assert mobius_value(SUBSETS, (), (1, 2)) == 1
        assert mobius._memo.keys() == {()} and set(mobius._memo[()]) == set(SUBSETS.ideal((1, 2)))
        assert mobius._columns == {}


class TestSharedMobiusLifetime:
    """The shared Mobius function is kept on its poset, with its rows and
    columns, so a poset the caller drops is collected with its memos."""

    @staticmethod
    def diamond(bottom):
        # Equal posets may share state, so each test names its own bottom.
        return load_explicit_poset(
            {"elements": [bottom, "a", "b", "1"],
             "covers": [[bottom, "a"], [bottom, "b"], ["a", "1"], ["b", "1"]]}
        )

    def test_shared_per_poset(self):
        p = self.diamond("shared")
        assert mobius_function(p) is mobius_function(p)
        assert mobius_function(p)._column("a", "1") is mobius_function(p)._columns["1"]

    @pytest.mark.parametrize("use", ["mobius_value", "column", "witness_check"])
    def test_explicit_poset_is_collected(self, use):
        p = self.diamond(use)
        if use == "mobius_value":
            assert mobius_value(p, use, "1") == 1
        elif use == "column":
            assert mobius_function(p)._column(use, "1")[use] == 1
        else:
            conditions = check_witness_conditions(p, "a", [], "1")
            assert conditions.mu_yz == -1
        alive = weakref.ref(p)
        del p
        gc.collect()
        assert alive() is None
