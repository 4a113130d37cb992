"""Finite-support functions, transforms, inversion, materialisation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_explicit_poset, random_support_function
from posetlab import (
    FiniteSupportFunction,
    GaussianRational,
    InvalidInput,
    PosetMismatch,
    Window,
    alpha_transform,
    custom_function,
    delta_function,
    enumerate_window,
    function_from_document,
    function_to_document,
    get_poset,
    load_explicit_poset,
    materialize,
    mobius_function,
    mobius_inversion,
    zeta_function,
    zeta_transform,
)

DIV = get_poset("divisibility")
CHAIN = get_poset("chain")
SUBSETS = get_poset("subsets")
MULTISETS = get_poset("multisets")

ROUNDTRIP_SETUPS = [
    (DIV, Window(DIV, 40)),
    (CHAIN, Window(CHAIN, 30)),
    (SUBSETS, Window(SUBSETS, 5)),
    (MULTISETS, Window(MULTISETS, 40)),
]
EXPLICIT_SETUPS = [
    (p, Window(p))
    for p in (random_explicit_poset(random.Random(seed), 10) for seed in (3, 4, 5))
]


class TestFiniteSupportFunction:
    def test_prunes_zeros(self):
        f = FiniteSupportFunction(CHAIN, {1: 1, 2: 0, 3: 2})
        assert f.support() == [1, 3]
        assert f[2] == 0

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidInput):
            FiniteSupportFunction(SUBSETS, [((1, 2), 1), ((2, 1), 2)])

    def test_entries_in_canonical_order(self):
        f = FiniteSupportFunction(SUBSETS, {(2, 1): 1, (1,): 2, (): 3})
        assert f.support() == [(), (1,), (1, 2)]

    def test_arithmetic_prunes(self):
        f = FiniteSupportFunction(CHAIN, {1: 1, 2: 3})
        g = FiniteSupportFunction(CHAIN, {2: -3, 5: 1})
        assert (f + g).support() == [1, 5]
        assert (0 * f).support() == []
        assert (f - f).support() == []

    def test_add_requires_same_poset(self):
        with pytest.raises(PosetMismatch):
            FiniteSupportFunction(CHAIN, {1: 1}) + FiniteSupportFunction(DIV, {1: 1})


class TestZetaTransform:
    def test_point_mass_accumulates_to_one(self):
        g = zeta_transform(FiniteSupportFunction(CHAIN, {1: 1}))
        assert all(g(n) == 1 for n in range(1, 11))

    def test_chain_finite_pair(self):
        # The cumulative sums of (1, -1, 0, ...) vanish from 2 onward.
        g = zeta_transform(FiniteSupportFunction(CHAIN, {1: 1, 2: -1}))
        assert g(1) == 1
        assert all(g(n) == 0 for n in range(2, 21))

    def test_divisor_sum(self):
        f = FiniteSupportFunction(DIV, {1: 1, 2: 2, 3: 3, 6: 6})
        assert zeta_transform(f)(6) == 12

    @pytest.mark.parametrize("poset,window", ROUNDTRIP_SETUPS)
    def test_bottom_point_mass_is_all_ones(self, poset, window):
        g = zeta_transform(FiniteSupportFunction(poset, {poset.bottom(): 1}))
        for y in enumerate_window(window)[:12]:
            assert g(y) == 1


class TestMobiusInversion:
    def test_inverts_point_mass_to_classical_mobius(self):
        f = mobius_inversion(FiniteSupportFunction(DIV, {1: 1}))
        assert f(6) == 1
        from posetlab import classical_mobius

        for n in range(1, 31):
            assert f(n) == classical_mobius(n)

    def test_divisor_weighted_example(self):
        g = FiniteSupportFunction(DIV, {1: 1, 2: 2, 3: 3, 6: 6})
        assert mobius_inversion(g)(6) == 2

    @pytest.mark.parametrize("poset,window", ROUNDTRIP_SETUPS)
    def test_round_trip_random_functions(self, poset, window):
        rng = random.Random(f"roundtrip-{poset.family}")
        pool = enumerate_window(window)
        for _ in range(25):
            f = random_support_function(rng, poset, pool)
            g = materialize(zeta_transform(f), window)
            back = materialize(mobius_inversion(g), window)
            assert back == f


class TestAlphaTransform:
    def test_delta_is_identity(self):
        h = FiniteSupportFunction(DIV, {2: 3, 6: -1})
        t = alpha_transform(h, delta_function(DIV))
        for y in enumerate_window(Window(DIV, 12)):
            assert t(y) == h[y]

    def test_zeta_specialisation(self):
        rng = random.Random(13)
        h = random_support_function(rng, CHAIN, range(1, 20))
        via_alpha = alpha_transform(h, zeta_function(CHAIN))
        via_named = zeta_transform(h)
        for _ in range(40):
            y = rng.randint(1, 40)
            assert via_alpha(y) == via_named(y)

    @pytest.mark.parametrize("poset,window", ROUNDTRIP_SETUPS + EXPLICIT_SETUPS)
    def test_zeta_transform_matches_general_transform(self, poset, window):
        # The custom constant returns fresh scalars, so it takes the
        # multiply path that zeta's ONE values skip.
        rng = random.Random(43)
        elements = enumerate_window(window)
        f = random_support_function(rng, poset, elements)
        ones = custom_function(poset, lambda x, y: 1)
        assert materialize(zeta_transform(f), window) == materialize(
            alpha_transform(f, ones), window
        )

    def test_mobius_after_zeta_restores(self):
        w = Window(SUBSETS, 4)
        h = FiniteSupportFunction(SUBSETS, {(): 2, (1, 3): -5})
        g = materialize(alpha_transform(h, zeta_function(SUBSETS)), w)
        restored = alpha_transform(g, mobius_function(SUBSETS))
        for y in enumerate_window(w):
            assert restored(y) == h[y]

    def test_poset_mismatch(self):
        with pytest.raises(PosetMismatch):
            alpha_transform(FiniteSupportFunction(CHAIN, {1: 1}), zeta_function(DIV))

    @settings(max_examples=25, deadline=None)
    @given(
        c1=st.integers(-9, 9),
        c2=st.integers(-9, 9),
        seed=st.integers(0, 10_000),
    )
    def test_linearity(self, c1, c2, seed):
        rng = random.Random(seed)
        f1 = random_support_function(rng, DIV, range(1, 30), max_support=4, limit=9)
        f2 = random_support_function(rng, DIV, range(1, 30), max_support=4, limit=9)
        a = mobius_function(DIV)
        combined = alpha_transform(c1 * f1 + c2 * f2, a)
        t1 = alpha_transform(f1, a)
        t2 = alpha_transform(f2, a)
        for _ in range(5):
            y = rng.randint(1, 60)
            assert combined(y) == c1 * t1(y) + c2 * t2(y)


class TestMaterialize:
    def test_zero_function_has_empty_support(self):
        empty = FiniteSupportFunction(CHAIN, {})
        result = materialize(zeta_transform(empty), Window(CHAIN, 10))
        assert len(result) == 0

    def test_chain_ones(self):
        result = materialize(
            zeta_transform(FiniteSupportFunction(CHAIN, {1: 1})), Window(CHAIN, 5)
        )
        assert dict(result.items()) == {n: GaussianRational(1) for n in range(1, 6)}

    def test_divisibility_mobius_row(self):
        result = materialize(
            mobius_inversion(FiniteSupportFunction(DIV, {1: 1})), Window(DIV, 10)
        )
        assert {k: v.as_integer() for k, v in result.items()} == {
            1: 1, 2: -1, 3: -1, 5: -1, 6: 1, 7: -1, 10: 1,
        }

    def test_poset_mismatch(self):
        with pytest.raises(PosetMismatch):
            materialize(zeta_transform(FiniteSupportFunction(CHAIN, {1: 1})), Window(DIV, 5))

    def test_support_soundness(self):
        rng = random.Random(77)
        f = random_support_function(rng, DIV, range(1, 30))
        w = Window(DIV, 30)
        g = zeta_transform(f)
        stored = materialize(g, w)
        for value in dict(stored.items()).values():
            assert value
        for y in enumerate_window(w):
            assert g(y) == stored[y]


class TestFunctionDocuments:
    def test_round_trip_builtin(self):
        f = FiniteSupportFunction(
            DIV, {1: GaussianRational(Fraction(1, 2), Fraction(-3, 4)), 6: 2}
        )
        doc = function_to_document(f)
        assert doc == {"poset": "divisibility", "values": {"1": "1/2-3/4i", "6": "2"}}
        assert function_from_document(doc, DIV) == f

    def test_round_trip_explicit(self):
        p = load_explicit_poset(
            {"elements": ["a", "b"], "covers": [["a", "b"]]}
        )
        f = FiniteSupportFunction(p, {"b": -1})
        doc = function_to_document(f, "my-poset.json")
        assert doc["poset"] == "my-poset.json"
        assert function_from_document(doc, p) == f

    def test_zero_values_are_pruned_on_load(self):
        doc = {"poset": "chain", "values": {"1": "1", "2": "0"}}
        assert function_from_document(doc, CHAIN).support() == [1]

    def test_malformed_documents(self):
        with pytest.raises(InvalidInput):
            function_from_document({"poset": "chain"}, CHAIN)
        with pytest.raises(InvalidInput):
            function_from_document({"values": {"1": "nope"}}, CHAIN)
