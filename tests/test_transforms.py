"""Finite-support functions, transforms, inversion, materialisation."""

import copy
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import posetlab.cli as cli
import posetlab.functions as functions_module
import posetlab.posets as posets
from helpers import exact_scalars, random_explicit_poset, random_support_function
from posetlab import (
    BoundTooLarge,
    FiniteSupportFunction,
    GaussianRational,
    InvalidInput,
    PosetMismatch,
    Window,
    alpha_transform,
    convolve,
    custom_function,
    delta_function,
    enumerate_window,
    function_from_document,
    function_to_document,
    get_poset,
    integer_to_multiset,
    invert,
    load_explicit_poset,
    materialize,
    mobius_function,
    mobius_inversion,
    zeta_function,
    zeta_transform,
)
from posetlab.scalars import parse_narrow

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

    @pytest.mark.parametrize(("name", "value"), [("poset", DIV), ("_entries", {})])
    def test_fields_cannot_be_assigned_or_deleted(self, name, value):
        f = FiniteSupportFunction(CHAIN, {1: 1})
        with pytest.raises(AttributeError):
            setattr(f, name, value)
        with pytest.raises(AttributeError):
            delattr(f, name)
        with pytest.raises(AttributeError):
            f.extra = 1
        assert f.poset is CHAIN and f[1] == 1 and f.support() == [1]

    def test_equal_by_poset_and_values_and_unhashable(self):
        f = FiniteSupportFunction(CHAIN, {1: 1, 2: Fraction(1, 2)})
        assert f == FiniteSupportFunction(CHAIN, {2: Fraction(1, 2), 1: 1})
        assert f != FiniteSupportFunction(DIV, {1: 1, 2: Fraction(1, 2)})
        assert f != FiniteSupportFunction(CHAIN, {1: 1})
        assert f != dict(f.items())
        with pytest.raises(TypeError, match="unhashable"):
            hash(f)

    def test_values_are_stored_narrow_and_read_wrapped(self):
        forms = [2, Fraction(2), Fraction(4, 2), GaussianRational(2)]
        functions = [FiniteSupportFunction(DIV, {6: value, 1: Fraction(1, 2)}) for value in forms]
        assert all(f == functions[0] for f in functions)
        assert {repr(f) for f in functions} == {"FiniteSupportFunction(divisibility; 1: 1/2, 6: 2)"}
        f = functions[0]
        assert [type(v) for v in f._entries.values()] == [Fraction, int]
        assert f.items() == [(1, GaussianRational(Fraction(1, 2))), (6, GaussianRational(2))]
        assert all(type(v) is GaussianRational for _, v in f.items())
        assert type(f[6]) is GaussianRational and f[6] == 2

    def test_arithmetic_keeps_values_narrow(self):
        i = GaussianRational(0, 1)
        f = FiniteSupportFunction(CHAIN, {1: Fraction(1, 2), 2: 1 + i, 3: 4})
        g = FiniteSupportFunction(CHAIN, {1: Fraction(1, 2), 2: 1 - i})
        total = f + g
        assert total._entries == {1: 1, 2: 2, 3: 4}
        assert all(type(v) is int for v in total._entries.values())
        assert (GaussianRational(Fraction(1, 2)) * f)._entries == {1: Fraction(1, 4), 2: (1 + i) / 2, 3: 2}
        assert (i * f)[2] == i - 1

    def test_non_scalar_values_and_factors_are_rejected(self):
        with pytest.raises(InvalidInput, match="cannot interpret 1.5 as an exact scalar"):
            FiniteSupportFunction(CHAIN, {1: 1.5})
        with pytest.raises(InvalidInput, match="cannot interpret True"):
            FiniteSupportFunction(CHAIN, {1: True})
        with pytest.raises(InvalidInput, match="cannot interpret 0.5"):
            FiniteSupportFunction(CHAIN, {1: 1}) * 0.5

    def test_copy_and_pickle_round_trips(self):
        f = FiniteSupportFunction(SUBSETS, {(2, 1): GaussianRational(1, -2), (): Fraction(1, 3)})
        for twin in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert type(twin) is FiniteSupportFunction
            assert twin == f and repr(twin) == repr(f)
            assert twin.support() == [(), (1, 2)]


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


class TestStoredValuesReachTheKernel:
    def test_integer_transform_builds_no_gaussian_until_read(self, monkeypatch):
        f = FiniteSupportFunction(DIV, {1: 1, 6: -2, 35: 3})
        built = []
        real_init = GaussianRational.__init__

        def counting_init(self, *args):
            built.append(args)
            real_init(self, *args)

        monkeypatch.setattr(GaussianRational, "__init__", counting_init)
        g = materialize(zeta_transform(f), Window(DIV, 200))
        back = materialize(mobius_inversion(g), Window(DIV, 200))
        assert built == [] and back == f
        read = (g[6], g[70])
        assert built == [(-1,), (4,)]
        monkeypatch.undo()
        assert read == (-1, 4)

    def test_documents_read_and_written_build_no_gaussian(self, monkeypatch):
        integer = {"poset": "divisibility", "values": {"6": "-2", "1": " 1 ", "35": "0", "12": "8/4"}}
        rational = {"poset": "multisets", "values": {"2^2*3": "-7/3", "1": "1/2", "5": "0/9"}}
        built = []
        real_init = GaussianRational.__init__

        def counting_init(self, *args):
            built.append(args)
            real_init(self, *args)

        monkeypatch.setattr(GaussianRational, "__init__", counting_init)
        read = [function_from_document(doc, get_poset(doc["poset"])) for doc in (integer, rational)]
        written = [function_to_document(f) for f in read]
        lines = [cli._function_lines(f, f.poset) for f in read]
        assert built == []
        monkeypatch.undo()
        assert [list(doc["values"].items()) for doc in written] == [
            [("1", "1"), ("6", "-2"), ("12", "2")],
            [("1", "1/2"), ("2^2*3", "-7/3")],
        ]
        assert lines == [["1 = 1", "6 = -2", "12 = 2"], ["1 = 1/2", "2^2*3 = -7/3"]]

    def test_transform_keeps_no_copy_of_values(self, monkeypatch):
        h = FiniteSupportFunction(SUBSETS, {(): 1, (1,): Fraction(-1, 2), (2, 3): GaussianRational(1, 1)})
        expected_point = alpha_transform(h, mobius_function(SUBSETS))((1, 2, 3))
        expected = materialize(mobius_inversion(h), Window(SUBSETS, 4))
        e = alpha_transform(h, mobius_function(SUBSETS))
        assert set(vars(e)) == {"poset", "h", "a"}
        # Both the point rule and the kernel read h's stored values.
        monkeypatch.setattr(FiniteSupportFunction, "items", None)
        assert e((1, 2, 3)) == expected_point
        assert materialize(e, Window(SUBSETS, 4))._entries == expected._entries


def point_values(e, window) -> dict:
    """The point oracle: e(y) at every window element, zeros pruned."""
    values = {y: e(y) for y in enumerate_window(window)}
    return {y: v for y, v in values.items() if v}


# Each window with elements just outside it, to check that support
# there is ignored.
KERNEL_SETUPS = [
    (Window(DIV, 60), [61, 64, 90, 997]),
    (Window(DIV, 720720, divisor_closure=True), [32, 27, 17, 49, 1000]),
    (Window(DIV, 360, divisor_closure=True), [7, 16, 720]),
    (Window(CHAIN, 40), [41, 50, 1000]),
    (Window(SUBSETS, 5), [(6,), (1, 6), (2, 3, 7)]),
    (Window(MULTISETS, 60), [integer_to_multiset(n) for n in (61, 64, 90, 121)]),
]
# Windows of one or two elements, and a divisor window of a prime power.
EDGE_SETUPS = [
    (Window(DIV, 1), [2, 3]),
    (Window(CHAIN, 1), [2]),
    (Window(MULTISETS, 1), [integer_to_multiset(2)]),
    (Window(SUBSETS, 0), [(1,)]),
    (Window(DIV, 1, divisor_closure=True), [2]),
    (Window(DIV, 2, divisor_closure=True), [3, 4]),
    (Window(DIV, 3**5, divisor_closure=True), [2, 6, 729]),
]
# Primes above 1000: any three of them as denominators have an lcm
# above 10**9.
LARGE_PRIMES = [p for p in range(1009, 1100) if all(p % d for d in range(2, 32))]


def draw_values(data, kind: str, size: int) -> list:
    """``size`` nonzero values drawn through ``data``: of one scalar tier
    (see ``exact_scalars``), ``"coprime"`` values whose parts all have
    distinct prime denominators, or ``"cancelling"`` Gaussian values
    each followed by its negation or its conjugate, so that a sum over
    both vanishes or is real."""
    if kind == "coprime":
        primes = data.draw(st.permutations(LARGE_PRIMES))
        numerators = data.draw(st.lists(st.integers(-9, 9), min_size=2 * size, max_size=2 * size))
        real = [Fraction(n or 1, q) for n, q in zip(numerators, primes)]
        imag = [Fraction(n, q) for n, q in zip(numerators[size:], primes[size:])]
        return [GaussianRational(re, im) for re, im in zip(real[:size], imag)]
    if kind == "cancelling":
        values = []
        while len(values) < size:
            v = data.draw(exact_scalars("gaussian"))
            values += [v, data.draw(st.sampled_from([-v, GaussianRational(v.real, -v.imag)]))]
        return values[:size]
    return data.draw(st.lists(exact_scalars(kind), min_size=size, max_size=size))


def element_texts(p):
    """Hypothesis strategy for the encodings of small elements of p,
    several for most elements: reordered members or factors, padding,
    leading zeros and explicit exponents."""
    if p is SUBSETS:
        return st.lists(st.integers(1, 4), unique=True, max_size=3).flatmap(
            lambda members: st.permutations(members).map(lambda order: "{" + ", ".join(map(str, order)) + "}")
        )
    if p is MULTISETS:
        factor = st.tuples(st.sampled_from([2, 3, 5]), st.integers(1, 2), st.booleans()).map(
            lambda f: f"{f[0]}^{f[1]}" if f[1] > 1 or f[2] else str(f[0])
        )
        factors = st.lists(factor, unique_by=lambda text: text[0], max_size=3)
        return factors.map(lambda texts: "*".join(texts) or "1")
    padded = st.sampled_from(["{}", " {} ", "0{}"])
    return st.tuples(st.integers(1, 12), padded).map(lambda drawn: drawn[1].format(drawn[0]))


SCALAR_TEXTS = st.one_of(
    st.sampled_from(["0", "0/4", "0+0i", "1", "-3", "6/4", "1/2-3/4i", "0+1i", "2-1i"]),
    st.tuples(st.integers(-5, 5), st.integers(1, 5)).map(lambda q: f"{q[0]}/{q[1]}"),
)


@st.composite
def function_documents(draw):
    """A poset and the values of a function document on it, whose keys
    may encode one element more than once and whose values are drawn
    from a small pool of texts, so that texts repeat."""
    p = draw(st.sampled_from([DIV, CHAIN, SUBSETS, MULTISETS]))
    keys = draw(st.lists(element_texts(p), unique=True, max_size=6))
    pool = st.sampled_from(draw(st.lists(SCALAR_TEXTS, min_size=1, max_size=3)))
    return p, {key: draw(pool) for key in keys}


def typed_entries(f) -> list:
    """f's stored entries, in order, with the type of each value."""
    return [(x, type(v), v) for x, v in f._entries.items()]


def assert_stored_as_constructed(f):
    """f's entries are canonical, narrow, nonzero and in canonical order:
    the public constructor stores the same entries in the same order."""
    assert typed_entries(f) == typed_entries(FiniteSupportFunction(f.poset, f._entries))


class TestCoordinatewiseKernel:
    """Whole-window zeta and Mobius transforms against the point rule."""

    # Deep: gates the kernel's integer passes on numerators over a common denominator.
    @pytest.mark.deep
    @settings(deadline=None)
    @given(
        setup=st.sampled_from(KERNEL_SETUPS + EDGE_SETUPS),
        kind=st.sampled_from(["int", "rational", "gaussian", "coprime", "cancelling"]),
        data=st.data(),
    )
    def test_kernel_equals_point_oracle(self, setup, kind, data):
        window, outside = setup
        p = window.poset
        pool = enumerate_window(window) + outside
        support = data.draw(st.lists(st.sampled_from(pool), max_size=8, unique=True))
        values = draw_values(data, kind, len(support))
        f = FiniteSupportFunction(p, zip(support, values))
        for transform in (zeta_transform, mobius_inversion):
            e = transform(f)
            result = materialize(e, window)
            assert dict(result.items()) == point_values(e, window)
            assert_stored_as_constructed(result)

    def test_gaussian_sums_are_stored_narrow_or_pruned(self):
        window = Window(DIV, 60)
        f = FiniteSupportFunction(
            DIV,
            {
                1: GaussianRational(Fraction(1, 2), 1),
                2: GaussianRational(Fraction(1, 3), -1),
                3: GaussianRational(Fraction(-1, 2), -1),
                5: GaussianRational(Fraction(1, 2), -1),
            },
        )
        g = materialize(zeta_transform(f), window)
        assert dict(g.items()) == point_values(zeta_transform(f), window)
        assert_stored_as_constructed(g)
        # 1 + 3 cancels; 1 + 2 and 1 + 5 are real, 1 + 5 an integer.
        assert 3 not in g._entries and 9 not in g._entries
        assert (g._entries[2], g._entries[4], g._entries[5]) == (Fraction(5, 6), Fraction(5, 6), 1)
        assert type(g._entries[5]) is int
        assert g._entries[6] == GaussianRational(Fraction(1, 3), -1)
        assert materialize(mobius_inversion(g), window) == f

    def test_coprime_denominators_past_a_million(self):
        window = Window(SUBSETS, 4)
        f = FiniteSupportFunction(
            SUBSETS, {(): Fraction(1, 1009), (1,): Fraction(-2, 1013), (2,): Fraction(3, 1019), (1, 2): 5}
        )
        g = materialize(zeta_transform(f), window)
        assert g[(1, 2, 3)] == Fraction(1, 1009) - Fraction(2, 1013) + Fraction(3, 1019) + 5
        assert dict(g.items()) == point_values(zeta_transform(f), window)
        assert materialize(mobius_inversion(g), window) == f

    @pytest.mark.parametrize("window,outside", KERNEL_SETUPS)
    def test_user_built_inverse_of_zeta_takes_kernel(self, window, outside):
        p = window.poset
        rng = random.Random(f"user-inverse-{window.label()}")
        g = random_support_function(rng, p, enumerate_window(window) + outside)
        a = invert(zeta_function(p))
        result = materialize(alpha_transform(g, a), window)
        assert a._memo == {}
        assert dict(result.items()) == point_values(mobius_inversion(g), window)

    def test_whole_window_mobius_leaves_shared_memo_empty(self):
        memo = mobius_function(DIV)._memo
        memo.clear()
        g = FiniteSupportFunction(DIV, {1: 1, 6: -2, 35: 3})
        materialize(mobius_inversion(g), Window(DIV, 500))
        materialize(mobius_inversion(g), Window(DIV, 720720, divisor_closure=True))
        assert memo == {}

    @pytest.mark.parametrize(
        "make_a",
        [
            lambda p: custom_function(p, lambda x, y: 1),
            lambda p: convolve(zeta_function(p), zeta_function(p)),
            lambda p: invert(custom_function(p, lambda x, y: 2)),
        ],
        ids=["custom", "convolution", "inverse-of-custom"],
    )
    @pytest.mark.parametrize("window,outside", KERNEL_SETUPS[::2])
    def test_other_interval_functions_take_point_path(self, make_a, window, outside):
        p = window.poset
        rng = random.Random(f"point-path-{window.label()}")
        h = random_support_function(rng, p, enumerate_window(window) + outside, limit=9)
        a = make_a(p)
        e = alpha_transform(h, a)
        result = materialize(e, window)
        assert a._memo  # filled by point evaluations
        assert dict(result.items()) == point_values(e, window)

    @pytest.mark.parametrize("make_a", [delta_function, lambda p: invert(delta_function(p))], ids=["delta", "inverse-of-delta"])
    @pytest.mark.parametrize("window,outside", KERNEL_SETUPS[::2] + [(w, []) for _, w in EXPLICIT_SETUPS])
    def test_delta_transforms_copy_the_support(self, make_a, window, outside):
        """Delta's transform is the identity: the support, copied onto
        the window with no pass and no point evaluation, on every poset."""
        p = window.poset
        rng = random.Random(f"delta-{window.label()}")
        h = random_support_function(rng, p, enumerate_window(window) + outside, limit=9)
        a = make_a(p)
        e = alpha_transform(h, a)
        result = materialize(e, window)
        assert a._memo == {}
        assert dict(result.items()) == point_values(e, window)
        assert_stored_as_constructed(result)

    def test_inverse_of_mobius_takes_kernel(self):
        g = FiniteSupportFunction(DIV, {1: 1, 6: Fraction(-2, 3), 35: 3})
        a = invert(mobius_function(DIV))
        result = materialize(alpha_transform(g, a), Window(DIV, 360))
        assert a._memo == {}
        assert result == materialize(zeta_transform(g), Window(DIV, 360))

    @pytest.mark.parametrize("poset,window", EXPLICIT_SETUPS)
    def test_explicit_posets_take_point_path(self, poset, window):
        assert poset.window_passes(window, enumerate_window(window)) is None
        rng = random.Random(31)
        g = random_support_function(rng, poset, enumerate_window(window))
        mobius_function(poset)._memo.clear()
        result = materialize(mobius_inversion(g), window)
        assert mobius_function(poset)._memo
        assert dict(result.items()) == point_values(mobius_inversion(g), window)

    def test_bare_callable_takes_point_path(self):
        e = zeta_transform(FiniteSupportFunction(DIV, {1: 1, 4: -1}))
        calls = []

        class PointOnly:
            poset = DIV

            def __call__(self, y):
                calls.append(y)
                return e(y)

        window = Window(DIV, 30)
        result = materialize(PointOnly(), window)
        assert calls == enumerate_window(window)
        assert result == materialize(e, window)

    @pytest.mark.parametrize("window,outside", KERNEL_SETUPS + EDGE_SETUPS)
    def test_integer_coefficients_do_no_gaussian_addition(self, window, outside, monkeypatch):
        """Integer, rational and Gaussian values all pass through the
        kernel without a ``GaussianRational`` operator."""
        p = window.poset
        rng = random.Random(f"narrow-kernel-{window.label()}")
        pool = enumerate_window(window) + outside
        support = rng.sample(pool, min(6, len(pool)))
        functions = [
            FiniteSupportFunction(p, {x: rng.randint(-9, 9) for x in support}),
            FiniteSupportFunction(p, {x: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for x in support}),
            random_support_function(rng, p, pool),
        ]
        calls = []
        for name in (
            "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__", "__neg__"
        ):
            real = getattr(GaussianRational, name)
            monkeypatch.setattr(
                GaussianRational, name,
                lambda *args, real=real, name=name: calls.append(name) or real(*args),
            )
        results = []
        for f in functions:
            g = materialize(zeta_transform(f), window)
            results.append((g, materialize(mobius_inversion(g), window)))
        assert calls == []
        monkeypatch.undo()
        for f, (g, back) in zip(functions, results):
            assert dict(g.items()) == point_values(zeta_transform(f), window)
            assert dict(back.items()) == point_values(mobius_inversion(g), window)

    @pytest.mark.parametrize("transform", [zeta_transform, mobius_inversion])
    @pytest.mark.parametrize("window,outside", KERNEL_SETUPS)
    def test_wrapper_with_poset_and_call_takes_point_path(self, window, outside, transform):
        rng = random.Random(f"wrapper-{window.label()}")
        g = random_support_function(rng, window.poset, enumerate_window(window) + outside)
        e = transform(g)
        calls = []

        class Wrapper:
            """Only ``poset`` and ``__call__``, like a counting stand-in."""

            def __init__(self, inner):
                self.poset = inner.poset
                self._inner = inner

            def __call__(self, y):
                calls.append(y)
                return self._inner(y)

        result = materialize(Wrapper(e), window)
        assert calls == enumerate_window(window)
        assert result == materialize(e, window)

    def test_element_cap_reaches_window(self, monkeypatch):
        e = mobius_inversion(FiniteSupportFunction(DIV, {1: 1}))
        monkeypatch.setattr(posets, "DEFAULT_ELEMENT_CAP", 50)
        with pytest.raises(BoundTooLarge):
            materialize(e, Window(DIV, 100))


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

    # Deep: gates reading a document at one scalar parse per distinct value text.
    @pytest.mark.deep
    @settings(deadline=None)
    @given(case=function_documents())
    @example(case=(SUBSETS, {"{2,1}": "1", "{1,2}": "2"}))
    @example(case=(SUBSETS, {"{2,1}": "0", "{1,2}": "2"}))
    @example(case=(SUBSETS, {"{1,2}": "2", "{2,1}": "0/3"}))
    @example(case=(MULTISETS, {"3*2": "1/2", "2*3": "1"}))
    @example(case=(MULTISETS, {"5": "1", "3*2": "0", "2^1*3": "1+1i", "1": "2"}))
    def test_reading_equals_the_constructor(self, case):
        """Reading a document stores what the constructor stores for its
        parsed entries, in the same order, or refuses it with the same
        message."""
        p, values = case
        doc = {"poset": p.family, "values": values}
        entries = [(p.parse_element(key), parse_narrow(text)) for key, text in values.items()]
        outcomes = []
        for build in (lambda: FiniteSupportFunction(p, entries), lambda: function_from_document(doc, p)):
            try:
                outcomes.append(typed_entries(build()))
            except InvalidInput as error:
                outcomes.append(str(error))
        assert outcomes[0] == outcomes[1]

    def test_json_values_are_read_by_their_text(self):
        """Values are read, and shared, by their text: ``true`` and
        ``1.0`` equal ``1`` as JSON values, but are refused."""
        for value, text in ((True, "True"), (1.0, "1.0")):
            doc = {"poset": "divisibility", "values": {"2": 1, "1": value}}
            with pytest.raises(InvalidInput, match=rf"^invalid scalar: '{re.escape(text)}'$"):
                function_from_document(doc, DIV)
        f = function_from_document({"poset": "divisibility", "values": {"2": "1", "1": 1}}, DIV)
        assert typed_entries(f) == [(1, int, 1), (2, int, 1)]

    def test_each_distinct_value_text_is_parsed_once(self, monkeypatch):
        pool = ["1", "-2/3", "0+1i", " 1", 1, "0", "1/2-3/4i"]
        values = {str(n): pool[n % len(pool)] for n in range(1, 41)}
        doc = {"poset": "divisibility", "values": values}
        parsed = []
        real = functions_module.parse_narrow
        monkeypatch.setattr(functions_module, "parse_narrow", lambda text: parsed.append(text) or real(text))
        f = function_from_document(doc, DIV)
        # The JSON value 1 reads as the text "1"; " 1" is a text of its own.
        assert parsed == ["-2/3", "0+1i", " 1", "1", "0", "1/2-3/4i"]
        monkeypatch.undo()
        expected = FiniteSupportFunction(DIV, {int(key): parse_narrow(str(v)) for key, v in values.items()})
        assert typed_entries(f) == typed_entries(expected)

    def test_entries_out_of_canonical_order_are_sorted(self):
        cases = [
            (DIV, {"6": "1", "1": "2", "3": "0", "4": "3"}, [1, 4, 6]),
            (SUBSETS, {"{1,2}": "1", "{3}": "1", "{}": "1", "{2}": "1"}, [(), (2,), (3,), (1, 2)]),
            (MULTISETS, {"3": "1", "2^2": "1", "1": "1", "5*2": "1"}, [(), ((3, 1),), ((2, 2),), ((2, 1), (5, 1))]),
        ]
        for p, values, support in cases:
            f = function_from_document({"poset": p.family, "values": values}, p)
            assert f.support() == support
            assert_stored_as_constructed(f)
            # Written back, the document is in canonical order and reads as it is.
            assert function_from_document(function_to_document(f), p) == f

    def test_entry_count_past_the_cap_is_refused_before_any_entry_is_read(self, monkeypatch):
        monkeypatch.setattr(posets, "DEFAULT_ELEMENT_CAP", 6)
        values = {str(n): "1" for n in range(1, 7)}
        assert function_from_document({"poset": "chain", "values": values}, CHAIN).support() == list(range(1, 7))
        # The first entry is malformed, and the count is refused before it is read.
        values = {"zz": "1", **values}
        with pytest.raises(BoundTooLarge, match="^function document of 7 entries exceeds cap 6$"):
            function_from_document({"poset": "chain", "values": values}, CHAIN)

    def test_multiset_image_past_the_cap_is_refused_in_canonical_position(self, monkeypatch):
        monkeypatch.setattr(posets, "DEFAULT_ELEMENT_CAP", 10)
        in_order = {"poset": "multisets", "values": {"1": "1", "2": "1", "2^9": "1"}}
        assert function_from_document(in_order, MULTISETS).support() == [(), ((2, 1),), ((2, 9),)]
        for last in ("2^10", "3^7"):
            doc = {"poset": "multisets", "values": {"1": "1", "2": "1", last: "1"}}
            with pytest.raises(BoundTooLarge, match="^multiset integer image of more than 10 bits$"):
                function_from_document(doc, MULTISETS)
        # Repeated elements are refused before any image is built.
        doc = {"poset": "multisets", "values": {"2^10": "1", "2": "1", "2 ": "1"}}
        with pytest.raises(InvalidInput, match="^duplicate entry for 2$"):
            function_from_document(doc, MULTISETS)
        # A zero entry is dropped before its image is built.
        doc = {"poset": "multisets", "values": {"1": "1", "2": "1", "2^10": "0"}}
        assert function_from_document(doc, MULTISETS).support() == [(), ((2, 1),)]

    def test_malformed_documents(self):
        with pytest.raises(InvalidInput):
            function_from_document({"poset": "chain"}, CHAIN)
        with pytest.raises(InvalidInput):
            function_from_document({"values": {"1": "nope"}}, CHAIN)
