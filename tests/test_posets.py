"""Poset families, windows, explicit posets, and the multiset map."""

import itertools
import math
import random
import re
import sys
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import posetlab.numtheory as numtheory
import posetlab.posets as posets
from helpers import exact_scalars, random_explicit_poset
from posetlab import (
    BoundTooLarge,
    CyclicCovers,
    DuplicateElement,
    ExplicitPoset,
    FiniteSupportFunction,
    InvalidElement,
    InvalidInput,
    NotComparable,
    NoUniqueBottom,
    UnknownElementInCover,
    Window,
    bottom,
    enumerate_window,
    get_poset,
    ideal,
    integer_to_multiset,
    interval,
    leq,
    load_explicit_poset,
    materialize,
    mobius_inversion,
    multiset_to_integer,
    zeta_function,
    zeta_transform,
)
from posetlab.incidence import invert
from posetlab.posets import DEFAULT_ELEMENT_CAP

# The seed package is reached through the path alone, as in
# test_seed_parity.py.
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from seedref import posets as seed_posets  # noqa: E402
from seedref.errors import InvalidElement as SeedInvalidElement  # noqa: E402

DIV = get_poset("divisibility")
CHAIN = get_poset("chain")
SUBSETS = get_poset("subsets")
MULTISETS = get_poset("multisets")


class TestLeq:
    def test_divisibility(self):
        assert leq(DIV, 3, 12)
        assert not leq(DIV, 5, 12)

    def test_subsets(self):
        assert not leq(SUBSETS, (1, 3), (1, 2))
        assert leq(SUBSETS, (1,), (1, 2))

    def test_multisets_pointwise(self):
        assert leq(MULTISETS, {2: 1, 3: 1}, {2: 2, 3: 1})
        assert not leq(MULTISETS, {2: 2}, {2: 1, 3: 5})

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.integers(1, 5000),
        b=st.one_of(st.integers(1, 5000), st.integers(1, 5000).map(lambda c: -c)),
    )
    def test_multisets_agree_with_divisibility_of_images(self, a, b):
        # A negative b stands for the multiple a * |b|, so that x <= y is
        # drawn as often as not.
        b = a * -b if b < 0 else b
        x, y = integer_to_multiset(a), integer_to_multiset(b)
        assert MULTISETS._leq(x, y) == leq(MULTISETS, x, y) == (b % a == 0)
        assert MULTISETS._leq(y, x) == (a % b == 0)

    def test_rejects_foreign_encodings(self):
        with pytest.raises(InvalidElement):
            leq(DIV, "a", 3)
        with pytest.raises(InvalidElement):
            leq(DIV, 0, 3)
        with pytest.raises(InvalidElement):
            leq(SUBSETS, 3, (1,))
        with pytest.raises(InvalidElement):
            leq(MULTISETS, {4: 1}, {2: 1})


@st.composite
def grid_intervals(draw):
    """(p, x, y) with x <= y in divisibility, multisets or subsets: y is
    drawn, and x is its meet with a second draw."""
    p = draw(st.sampled_from([DIV, MULTISETS, SUBSETS]))
    if p is SUBSETS:
        top, other = draw(st.sets(st.integers(1, 12))), draw(st.sets(st.integers(1, 12)))
        return p, tuple(sorted(top & other)), tuple(sorted(top))
    n, other = draw(st.integers(1, 5040)), draw(st.integers(1, 5040))
    x, y = math.gcd(n, other), n
    if p is MULTISETS:
        x, y = integer_to_multiset(x), integer_to_multiset(y)
    return p, x, y


class TestInterval:
    def test_chain(self):
        assert interval(CHAIN, 2, 4) == [2, 3, 4]

    def test_divisibility(self):
        assert interval(DIV, 2, 12) == [2, 4, 6, 12]

    def test_subsets_canonical_order(self):
        assert interval(SUBSETS, (1,), (1, 2, 3)) == [
            (1,),
            (1, 2),
            (1, 3),
            (1, 2, 3),
        ]

    def test_multisets(self):
        got = interval(MULTISETS, (), ((2, 1), (3, 1)))
        assert got == [(), ((2, 1),), ((3, 1),), ((2, 1), (3, 1))]

    def test_not_comparable(self):
        with pytest.raises(NotComparable):
            interval(CHAIN, 5, 3)
        with pytest.raises(NotComparable):
            interval(DIV, 5, 12)

    # Deep: gates the interval of every grid family, its grid sorted.
    @pytest.mark.deep
    @settings(max_examples=max(300, settings.default.max_examples), deadline=None)
    @given(grid_intervals())
    # Subsets bases whose members interleave with the added ones.
    @example((SUBSETS, (2, 5), (1, 2, 3, 5, 7)))
    @example((SUBSETS, (1, 4, 9), (1, 3, 4, 6, 9, 12)))
    @example((SUBSETS, (2, 4, 6, 8, 10, 12), tuple(range(1, 13))))
    def test_interval_matches_sorted_filter(self, case):
        """On every grid family, [x, y] is the elements of a window
        holding y that lie between x and y by the order test, sorted by
        ``sort_key``."""
        p, x, y = case
        bound = max(y, default=0) if p is SUBSETS else p.sort_key(y)
        window = enumerate_window(Window(p, bound))
        expected = sorted((z for z in window if p._leq(z, y) and p._leq(x, z)), key=p.sort_key)
        assert interval(p, x, y) == expected


class TestIdealAndBottom:
    def test_examples(self):
        assert ideal(CHAIN, 3) == [1, 2, 3]
        assert ideal(DIV, 12) == [1, 2, 3, 4, 6, 12]
        assert ideal(SUBSETS, (1, 2)) == [(), (1,), (2,), (1, 2)]

    def test_bottoms(self):
        assert bottom(DIV) == 1
        assert bottom(CHAIN) == 1
        assert bottom(SUBSETS) == ()
        assert bottom(MULTISETS) == ()
        explicit = load_explicit_poset(
            {"elements": ["a", "b", "c"], "covers": [["a", "b"], ["b", "c"]]}
        )
        assert bottom(explicit) == "a"

    @pytest.mark.parametrize(
        "poset,window",
        [
            (DIV, Window(DIV, 40)),
            (CHAIN, Window(CHAIN, 40)),
            (SUBSETS, Window(SUBSETS, 4)),
            (MULTISETS, Window(MULTISETS, 40)),
        ],
    )
    def test_ideal_is_interval_from_bottom(self, poset, window):
        for x in enumerate_window(window):
            assert ideal(poset, x) == interval(poset, bottom(poset), x)


class TestWindows:
    def test_examples(self):
        assert enumerate_window(Window(CHAIN, 5)) == [1, 2, 3, 4, 5]
        assert enumerate_window(Window(SUBSETS, 2)) == [(), (1,), (2,), (1, 2)]
        assert enumerate_window(Window(DIV, 6)) == [1, 2, 3, 4, 5, 6]

    def test_divisor_closure_window(self):
        w = Window(DIV, 12, divisor_closure=True)
        assert enumerate_window(w) == [1, 2, 3, 4, 6, 12]
        with pytest.raises(InvalidInput):
            Window(CHAIN, 12, divisor_closure=True)

    def test_multisets_window_tracks_integer_images(self):
        elements = enumerate_window(Window(MULTISETS, 10))
        assert [multiset_to_integer(m) for m in elements] == list(range(1, 11))

    def test_bound_cap(self, monkeypatch):
        with pytest.raises(BoundTooLarge):
            enumerate_window(Window(SUBSETS, 21))
        monkeypatch.setattr(posets, "DEFAULT_ELEMENT_CAP", 1000)
        with pytest.raises(BoundTooLarge, match="window of 2000 elements exceeds cap 1000"):
            enumerate_window(Window(CHAIN, 2000))

    def test_subsets_cap_at_default(self):
        assert len(enumerate_window(Window(SUBSETS, 20))) == 1 << 20

    def test_subsets_cap_checked_before_allocating(self):
        with pytest.raises(BoundTooLarge):
            enumerate_window(Window(SUBSETS, 10**18))

    @pytest.mark.parametrize("cap", [0, 1, 2, 3, 7, 8, 9, 255, 256, 1000])
    def test_subsets_cap_is_two_to_the_bound(self, cap, monkeypatch):
        monkeypatch.setattr(posets, "DEFAULT_ELEMENT_CAP", cap)
        for bound in range(12):
            if 1 << bound > cap:
                with pytest.raises(BoundTooLarge, match=f"ground set of {bound} exceeds cap {cap}$"):
                    SUBSETS.window_elements(bound)
            else:
                assert len(SUBSETS.window_elements(bound)) == 1 << bound

    @pytest.mark.parametrize("bound", [True, False])
    def test_subsets_refuse_bool_bounds(self, bound):
        with pytest.raises(InvalidInput, match=f"subsets window bound must be >= 0, got {bound}$"):
            enumerate_window(Window(SUBSETS, bound))

    def test_bad_bounds(self):
        with pytest.raises(InvalidInput):
            enumerate_window(Window(CHAIN, 0))
        with pytest.raises(InvalidInput):
            Window(CHAIN, None)

    @pytest.mark.parametrize(
        "poset,window",
        [
            (DIV, Window(DIV, 30)),
            (CHAIN, Window(CHAIN, 30)),
            (SUBSETS, Window(SUBSETS, 4)),
            (MULTISETS, Window(MULTISETS, 30)),
            (DIV, Window(DIV, 60, divisor_closure=True)),
        ],
    )
    def test_downward_closed(self, poset, window):
        elements = enumerate_window(window)
        inside = set(elements)
        for x in elements:
            assert set(ideal(poset, x)) <= inside

    @pytest.mark.parametrize(
        "poset,window",
        [
            (DIV, Window(DIV, 30)),
            (CHAIN, Window(CHAIN, 30)),
            (SUBSETS, Window(SUBSETS, 4)),
            (MULTISETS, Window(MULTISETS, 30)),
        ],
    )
    def test_canonical_order_is_linear_extension(self, poset, window):
        elements = enumerate_window(window)
        for i, x in enumerate(elements):
            assert leq(poset, bottom(poset), x)
            for y in elements[i + 1 :]:
                assert not (leq(poset, y, x) and y != x)


# The multisets window's oracle: the images 1..5,000 factored one at a time.
FACTORED = [integer_to_multiset(n) for n in range(1, 5001)]


def product_grid(x, y):
    """``MULTISETS._grid(x, y)`` as the product over y's coordinates of
    their height ranges, one generator per combination; ``product``
    varies its last argument fastest, so it takes them reversed."""
    lower = dict(x)
    choices = [range(lower.get(c, 0), k + 1) for c, k in y]
    elements = [
        tuple((c, k) for (c, _), k in zip(y, reversed(combo)) if k)
        for combo in itertools.product(*reversed(choices))
    ]
    return elements, [len(r) for r in choices if len(r) > 1]


class TestMultisetConstructions:
    """The multisets window, built from one smallest-prime-factor sieve,
    and the multisets grid, built one coordinate at a time, against the
    constructions they replaced."""

    # Deep: gates the window built from one smallest-prime-factor sieve.
    @pytest.mark.deep
    @settings(deadline=None)
    @given(st.integers(0, 5000))
    @example(0)
    @example(1)
    @example(5000)
    def test_multisets_window_equals_factoring_each_image(self, bound):
        if bound == 0:
            with pytest.raises(InvalidInput, match="window bound must be a positive integer, got 0$"):
                MULTISETS.window_elements(bound)
        else:
            assert MULTISETS.window_elements(bound) == FACTORED[:bound]

    @pytest.mark.parametrize("bound", [-3, True, False, 2.0, "12", None], ids=repr)
    def test_multisets_window_refuses_bad_bounds(self, bound):
        with pytest.raises(InvalidInput, match=re.escape(f"window bound must be a positive integer, got {bound!r}")):
            MULTISETS.window_elements(bound)

    def test_multisets_window_cap(self, monkeypatch):
        monkeypatch.setattr(posets, "DEFAULT_ELEMENT_CAP", 1000)
        assert MULTISETS.window_elements(1000) == FACTORED[:1000]
        with pytest.raises(BoundTooLarge, match="window of 1001 elements exceeds cap 1000$"):
            MULTISETS.window_elements(1001)

    # Deep: gates the grid built one coordinate at a time.
    @pytest.mark.deep
    @settings(deadline=None)
    @given(data=st.data())
    def test_multisets_grid_equals_the_product_construction(self, data):
        coordinates = data.draw(st.lists(st.sampled_from(numtheory._SMALL_PRIMES[:8]), unique=True, max_size=5))
        y = tuple(sorted((c, data.draw(st.integers(1, 4))) for c in coordinates))
        heights = [(c, data.draw(st.integers(0, k))) for c, k in y]
        x = tuple((c, h) for c, h in heights if h)
        assert MULTISETS._grid(x, y) == product_grid(x, y)


class TestOrderLaws:
    """Reflexive, antisymmetric, transitive; exhaustive at small scale,
    sampled on larger windows."""

    @pytest.mark.parametrize(
        "poset,window",
        [
            (DIV, Window(DIV, 20)),
            (CHAIN, Window(CHAIN, 20)),
            (SUBSETS, Window(SUBSETS, 3)),
            (MULTISETS, Window(MULTISETS, 16)),
        ],
    )
    def test_exhaustive_small(self, poset, window):
        elements = enumerate_window(window)
        rel = {
            (x, y) for x in elements for y in elements if leq(poset, x, y)
        }
        for x in elements:
            assert (x, x) in rel
        for x, y in rel:
            if x != y:
                assert (y, x) not in rel
        for x, y in rel:
            for z in elements:
                if (y, z) in rel:
                    assert (x, z) in rel

    def test_sampled_large_divisibility(self):
        rng = random.Random(7)
        for _ in range(2000):
            x, y, z = (rng.randint(1, 1000) for _ in range(3))
            if leq(DIV, x, y) and leq(DIV, y, z):
                assert leq(DIV, x, z)
            if x != y and leq(DIV, x, y):
                assert not leq(DIV, y, x)


class TestExplicitPosets:
    def test_valid_chain(self):
        p = load_explicit_poset(
            {"elements": ["a", "b", "c"], "covers": [["a", "b"], ["b", "c"]]}
        )
        assert leq(p, "a", "c")
        assert not leq(p, "c", "a")
        assert interval(p, "a", "c") == ["a", "b", "c"]
        assert enumerate_window(Window(p)) == ["a", "b", "c"]

    def test_cover_transitivity_not_assumed(self):
        p = load_explicit_poset(
            {"elements": ["a", "b", "c", "d"], "covers": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]]}
        )
        assert leq(p, "a", "d")
        assert not leq(p, "b", "c")
        assert interval(p, "a", "d") == ["a", "b", "c", "d"]

    def test_cyclic_covers(self):
        with pytest.raises(CyclicCovers):
            load_explicit_poset({"elements": ["a", "b"], "covers": [["a", "b"], ["b", "a"]]})
        with pytest.raises(CyclicCovers):
            load_explicit_poset({"elements": ["a"], "covers": [["a", "a"]]})

    def test_no_unique_bottom(self):
        with pytest.raises(NoUniqueBottom):
            load_explicit_poset(
                {"elements": ["a", "b", "c"], "covers": [["a", "c"], ["b", "c"]]}
            )

    def test_duplicate_element(self):
        with pytest.raises(DuplicateElement):
            load_explicit_poset({"elements": ["a", "a"], "covers": []})

    def test_unknown_element_in_cover(self):
        with pytest.raises(UnknownElementInCover):
            load_explicit_poset({"elements": ["a"], "covers": [["a", "b"]]})
        with pytest.raises(UnknownElementInCover):
            load_explicit_poset({"elements": ["a", "b"], "covers": [["a", ["b"]]]})

    @pytest.mark.parametrize(
        "cover", ["ab", {"a": 1, "b": 2}, ["a", "b", "b"], ("a",), None, 7]
    )
    def test_cover_pair_must_be_two_element_list(self, cover):
        with pytest.raises(InvalidInput, match="two-element lists"):
            load_explicit_poset({"elements": ["a", "b"], "covers": [cover]})

    def test_cover_pair_may_be_tuple(self):
        p = ExplicitPoset(["a", "b"], [("a", "b")])
        assert leq(p, "a", "b")

    def test_unknown_element_access(self):
        p = load_explicit_poset({"elements": ["a"], "covers": []})
        with pytest.raises(InvalidElement):
            leq(p, "a", "zz")

    def test_random_posets_satisfy_order_laws(self):
        rng = random.Random(99)
        for _ in range(5):
            p = random_explicit_poset(rng, rng.randint(2, 8))
            elements = enumerate_window(Window(p))
            for x in elements:
                assert leq(p, bottom(p), x)
                assert ideal(p, x) == interval(p, bottom(p), x)
            rel = {(x, y) for x in elements for y in elements if leq(p, x, y)}
            for x, y in rel:
                for z in elements:
                    if (y, z) in rel:
                        assert (x, z) in rel


PASS_WINDOWS = [
    Window(DIV, 60),
    Window(DIV, 720720, divisor_closure=True),
    Window(CHAIN, 30),
    Window(SUBSETS, 5),
    Window(MULTISETS, 120),
    Window(DIV, 1),
    Window(CHAIN, 1),
    Window(MULTISETS, 1),
    Window(SUBSETS, 0),
    Window(DIV, 1, divisor_closure=True),
    Window(DIV, 2, divisor_closure=True),
    Window(DIV, 3**5, divisor_closure=True),
]


def lower_covers(p, y) -> set:
    """The elements directly below y, by brute force over its ideal: the
    maximal elements of the rest, taken from the top down, since the
    ideal lists a linear extension."""
    covers = []
    for z in reversed(ideal(p, y)[:-1]):
        if not any(leq(p, z, c) for c in covers):
            covers.append(z)
    return set(covers)


def step_coordinate(p, y, z):
    """The one coordinate in which the lower cover z of y is lower."""
    high, low = dict(p._pairs(y)), dict(p._pairs(z))
    (c,) = [c for c in high if high[c] != low.get(c, 0)]
    return c


def filter_cases():
    """A window and, within it, the first, second, middle and last
    element, whose principal filters the tests take."""
    cases = []
    for window in PASS_WINDOWS:
        elements = enumerate_window(window)
        for x in sorted({elements[i] for i in (0, 1, len(elements) // 2, -1) if i < len(elements)}, key=repr):
            cases.append((window, x))
    return cases


# The product of the 23 primes below 84: 2**23 divisors, past the cap.
PRIMORIAL_83 = math.prod(p for p in range(2, 84) if numtheory.is_prime(p))


@st.composite
def drawn_windows(draw):
    """A window of every shape: a range of divisibility, multisets or
    the chain, a divisor window, or the subsets of {1..n}."""
    shape = draw(st.sampled_from(["range", "divisors", "subsets"]))
    if shape == "range":
        return Window(draw(st.sampled_from([DIV, MULTISETS, CHAIN])), draw(st.integers(1, 300)))
    if shape == "divisors":
        return Window(DIV, draw(st.integers(1, 10**5)), divisor_closure=True)
    return Window(SUBSETS, draw(st.integers(0, 7)))


class TestWindowPasses:
    @pytest.mark.parametrize("window", PASS_WINDOWS, ids=lambda w: w.label())
    def test_passes_are_the_lower_covers(self, window):
        assert_passes_are_the_lower_covers(window)

    # Deep: the passes each family reads from a window of any shape are its lower covers.
    @pytest.mark.deep
    @settings(deadline=None)
    @given(window=drawn_windows(), data=st.data())
    def test_drawn_window_passes(self, window, data):
        """Each window's passes are its lower covers, and the zeta and
        Mobius transforms that run them equal the point rule."""
        assert_passes_are_the_lower_covers(window)
        p = window.poset
        elements = enumerate_window(window)
        support = data.draw(st.lists(st.sampled_from(elements), max_size=8, unique=True))
        kind = data.draw(st.sampled_from(["int", "rational", "gaussian"]))
        values = data.draw(st.lists(exact_scalars(kind), min_size=len(support), max_size=len(support)))
        assert_materialize_is_the_point_rule(FiniteSupportFunction(p, zip(support, values)), window)

    @pytest.mark.parametrize("window, x", filter_cases(), ids=repr)
    def test_principal_filters_come_out_of_the_window_passes(self, window, x):
        # A principal filter is no shape of its own: the transforms of the
        # delta at x run the whole window's passes, and their support is
        # the filter of x within the window. The evens of 1..60 and the
        # chain 16..30 are filters here too.
        p = window.poset
        elements = enumerate_window(window)
        f = FiniteSupportFunction(p, [(x, 1)])
        above = [y for y in elements if leq(p, x, y)]
        assert dict(materialize(zeta_transform(f), window).items()) == dict.fromkeys(above, 1)
        assert_materialize_is_the_point_rule(f, window)

    @pytest.mark.parametrize(
        "poset, elements, window",
        [
            (DIV, [1, 2, 3, 5], Window(DIV, 30, divisor_closure=True)),
            (DIV, [1, 2, 3, 4, 6], Window(DIV, 12, divisor_closure=True)),
            (SUBSETS, [(), (1,), (2,)], Window(SUBSETS, 2)),
            (SUBSETS, [(), (2,)], Window(SUBSETS, 2)),
            (MULTISETS, [(), ((2, 1),), ((3, 1),), ((5, 1),)], Window(MULTISETS, 5)),
            # Multiples of the first element with a gap, or not all multiples.
            (DIV, [2, 4, 10], Window(DIV, 20, divisor_closure=True)),
            (DIV, [2, 4, 6, 7], Window(DIV, 84)),
            (DIV, [3, 6, 9, 15], Window(DIV, 90, divisor_closure=True)),
            # Six divisors' worth of elements, not closed under division.
            (DIV, [1, 2, 3, 4, 5, 12], Window(DIV, 60, divisor_closure=True)),
            (DIV, [2, 4, 6, 10, 12, 24], Window(DIV, 24)),
            (CHAIN, [3, 4, 6], Window(CHAIN, 6)),
            # Four sets above {1} in {1, 2, 3}, but {2} is not above it.
            (SUBSETS, [(1,), (2,), (1, 2), (1, 2, 3)], Window(SUBSETS, 3)),
            (SUBSETS, [(1,), (1, 2), (1, 4), (1, 2, 3)], Window(SUBSETS, 4)),
            (MULTISETS, [((2, 1),), ((3, 1),), ((2, 2),), ((2, 1), (3, 1))], Window(MULTISETS, 6)),
            (MULTISETS, [((2, 1),), ((2, 2),), ((2, 3),)], Window(MULTISETS, 8)),
        ],
    )
    def test_supports_that_are_no_window_transform_by_the_point_rule(self, poset, elements, window):
        # A list that is no window is only ever a support: its transforms
        # run the passes of a window that holds it.
        assert set(elements) <= set(enumerate_window(window))
        f = FiniteSupportFunction(poset, zip(elements, range(1, len(elements) + 1)))
        assert_materialize_is_the_point_rule(f, window)

    @pytest.mark.parametrize(
        "poset, elements, window",
        [
            (DIV, [1, PRIMORIAL_83], Window(DIV, PRIMORIAL_83, divisor_closure=True)),
            (SUBSETS, [(), tuple(range(1, 41))], Window(SUBSETS, 40)),
        ],
    )
    def test_windows_of_supports_past_the_cap_are_refused(self, poset, elements, window):
        # The point rule answers at each support element, while the
        # window that holds them is refused, not built.
        f = FiniteSupportFunction(poset, zip(elements, range(1, len(elements) + 1)))
        for y in elements:
            assert zeta_transform(f)(y) == sum(v for x, v in f.items() if leq(poset, x, y))
        for transform in (zeta_transform, mobius_inversion):
            with pytest.raises(BoundTooLarge, match="exceeds cap"):
                materialize(transform(f), window)

    def test_explicit_posets_have_none(self):
        p = load_explicit_poset({"elements": ["a", "b"], "covers": [["a", "b"]]})
        window = Window(p)
        assert p.window_passes(window, enumerate_window(window)) is None


def assert_materialize_is_the_point_rule(f, window):
    """The zeta and Mobius transforms of ``f`` materialized on the window
    equal their point rule at every window element."""
    elements = enumerate_window(window)
    for transform in (zeta_transform, mobius_inversion):
        e = transform(f)
        points = {y: e(y) for y in elements}
        assert dict(materialize(e, window).items()) == {y: v for y, v in points.items() if v}


def assert_passes_are_the_lower_covers(window):
    """The window's ``window_passes`` list each of its elements once,
    and their steps, read through that listing, are exactly the pairs
    (y, z) of its elements with z a lower cover of y, in the order
    ``_run_passes`` relies on. A range window is listed as it is
    enumerated; a grid window as its grid, with passes of ``range``s.
    Every step of a pass lowers the same coordinate. A grid pass lowers
    it from a single level to the level below, and a coordinate's grid
    passes never descend by level (one level may take several passes,
    over disjoint chains); a range pass lowers it from every level, is
    the coordinate's only pass, and its targets ascend."""
    p = window.poset
    elements = enumerate_window(window)
    listing, passes = p.window_passes(window, elements)
    assert sorted(listing, key=p.sort_key) == elements
    grid = p == SUBSETS or window.divisor_closure
    assert (listing is elements) is not grid
    pairs = []
    levels = {}  # coordinate -> level of its last grid pass, None after a range pass
    for targets, sources in passes:
        if grid:
            assert type(targets) is range and type(sources) is range
        targets, sources = list(targets), list(sources)
        assert targets and len(targets) == len(sources)
        steps = [(listing[t], listing[s]) for t, s in zip(targets, sources)]
        (c,) = {step_coordinate(p, y, z) for y, z in steps}
        heights = {dict(p._pairs(y))[c] for y, _ in steps}
        if len(heights) == 1:
            (level,) = heights
            assert levels.get(c, 1) is not None and levels.get(c, 1) <= level
            levels[c] = level
        else:
            assert c not in levels and targets == sorted(set(targets))
            levels[c] = None
        pairs += steps
    # Windows are downward closed, so every lower cover is an element.
    expected = [(y, z) for y in elements for z in lower_covers(p, y)]
    assert sorted(pairs, key=repr) == sorted(expected, key=repr)


class TestIntervalCaps:
    """Intervals of more than DEFAULT_ELEMENT_CAP elements are refused
    before any element is built."""

    def test_chain_boundary(self):
        assert len(interval(CHAIN, 5, DEFAULT_ELEMENT_CAP + 4)) == DEFAULT_ELEMENT_CAP
        with pytest.raises(BoundTooLarge):
            interval(CHAIN, 5, DEFAULT_ELEMENT_CAP + 5)
        with pytest.raises(BoundTooLarge):
            ideal(CHAIN, 10**12)

    def test_subsets_compare_by_bit_length(self):
        assert len(interval(SUBSETS, (3,), tuple(range(1, 12)))) == 1 << 10
        with pytest.raises(BoundTooLarge):
            interval(SUBSETS, (3,), tuple(range(1, 23)))
        with pytest.raises(BoundTooLarge):
            ideal(SUBSETS, range(1, 41))

    def test_multisets_product_of_gaps(self):
        assert len(interval(MULTISETS, ((2, 1),), ((2, 3), (3, 2)))) == 3 * 3
        with pytest.raises(BoundTooLarge):
            interval(MULTISETS, (), ((2, 1023), (3, 1024)))
        with pytest.raises(BoundTooLarge):
            ideal(MULTISETS, ((2, 10**12),))
        with pytest.raises(BoundTooLarge):
            ideal(MULTISETS, ((2, 10**40), (3, 10**40), (5, 10**40)))

    def test_sizes_match_the_formulas(self):
        rng = random.Random(5)
        for _ in range(40):
            x = integer_to_multiset(rng.randint(1, 60))
            y = integer_to_multiset(multiset_to_integer(x) * rng.randint(1, 60))
            lower = dict(x)
            assert len(interval(MULTISETS, x, y)) == math.prod(
                k - lower.get(p, 0) + 1 for p, k in y
            )
            s = tuple(sorted(rng.sample(range(1, 9), rng.randint(0, 3))))
            t = tuple(sorted(set(s) | set(rng.sample(range(1, 9), 3))))
            assert len(interval(SUBSETS, s, t)) == 1 << (len(t) - len(s))


class TestDivisorCaps:
    """Divisibility intervals and divisor windows are counted from the
    factorisation and refused before any divisor is built."""

    # The product of the first 23 primes: 2**23 divisors.
    PRIMORIAL_23 = math.prod(p for p in range(2, 84) if numtheory.is_prime(p))

    @pytest.fixture
    def no_divisor_lists(self, monkeypatch):
        def refuse(factors):
            raise AssertionError("divisor list built")

        monkeypatch.setattr(numtheory, "divisor_grid", refuse)

    def test_interval_refused_before_building(self, no_divisor_lists):
        with pytest.raises(BoundTooLarge, match="interval of more than 1048576 elements"):
            interval(DIV, 1, self.PRIMORIAL_23)
        with pytest.raises(BoundTooLarge, match="interval of more than 1048576 elements"):
            ideal(DIV, 6 * self.PRIMORIAL_23)

    def test_divisor_window_refused_before_building(self, no_divisor_lists, monkeypatch):
        window = Window(DIV, self.PRIMORIAL_23, divisor_closure=True)
        with pytest.raises(BoundTooLarge, match="window of 8388608 elements exceeds cap"):
            enumerate_window(window)
        monkeypatch.setattr(posets, "DEFAULT_ELEMENT_CAP", 239)
        with pytest.raises(BoundTooLarge, match="window of 240 elements exceeds cap$"):
            enumerate_window(Window(DIV, 720720, divisor_closure=True))

    def test_boundaries(self, monkeypatch):
        window = Window(DIV, 720720, divisor_closure=True)
        monkeypatch.setattr(posets, "DEFAULT_ELEMENT_CAP", 240)
        assert enumerate_window(window) == sympy.divisors(720720)
        assert interval(DIV, 7, 7 * 720720) == [7 * d for d in sympy.divisors(720720)]
        with pytest.raises(BoundTooLarge, match="interval of more than 240 elements"):
            interval(DIV, 7, 7 * 2 * 720720)


class TestMultisetSortKey:
    def test_equals_the_integer_image(self):
        for m in enumerate_window(Window(MULTISETS, 300)):
            assert MULTISETS.sort_key(m) == multiset_to_integer(m)

    def test_only_public_arguments_are_validated(self, monkeypatch):
        tested = []
        real = numtheory.is_prime
        monkeypatch.setattr(numtheory, "is_prime", lambda n: tested.append(n) or real(n))
        y = ((2, 1), (1000003, 1))
        # A fresh inverse of zeta, so the row is solved and its interval sorted.
        assert invert(zeta_function(MULTISETS)).evaluate((), y) == 1
        assert sorted(tested) == [2, 1000003]
        tested.clear()
        assert len(interval(MULTISETS, ((2, 1),), ((2, 3), (3, 1)))) == 6
        assert sorted(tested) == [2, 2, 3]
        # The public map still validates its argument.
        tested.clear()
        assert multiset_to_integer(y) == 2000006
        assert sorted(tested) == [2, 1000003]

    def test_refuses_images_past_the_cap(self):
        cap = DEFAULT_ELEMENT_CAP
        assert MULTISETS.sort_key(((2, cap - 1),)) == 1 << (cap - 1)
        # Refused from the exponents alone, before the power is built.
        for too_large in (((2, cap),), ((2, 10**12),), ((3, 10**40), (5, 1))):
            with pytest.raises(BoundTooLarge):
                MULTISETS.sort_key(too_large)
        # Refused after an exact bit count: 3**k has more bits than k.
        k = math.ceil(cap / math.log2(3))
        while (3**k).bit_length() <= cap:
            k += 1
        assert MULTISETS.sort_key(((3, k - 1),)) == 3 ** (k - 1)
        with pytest.raises(BoundTooLarge):
            MULTISETS.sort_key(((3, k),))

    def test_interval_of_huge_images_is_refused(self):
        with pytest.raises(BoundTooLarge):
            interval(MULTISETS, ((2, 10**12 - 1),), ((2, 10**12),))


class TestMultisetIsomorphism:
    def test_examples(self):
        assert multiset_to_integer({}) == 1
        assert multiset_to_integer({2: 2, 3: 1}) == 12
        assert multiset_to_integer({2: 3, 3: 2, 5: 1}) == 360
        assert integer_to_multiset(1) == ()
        assert integer_to_multiset(12) == ((2, 2), (3, 1))
        assert integer_to_multiset(97) == ((97, 1),)

    def test_round_trip(self):
        for n in range(1, 2000):
            assert multiset_to_integer(integer_to_multiset(n)) == n

    def test_integer_image_refused_past_the_cap(self, monkeypatch):
        cap = DEFAULT_ELEMENT_CAP
        assert multiset_to_integer({2: cap - 1}) == 1 << (cap - 1)
        # Refused from the exponents alone, before the power is built.
        for too_large in ({2: cap}, {3: 10**7}, {3: 3 * 10**7}, {2: 1, 5: 10**40}):
            with pytest.raises(BoundTooLarge, match=f"image of more than {cap} bits"):
                multiset_to_integer(too_large)
        # Refused after an exact bit count: 3**31 has 50 bits, 3**32 has 51.
        monkeypatch.setattr(posets, "DEFAULT_ELEMENT_CAP", 50)
        assert multiset_to_integer({3: 31}) == 3**31
        with pytest.raises(BoundTooLarge, match="image of more than 50 bits"):
            multiset_to_integer({3: 32})

    def test_order_embedding(self):
        for n in range(1, 80):
            for m in range(1, 80):
                divides = m % n == 0
                assert leq(MULTISETS, integer_to_multiset(n), integer_to_multiset(m)) == divides

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInput):
            integer_to_multiset(0)
        with pytest.raises(InvalidElement):
            multiset_to_integer({4: 1})
        with pytest.raises(InvalidElement):
            multiset_to_integer({2: 0})
        with pytest.raises(InvalidElement):
            multiset_to_integer([(2, 1), (2, 2)])


class TestEncodings:
    @pytest.mark.parametrize(
        "poset,element,text",
        [
            (DIV, 12, "12"),
            (CHAIN, 3, "3"),
            (SUBSETS, (), "{}"),
            (SUBSETS, (1, 3), "{1,3}"),
            (MULTISETS, (), "1"),
            (MULTISETS, ((2, 2), (3, 1)), "2^2*3"),
        ],
    )
    def test_format_parse_round_trip(self, poset, element, text):
        assert poset.format_element(element) == text
        assert poset.parse_element(text) == element

    def test_explicit_identifiers_verbatim(self):
        p = load_explicit_poset({"elements": ["leaf-1"], "covers": []})
        assert p.parse_element("leaf-1") == "leaf-1"
        assert p.format_element("leaf-1") == "leaf-1"

    @pytest.mark.parametrize(
        "poset,text",
        [
            (DIV, "x"),
            (DIV, "-3"),
            (SUBSETS, "1,2"),
            (SUBSETS, "{1,}"),
            (MULTISETS, "6"),
            (MULTISETS, "2^0"),
        ],
    )
    def test_parse_rejects(self, poset, text):
        with pytest.raises(InvalidElement):
            poset.parse_element(text)


# Integer texts that int() reads or refuses: whitespace, signs, leading
# zeros, separators, Unicode digits, nonpositive values, empty parts,
# composites and a prime above the trial-division limit.
_PRIME_TEXTS = st.sampled_from(["2", "3", "5", "7", "11", "13", "997", "1009"])
_INT_TEXTS = st.one_of(
    st.integers(1, 40).map(str),
    _PRIME_TEXTS,
    st.sampled_from(
        ["", " ", "0", "00", "-7", "+5", "007", " 3 ", "1_0", "1__0", "_1", "\u0663", "1.5",
         "2 3", "x", "4", "1000003", "1000001", "999983", "- 2"]
    ),
)


def _seed_element_texts(family: str):
    """Hypothesis strategy for well-formed and malformed encodings of
    ``family``'s elements, and for stray text."""
    stray = st.text(alphabet="0123456789{},*^ +-_x\u0663", max_size=10)
    padding = st.sampled_from(["", " ", "  ", "\t"])
    if family == "subsets":
        members = st.lists(_INT_TEXTS, max_size=4).map(",".join)
        shaped = st.tuples(padding, members, padding).map(lambda t: f"{t[0]}{{{t[1]}}}{t[2]}")
        fixed = st.sampled_from(["{1,,2}", "{2,1,2}", "1,2", "{1", "{ }", "{}"])
    elif family == "multisets":
        base = st.one_of(_PRIME_TEXTS, _INT_TEXTS)
        factor = st.one_of(base, st.tuples(base, _INT_TEXTS).map("^".join))
        shaped = st.lists(factor, min_size=1, max_size=3).map("*".join)
        fixed = st.sampled_from(["1", "2*", "2^", "2*2", "2^0", "4", "3*2^2", " 2 * 3 ", "1000003^2"])
    else:
        shaped, fixed = _INT_TEXTS, st.sampled_from(["1", "1000003"])
    return st.one_of(shaped, fixed, stray)


class TestParseAgainstSeed:
    # Deep: gates every built-in family's element parsing.
    @pytest.mark.deep
    @settings(deadline=None)
    @given(data=st.data(), family=st.sampled_from(["divisibility", "chain", "subsets", "multisets"]))
    def test_parse_element_matches_the_seed(self, data, family):
        """Each built-in family reads an encoding as the seed does: the
        same element, or an ``InvalidElement`` with the same text."""
        text = data.draw(_seed_element_texts(family))
        outcomes = []
        for p in (get_poset(family), seed_posets.get_poset(family)):
            try:
                element = p.parse_element(text)
            except (InvalidElement, SeedInvalidElement) as error:
                outcomes.append(str(error))
            else:
                outcomes.append((type(element), element))
        assert outcomes[0] == outcomes[1]


class TestMultisetCanonRejects:
    def test_non_iterable_element(self):
        with pytest.raises(InvalidElement, match=r"multisets elements are \(prime, mult\) maps, got 5"):
            MULTISETS.canon(5)

    def test_entry_that_is_not_a_pair(self):
        with pytest.raises(InvalidElement, match=r"multisets entries are \(prime, mult\) pairs, got \(2,\)"):
            MULTISETS.canon([(2,)])
