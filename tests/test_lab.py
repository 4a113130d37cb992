"""Witness streams, support censuses, and the finite-support pair search."""

import ast
import itertools
import math
import pathlib
import random
import re
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import posetlab
import posetlab.functions as functions
import posetlab.lab as lab
import posetlab.linalg as linalg
import posetlab.posets as posets
from helpers import (
    random_explicit_poset,
    random_interval_function,
    random_support_function,
    skew_witness_stream,
    squarefree_upto,
)
from posetlab import (
    BoundTooLarge,
    ElementOutsideWindow,
    FiniteSupportFunction,
    GaussianRational,
    InsufficientWitnesses,
    NotInverses,
    NotInvertible,
    NotStrictlyAbove,
    PosetMismatch,
    Window,
    WindowNotNested,
    WitnessConclusionViolated,
    ZeroFunction,
    check_witness_conditions,
    closed_form_mobius,
    conjecture_experiment,
    convolve,
    custom_function,
    delta_function,
    enumerate_window,
    finite_support_pair_search,
    get_poset,
    integer_to_multiset,
    invert,
    load_explicit_poset,
    materialize,
    mobius_function,
    mobius_inversion,
    multiset_to_integer,
    support_census,
    verify_uncertainty_witnesses,
    witnesses,
    zeta_function,
    zeta_transform,
)
from posetlab.errors import PosetLabError
from posetlab.incidence import IntervalFunction
from posetlab.linalg import nullspace, primitive_integer_vector
from posetlab.scalars import as_scalar
from posetlab.numtheory import primes

DIV = get_poset("divisibility")
CHAIN = get_poset("chain")
SUBSETS = get_poset("subsets")
MULTISETS = get_poset("multisets")


def _to_sympy(value):
    value = as_scalar(value)
    return sympy.Rational(value.real) + sympy.I * sympy.Rational(value.imag)


def _from_sympy(value):
    real, imag = (sympy.Rational(part) for part in sympy.expand_complex(value).as_real_imag())
    return GaussianRational(Fraction(real.p, real.q), Fraction(imag.p, imag.q))


class TestWitnessConditions:
    def test_divisibility_witness(self):
        conditions = check_witness_conditions(DIV, 6, [1, 2, 3, 6], 30)
        assert conditions == (True, True, True, GaussianRational(-1))
        assert conditions.all_hold

    def test_chain_avoid_set_hit(self):
        conditions = check_witness_conditions(CHAIN, 1, [2], 2)
        assert (conditions.disjoint, conditions.nonzero) == (False, True)
        assert conditions.factorize

    def test_chain_mobius_vanishes(self):
        conditions = check_witness_conditions(CHAIN, 1, [], 3)
        assert conditions.disjoint
        assert not conditions.nonzero
        assert conditions.mu_yz == 0

    def test_requires_strictly_above(self):
        with pytest.raises(NotStrictlyAbove):
            check_witness_conditions(DIV, 6, [], 6)
        with pytest.raises(NotStrictlyAbove):
            check_witness_conditions(DIV, 6, [], 5)

    @staticmethod
    def row_conditions(p, y, avoid, z):
        """The conditions by Mobius rows on a fresh inverse of zeta, one
        row per element of ideal(y)."""
        ideal_y = p.ideal(y)
        fresh = set(p.ideal(z)) - set(ideal_y)
        mu = invert(zeta_function(p)).evaluate
        mu_yz = mu(y, z)
        factorize = all(mu(x, y) * mu_yz == mu(x, z) for x in ideal_y)
        return (fresh.isdisjoint(avoid), factorize, bool(mu_yz), mu_yz)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), window=st.sampled_from(
        [Window(DIV, 120), Window(CHAIN, 40), Window(SUBSETS, 5), Window(MULTISETS, 120)]
    ))
    def test_columns_agree_with_rows_for_any_z_above_y(self, data, window):
        p = window.poset
        elements = enumerate_window(window)
        y, z = data.draw(st.sampled_from(
            [(a, b) for i, a in enumerate(elements) for b in elements[i + 1 :] if p._leq(a, b)]
        ))
        avoid = data.draw(st.lists(st.sampled_from(elements), max_size=4))
        assert check_witness_conditions(p, y, avoid, z) == self.row_conditions(p, y, set(avoid), z)

    def test_columns_agree_with_rows_on_random_explicit_posets(self):
        rng = random.Random(17)
        for _ in range(8):
            p = random_explicit_poset(rng, rng.randint(2, 10))
            elements = p.elements()
            for y in elements:
                for z in elements:
                    if z != y and p.leq(y, z):
                        avoid = rng.sample(elements, rng.randint(0, 2))
                        assert check_witness_conditions(p, y, avoid, z) == self.row_conditions(
                            p, y, set(avoid), z
                        )

    def test_one_candidate_walks_at_most_two_columns(self, monkeypatch):
        mobius = mobius_function(SUBSETS)
        mobius._columns.clear()
        walks = []
        solve = IntervalFunction._solve

        def counting(self, x, y, column):
            walks.append((self, x, y, column))
            return solve(self, x, y, column)

        monkeypatch.setattr(IntervalFunction, "_solve", counting)
        y = (1, 2, 3, 4, 5)
        assert check_witness_conditions(SUBSETS, y, [], y + (6,)).all_hold
        assert len(walks) <= 2 and all(fn is mobius and column for fn, _, _, column in walks)
        # y's column is kept: the next candidate walks only its own.
        walks.clear()
        assert check_witness_conditions(SUBSETS, y, [], y + (7,)).all_hold
        assert walks == [(mobius, (), y + (7,), True)]


class TestWitnessStreams:
    def test_divisibility_fresh_primes(self):
        certs = list(witnesses(DIV, 6, [1, 2, 3, 6], 3))
        assert [c.z for c in certs] == [30, 42, 66]
        assert all(c.all_conditions for c in certs)
        assert all(c.mu_yz == -1 for c in certs)
        assert all(c.predicted_fz is None for c in certs)

    def test_avoid_set_excludes_primes(self):
        # 35 in the avoid set rules out both q = 5 and q = 7.
        certs = list(witnesses(DIV, 6, [35], 2))
        assert [c.z for c in certs] == [66, 78]

    def test_subsets_fresh_elements(self):
        certs = list(witnesses(SUBSETS, (1,), [(), (1,)], 1))
        assert [c.z for c in certs] == [(1, 2)]

    def test_multisets_fresh_primes(self):
        certs = list(witnesses(MULTISETS, ((2, 1),), [], 2))
        assert [c.z for c in certs] == [((2, 1), (3, 1)), ((2, 1), (5, 1))]

    def test_chain_stream_is_empty(self):
        assert list(witnesses(CHAIN, 1, [1, 2], 1, 50)) == []

    def test_chain_witness_only_above_bottom(self):
        # z = 2 works above y = 1, but above y >= 2 the factorisation
        # condition fails at the predecessor, so the stream is empty.
        assert [c.z for c in witnesses(CHAIN, 1, [], 3, 50)] == [2]
        assert list(witnesses(CHAIN, 4, [1, 2], 3, 50)) == []

    def test_explicit_fallback_scan(self):
        p = load_explicit_poset(
            {"elements": ["a", "b", "c"], "covers": [["a", "b"], ["b", "c"]]}
        )
        certs = list(witnesses(p, "a", [], 3, 50))
        assert [c.z for c in certs] == ["b"]

    def test_certificates_recheck_independently(self):
        for cert in witnesses(DIV, 4, [5, 9], 5):
            again = check_witness_conditions(DIV, cert.y, cert.avoid_set, cert.z)
            assert again.all_hold
            assert again.mu_yz == cert.mu_yz

    def test_budget_counts_candidates(self):
        # Budget 2 only reaches z = 2 and z = 3 on the chain.
        certs = list(witnesses(CHAIN, 1, [], 5, 2))
        assert [c.z for c in certs] == [2]


def _reference_candidates(p, y, avoid):
    """The per-family candidate formulas that the shared product-of-chains
    construction replaced, kept here as the reference."""
    if p is DIV:
        return (y * q for q in primes() if y % q and all(s % q for s in avoid))
    if p is SUBSETS:
        used = set(y).union(*avoid)
        return (tuple(sorted(y + (q,))) for q in itertools.count(1) if q not in used)
    n = multiset_to_integer(y)
    images = [multiset_to_integer(s) for s in avoid]
    return (
        tuple(sorted(y + ((q, 1),)))
        for q in primes()
        if n % q and all(s % q for s in images)
    )


_SMALL_INTEGERS = st.integers(1, 3000)
_SMALL_SETS = st.sets(st.integers(1, 9), max_size=5).map(lambda s: tuple(sorted(s)))
_ELEMENT_DRAWS = {
    DIV: _SMALL_INTEGERS,
    SUBSETS: _SMALL_SETS,
    MULTISETS: _SMALL_INTEGERS.map(integer_to_multiset),
}


class TestSharedWitnessCandidates:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), p=st.sampled_from([DIV, SUBSETS, MULTISETS]))
    def test_prefix_equals_the_family_formula(self, data, p):
        y = data.draw(_ELEMENT_DRAWS[p])
        avoid = set(data.draw(st.lists(_ELEMENT_DRAWS[p], max_size=4)))
        got = list(itertools.islice(p.witness_candidates(y, avoid), 8))
        assert got == list(itertools.islice(_reference_candidates(p, y, avoid), 8))

    def test_chain_stream_equals_brute_force_scan(self):
        rng = random.Random(11)
        for y in range(1, 31):
            for _ in range(3):
                avoid = rng.sample(range(1, 80), rng.randint(0, 4))
                scan = [
                    z
                    for z in range(y + 1, y + 41)
                    if check_witness_conditions(CHAIN, y, avoid, z).all_hold
                ]
                stream = [c.z for c in witnesses(CHAIN, y, avoid, 50, budget=10**9)]
                assert stream == scan

    def test_chain_checks_one_candidate(self, monkeypatch):
        checked = []
        real = lab.check_witness_conditions

        def counting(p, y, avoid, z):
            checked.append(z)
            if len(checked) > 1:
                pytest.fail(f"checked a second candidate {z}")
            return real(p, y, avoid, z)

        monkeypatch.setattr(lab, "check_witness_conditions", counting)
        certs = list(witnesses(CHAIN, 1, [], 3, budget=10**9))
        assert [c.z for c in certs] == [2]
        assert checked == [2]


class TestVerifyUncertaintyWitnesses:
    def test_divisibility_point_mass(self):
        g = FiniteSupportFunction(DIV, {1: 1})
        certs = verify_uncertainty_witnesses(DIV, g, 3)
        assert [c.z for c in certs] == [2, 3, 5]
        assert all(c.y == 1 for c in certs)
        assert all(c.observed_fz == -1 for c in certs)
        assert all(c.predicted_fz == c.observed_fz for c in certs)

    def test_divisibility_two_point_function(self):
        g = FiniteSupportFunction(DIV, {1: 1, 6: -2})
        certs = verify_uncertainty_witnesses(DIV, g, 2)
        for cert in certs:
            assert cert.all_conditions
            assert cert.observed_fz == cert.predicted_fz
            assert cert.observed_fz
            # Independent recomputation through the closed form.
            brute = sum(
                (
                    closed_form_mobius(DIV, x, cert.z) * g[x]
                    for x in DIV.ideal(cert.z)
                ),
                GaussianRational(0),
            )
            assert brute == cert.observed_fz

    def test_subsets_point_mass_at_bottom(self):
        g = FiniteSupportFunction(SUBSETS, {(): 1})
        certs = verify_uncertainty_witnesses(SUBSETS, g, 2)
        assert [c.z for c in certs] == [(1,), (2,)]
        assert all(c.observed_fz == -1 for c in certs)

    def test_zero_function_rejected(self):
        with pytest.raises(ZeroFunction):
            verify_uncertainty_witnesses(DIV, FiniteSupportFunction(DIV, {}), 1)

    def test_budget_exhaustion_carries_partial_results(self):
        g = FiniteSupportFunction(CHAIN, {1: 1})
        with pytest.raises(InsufficientWitnesses) as err:
            verify_uncertainty_witnesses(CHAIN, g, 2, budget=40)
        assert [c.z for c in err.value.certificates] == [2]
        assert err.value.certificates[0].observed_fz == -1

    def test_base_point_is_first_nonzero_in_canonical_order(self):
        # supp(g) = {2, 4}: the inversion vanishes at 1 and is nonzero at 2.
        g = FiniteSupportFunction(DIV, {2: 1, 4: 1})
        certs = verify_uncertainty_witnesses(DIV, g, 1)
        assert certs[0].y == 2

    def test_conclusion_mismatch_raises(self, monkeypatch):
        skew_witness_stream(monkeypatch)
        g = FiniteSupportFunction(DIV, {1: 1})
        with pytest.raises(WitnessConclusionViolated, match="at 2: observed -1, predicted -2"):
            verify_uncertainty_witnesses(DIV, g, 1)

    def test_reads_stored_values_of_g(self, monkeypatch):
        # The check sums over g's stored narrow values; it builds no
        # wrapped or narrowed copy of them.
        g = FiniteSupportFunction(DIV, {1: 1, 6: Fraction(-2), 10: GaussianRational(0, 1)})
        expected = verify_uncertainty_witnesses(DIV, g, 3)
        monkeypatch.setattr(FiniteSupportFunction, "items", None)
        assert verify_uncertainty_witnesses(DIV, g, 3) == expected

    def test_vanishing_inversion_raises(self, monkeypatch):
        monkeypatch.setattr(lab, "mobius_inversion", lambda g: lambda y: GaussianRational(0))
        with pytest.raises(WitnessConclusionViolated, match="vanishes"):
            verify_uncertainty_witnesses(DIV, FiniteSupportFunction(DIV, {1: 1}), 1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["divisibility", "chain", "subsets", "multisets", "explicit"]),
        st.integers(0, 2**32),
    )
    def test_base_point_is_the_first_support_element(self, family, seed):
        # The first nonzero of the inversion on the downward closure of
        # the support, in canonical order, is the first support element.
        rng = random.Random(seed)
        if family == "explicit":
            p = random_explicit_poset(rng, rng.randint(2, 9))
            pool = p.elements()
        else:
            p = get_poset(family)
            pool = enumerate_window(Window(p, 4 if family == "subsets" else 40))
        g = random_support_function(rng, p, pool, max_support=4)
        f = mobius_inversion(g)
        closure = sorted({e for s in g.support() for e in p.ideal(s)}, key=p.sort_key)
        y = g.support()[0]
        assert next(e for e in closure if f(e)) == y
        with mock.patch.object(lab, "witnesses", wraps=lab.witnesses) as spy:
            try:
                certs = verify_uncertainty_witnesses(p, g, 1, budget=20)
            except InsufficientWitnesses as err:
                certs = err.certificates
        assert spy.call_args.args[1] == y
        assert all(c.y == y for c in certs)


def test_one_constant_caps_every_size(monkeypatch):
    """Windows, divisor windows, intervals, multiset sort keys, pair-search
    cells and conjecture pairs all read the cap when they check it."""
    monkeypatch.setattr(posets, "DEFAULT_ELEMENT_CAP", 10)
    assert len(enumerate_window(Window(CHAIN, 10))) == 10
    with pytest.raises(BoundTooLarge, match="^window of 11 elements exceeds cap 10$"):
        enumerate_window(Window(CHAIN, 11))
    with pytest.raises(BoundTooLarge, match="^subsets window over ground set of 4 exceeds cap 10$"):
        enumerate_window(Window(SUBSETS, 4))
    with pytest.raises(BoundTooLarge, match="^window of 12 elements exceeds cap$"):
        enumerate_window(Window(DIV, 60, divisor_closure=True))
    assert len(CHAIN.interval(1, 10)) == 10
    for p, x, y in [(CHAIN, 1, 11), (DIV, 1, 60), (SUBSETS, (), (1, 2, 3, 4)), (MULTISETS, (), ((2, 11),))]:
        with pytest.raises(BoundTooLarge, match="^interval of more than 10 elements$"):
            p.interval(x, y)
    with pytest.raises(BoundTooLarge, match="^multiset integer image of more than 10 bits$"):
        MULTISETS.sort_key(((2, 10),))
    with pytest.raises(BoundTooLarge, match="^pair-search matrix of 12 cells exceeds cap 10$"):
        finite_support_pair_search(CHAIN, Window(CHAIN, 2), Window(CHAIN, 8))
    with pytest.raises(BoundTooLarge, match="^inverse-pair check over 15 element pairs exceeds cap 10$"):
        conjecture_experiment(
            CHAIN, mobius_function(CHAIN), zeta_function(CHAIN), Window(CHAIN, 1), Window(CHAIN, 5), [1]
        )


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so no check in the library may use one.
    package = pathlib.Path(posetlab.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


class TestSupportCensus:
    def test_chain_mobius_row_is_finite(self):
        census = support_census(CHAIN, mobius_function(CHAIN), 1, Window(CHAIN, 100))
        assert census.members == [1, 2]
        assert census.verdict == "finite-certified"

    def test_divisibility_squarefree_members(self):
        census = support_census(DIV, mobius_function(DIV), 1, Window(DIV, 30))
        assert census.members == squarefree_upto(30)
        assert len(census.members) == 19
        assert census.verdict == "infinite-certified"

    def test_subsets_all_members(self):
        census = support_census(SUBSETS, mobius_function(SUBSETS), (), Window(SUBSETS, 2))
        assert census.members == [(), (1,), (2,), (1, 2)]
        assert census.verdict == "infinite-certified"

    def test_multisets_mirror_divisibility(self):
        census = support_census(
            MULTISETS, mobius_function(MULTISETS), (), Window(MULTISETS, 30)
        )
        from posetlab import multiset_to_integer

        assert [multiset_to_integer(m) for m in census.members] == squarefree_upto(30)
        assert census.verdict == "infinite-certified"

    def test_mobius_of_an_equal_poset_is_certified(self):
        # Each poset instance keeps its own shared Mobius function.
        twin = type(DIV)()
        assert twin == DIV and twin is not DIV
        census = support_census(DIV, mobius_function(twin), 1, Window(DIV, 30))
        assert census.verdict == "infinite-certified"

    def test_custom_function_is_inconclusive(self):
        box = custom_function(CHAIN, lambda x, y: 1 if y - x < 3 else 0)
        census = support_census(CHAIN, box, 1, Window(CHAIN, 20))
        assert census.members == [1, 2, 3]
        assert census.verdict == "inconclusive-window-only"

    def test_explicit_poset_is_inconclusive(self):
        p = load_explicit_poset(
            {"elements": ["a", "b"], "covers": [["a", "b"]]}
        )
        census = support_census(p, mobius_function(p), "a", Window(p))
        assert census.members == ["a", "b"]
        assert census.verdict == "inconclusive-window-only"

    def test_user_built_inverse_of_zeta_is_inconclusive(self):
        census = support_census(CHAIN, invert(zeta_function(CHAIN)), 1, Window(CHAIN, 10))
        assert census.members == [1, 2]
        assert census.verdict == "inconclusive-window-only"

    def test_nonmobius_builtin_is_inconclusive(self):
        census = support_census(CHAIN, zeta_function(CHAIN), 1, Window(CHAIN, 10))
        assert len(census.members) == 10
        assert census.verdict == "inconclusive-window-only"

    def test_base_point_must_be_in_window(self):
        with pytest.raises(ElementOutsideWindow):
            support_census(
                DIV, mobius_function(DIV), 5, Window(DIV, 6, divisor_closure=True)
            )

    def test_members_match_independent_evaluation(self):
        census = support_census(DIV, mobius_function(DIV), 2, Window(DIV, 60))
        expected = [
            y
            for y in enumerate_window(Window(DIV, 60))
            if y % 2 == 0 and closed_form_mobius(DIV, 2, y) != 0
        ]
        assert census.members == expected

    def test_monotone_in_the_window(self):
        small = support_census(DIV, mobius_function(DIV), 1, Window(DIV, 40))
        large = support_census(DIV, mobius_function(DIV), 1, Window(DIV, 80))
        assert set(small.members) <= set(large.members)


def _census_cases():
    rng = random.Random(23)
    windows = [
        Window(DIV, 40),
        Window(DIV, 360, divisor_closure=True),
        Window(CHAIN, 25),
        Window(SUBSETS, 4),
        Window(MULTISETS, 40),
        Window(random_explicit_poset(rng, 7)),
    ]
    for w in windows:
        p = w.poset
        elements = enumerate_window(w)
        custom = random_interval_function(rng, p, elements)
        functions = [
            delta_function(p),
            zeta_function(p),
            mobius_function(p),
            invert(zeta_function(p)),
            custom,
            invert(custom),
            convolve(zeta_function(p), zeta_function(p)),
            convolve(custom, mobius_function(p)),
        ]
        for a in functions:
            yield pytest.param(w, a, id=f"{w.label()}-{a.name}")


class TestCensusThroughMaterialize:
    @pytest.mark.parametrize("window,a", list(_census_cases()))
    def test_members_equal_the_row_scan(self, window, a):
        p = window.poset
        elements = enumerate_window(window)
        for x in elements[:: max(1, len(elements) // 6)]:
            census = support_census(p, a, x, window)
            assert census.members == [y for y in elements if p.leq(x, y) and a.evaluate(x, y)]
            expected = p.mobius_census if a is mobius_function(p) else None
            assert (census.verdict, census.certificate_note) == (
                expected
                or ("inconclusive-window-only", "no analytic certificate for this function on this poset")
            )

    @pytest.mark.parametrize("window", [Window(DIV, 60), Window(SUBSETS, 5), Window(MULTISETS, 60)],
                             ids=lambda w: w.label())
    def test_zeta_and_mobius_rows_take_the_kernel(self, window):
        p = window.poset
        mobius = mobius_function(p)
        mobius._memo.clear()
        assert support_census(p, mobius, p.bottom(), window).members
        assert support_census(p, invert(zeta_function(p)), p.bottom(), window).members
        assert mobius._memo == {}


class TestPairSearch:
    def test_chain_two_element_window(self):
        result = finite_support_pair_search(CHAIN, Window(CHAIN, 2), Window(CHAIN, 4))
        assert result.nullspace_dimension == 1
        f, g = result.candidate
        assert dict(f.items()) == {1: GaussianRational(1), 2: GaussianRational(-1)}
        assert dict(g.items()) == {1: GaussianRational(1)}
        assert result.caveat == "verified only on shell"

    def test_chain_dimension_grows_with_window(self):
        # Shell equations collapse to "entries sum to zero".
        for k in range(2, 11):
            result = finite_support_pair_search(
                CHAIN, Window(CHAIN, k), Window(CHAIN, 2 * k)
            )
            assert result.nullspace_dimension == k - 1

    def test_divisibility_divisor_window_is_rigid(self):
        window = Window(DIV, 6, divisor_closure=True)
        result = finite_support_pair_search(DIV, window, Window(DIV, 12))
        assert result.nullspace_dimension == 0
        assert result.candidate is None

    def test_subsets_window_is_rigid(self):
        result = finite_support_pair_search(SUBSETS, Window(SUBSETS, 1), Window(SUBSETS, 2))
        assert result.nullspace_dimension == 0
        assert result.candidate is None

    def test_windows_must_nest_strictly(self):
        with pytest.raises(WindowNotNested):
            finite_support_pair_search(CHAIN, Window(CHAIN, 5), Window(CHAIN, 5))
        with pytest.raises(WindowNotNested):
            finite_support_pair_search(CHAIN, Window(CHAIN, 6), Window(CHAIN, 5))

    def test_matrix_cells_are_capped(self, monkeypatch):
        # Window 10 and shell 20 give a 10 x 10 matrix: 100 cells.
        calls = []

        def rule(x, y):
            calls.append((x, y))
            return 1

        beta = custom_function(CHAIN, rule)
        window, shell = Window(CHAIN, 10), Window(CHAIN, 20)
        monkeypatch.setattr(posets, "DEFAULT_ELEMENT_CAP", 100)
        result = finite_support_pair_search(CHAIN, window, shell, beta=beta)
        assert result.nullspace_dimension == 9
        calls.clear()
        monkeypatch.setattr(posets, "DEFAULT_ELEMENT_CAP", 99)
        with pytest.raises(BoundTooLarge, match="100 cells exceeds cap 99"):
            finite_support_pair_search(CHAIN, window, shell, beta=beta)
        assert calls == []

    def test_kernel_basis_is_capped(self, monkeypatch):
        # Window N and shell N + 1 on the chain: one equation, so N - 1
        # basis vectors of N cells, refused before any cell is built,
        # of the basis or of the candidate.
        result = finite_support_pair_search(CHAIN, Window(CHAIN, 1024), Window(CHAIN, 1025))
        assert result.nullspace_dimension == 1023
        monkeypatch.setattr(linalg, "_cell", None)
        monkeypatch.setattr(linalg, "_primitive_vector", None)
        with pytest.raises(BoundTooLarge, match="^kernel basis of 1049600 cells exceeds cap 1048576$"):
            finite_support_pair_search(CHAIN, Window(CHAIN, 1025), Window(CHAIN, 1026))

    @pytest.mark.parametrize(
        "window, shell, found",
        [(Window(CHAIN, 2), Window(CHAIN, 4), True), (Window(SUBSETS, 1), Window(SUBSETS, 2), False)],
    )
    def test_each_window_is_enumerated_once(self, window, shell, found, monkeypatch):
        # The candidate's transform is materialized on the shell already listed.
        calls = []

        def spy(w):
            calls.append(w)
            return enumerate_window(w)

        for module in (lab, functions):
            monkeypatch.setattr(module, "enumerate_window", spy)
        result = finite_support_pair_search(window.poset, window, shell)
        assert (result.candidate is not None) is found
        assert calls == [window, shell]

    def test_candidate_transform_vanishes_on_shell(self):
        for k in range(3, 7):
            window, shell = Window(CHAIN, k), Window(CHAIN, 2 * k)
            result = finite_support_pair_search(CHAIN, window, shell)
            f, g = result.candidate
            refreshed = materialize(zeta_transform(f), shell)
            assert refreshed == g
            window_set = set(enumerate_window(window))
            for y in enumerate_window(shell):
                if y not in window_set:
                    assert refreshed[y] == 0

    def test_candidates_lie_in_their_own_nullspace(self):
        result = finite_support_pair_search(CHAIN, Window(CHAIN, 6), Window(CHAIN, 12))
        f, _ = result.candidate
        assert result.vector_in_nullspace(f)
        alien = FiniteSupportFunction(CHAIN, {1: 1})
        assert not result.vector_in_nullspace(alien)

    def test_undersized_shell_candidate_dies_when_doubled(self):
        window = Window(DIV, 6, divisor_closure=True)
        undersized = finite_support_pair_search(DIV, window, Window(DIV, 7))
        assert undersized.nullspace_dimension > 0
        f, g = undersized.candidate
        shell_set = set(enumerate_window(Window(DIV, 7)))
        assert all(y in shell_set for y in g.support())
        doubled = finite_support_pair_search(DIV, window, Window(DIV, 14))
        assert doubled.nullspace_dimension == 0
        assert not doubled.vector_in_nullspace(f)

    def test_random_support_vectors_in_kernel_transform_to_window_support(self):
        # Soundness cross-check: any kernel member's transform vanishes
        # outside the window.
        result = finite_support_pair_search(CHAIN, Window(CHAIN, 5), Window(CHAIN, 10))
        rng = random.Random(3)
        for vector in nullspace(result.rows, len(result.unknowns)):
            f = FiniteSupportFunction(CHAIN, zip(result.unknowns, vector))
            g = materialize(zeta_transform(f), Window(CHAIN, 10))
            assert set(g.support()) <= set(result.unknowns)
            scaled = rng.randint(2, 5) * f
            assert result.vector_in_nullspace(scaled)


    @pytest.mark.parametrize("bound, shell_bound", [(5, 7), (10, 11)])
    @pytest.mark.parametrize("beta", ["zeta", "mobius"])
    def test_full_rank_subsets_searches_eliminate_nothing(self, bound, shell_bound, beta, monkeypatch):
        # Each subset T of the window has the row of T + {bound + 1},
        # whose largest column is T: the certificate proves full rank.
        forward = []
        original = linalg._forward
        monkeypatch.setattr(linalg, "_forward", lambda rows: forward.append(rows) or original(rows))
        b = mobius_function(SUBSETS) if beta == "mobius" else None
        result = finite_support_pair_search(SUBSETS, Window(SUBSETS, bound), Window(SUBSETS, shell_bound), beta=b)
        assert (result.nullspace_dimension, result.candidate, forward) == (0, None, [])

    def test_divisibility_search_clears_in_the_forward_pass_only(self, monkeypatch):
        # Divisibility 64/128, rank 50: the rank and the candidate need
        # only the forward pass's 290 clears and one triangular solve.
        cleared = []
        original = linalg._clear
        monkeypatch.setattr(linalg, "_clear", lambda *args: cleared.append(args[2]) or original(*args))
        result = finite_support_pair_search(DIV, Window(DIV, 64), Window(DIV, 128))
        assert result.nullspace_dimension == 14
        assert len(cleared) == 290
        f, _ = result.candidate
        expected = primitive_integer_vector(nullspace(result.rows, len(result.unknowns))[0])
        assert dict(f.items()) == {x: v for x, v in zip(result.unknowns, expected) if v}

    def test_mobius_rows_solve_one_column_each(self, monkeypatch):
        # Chain 300/600: one column solve down ideal(y) per shell row, and
        # none is kept; each cell would solve a row over [x, y] instead.
        p = posets.ChainPoset()
        column_flags = []
        original = IntervalFunction._solve

        def counted(self, x, y, column):
            column_flags.append(column)
            return original(self, x, y, column)

        monkeypatch.setattr(IntervalFunction, "_solve", counted)
        mobius = mobius_function(p)
        result = finite_support_pair_search(p, Window(p, 300), Window(p, 600), beta=mobius)
        assert result.nullspace_dimension == 299
        assert column_flags == [True] * 300
        assert (mobius._columns, mobius._memo) == ({}, {})

    def test_gaussian_beta_kernel_matches_sympy(self):
        """A Gaussian-valued beta: the basis is sympy's nullspace of the
        dense shell matrix, and the candidate is its first vector made
        primitive, whose transform vanishes on the shell outside the window."""

        def rule(x, y):
            return 1 if x == y else GaussianRational(x % 3 - 1, 1 + y % 2)

        beta = custom_function(DIV, rule)
        window, shell = Window(DIV, 8), Window(DIV, 14)
        result = finite_support_pair_search(DIV, window, shell, beta=beta)
        unknowns = result.unknowns
        equations = [y for y in enumerate_window(shell) if y not in set(unknowns)]
        matrix = sympy.Matrix(
            [[_to_sympy(rule(x, y)) if y % x == 0 else 0 for x in unknowns] for y in equations]
        )
        expected = [[_from_sympy(v) for v in vector] for vector in matrix.nullspace()]
        assert expected and nullspace(result.rows, len(unknowns)) == expected
        f, g = result.candidate
        primitive = primitive_integer_vector(expected[0])
        assert dict(f.items()) == {x: v for x, v in zip(unknowns, primitive) if v}
        assert any(v.imag for _, v in f.items())
        assert all(g[y] == 0 for y in equations)

class TestConjectureExperiment:
    def test_chain_mobius_zeta(self):
        report = conjecture_experiment(
            CHAIN,
            mobius_function(CHAIN),
            zeta_function(CHAIN),
            Window(CHAIN, 5),
            Window(CHAIN, 10),
            [1],
        )
        x, alpha_census, beta_census = report.censuses[0]
        assert x == 1
        assert alpha_census.members == [1, 2]
        assert alpha_census.verdict == "finite-certified"
        assert len(beta_census.members) == 10
        assert report.pair_search.nullspace_dimension == 4

    def test_divisibility_mobius_zeta(self):
        report = conjecture_experiment(
            DIV,
            mobius_function(DIV),
            zeta_function(DIV),
            Window(DIV, 6, divisor_closure=True),
            Window(DIV, 12),
            [1],
        )
        _, alpha_census, _ = report.censuses[0]
        assert alpha_census.verdict == "infinite-certified"
        assert report.pair_search.candidate is None

    def test_delta_delta_pair(self):
        report = conjecture_experiment(
            CHAIN,
            delta_function(CHAIN),
            delta_function(CHAIN),
            Window(CHAIN, 4),
            Window(CHAIN, 8),
            [1, 3],
        )
        for x, alpha_census, beta_census in report.censuses:
            assert alpha_census.members == [x]
            assert beta_census.members == [x]
        # The delta-transform of anything supported in the window
        # already vanishes outside it, so every vector is in the kernel.
        assert report.pair_search.nullspace_dimension == 4

    def test_non_inverse_pair_rejected(self):
        with pytest.raises(NotInverses):
            conjecture_experiment(
                CHAIN,
                zeta_function(CHAIN),
                zeta_function(CHAIN),
                Window(CHAIN, 4),
                Window(CHAIN, 8),
                [1],
            )

    def test_inverse_check_evaluates_no_delta_function(self, monkeypatch):
        # Zeta powers are decided from the powers alone, with no value,
        # order test or pass; a custom pair is checked by convolutions,
        # which read no delta.
        kinds = []
        calls = []
        for name in ("_evaluate_canonical", "_convolution"):

            def spy(self, x, y, compute=getattr(IntervalFunction, name)):
                kinds.append(self.kind)
                return compute(self, x, y)

            monkeypatch.setattr(IntervalFunction, name, spy)
        monkeypatch.setattr(functions, "_coordinatewise", lambda *args: calls.append("_coordinatewise"))
        shells = [
            Window(CHAIN, 8),
            Window(DIV, 12),
            Window(DIV, 60, divisor_closure=True),
            Window(MULTISETS, 12),
            Window(SUBSETS, 3),
            Window(random_explicit_poset(random.Random(7), 12)),
        ]
        for shell in shells:
            p = shell.poset
            elements = enumerate_window(shell)
            with pytest.MonkeyPatch.context() as patch:
                for name in ("_leq", "window_passes"):
                    patch.setattr(type(p), name, lambda *args, name=name: calls.append(name))
                lab._check_inverses(p, mobius_function(p), zeta_function(p), elements)
                lab._check_inverses(p, zeta_function(p), invert(zeta_function(p)), elements)
                with pytest.raises(NotInverses) as info:
                    lab._check_inverses(p, zeta_function(p), zeta_function(p), elements)
            first, second = map(p.format_element, elements[:2])
            assert str(info.value) == f"(a*b)({first}, {second}) != delta"
            assert kinds == [] and calls == []
        c = random_interval_function(random.Random(4), CHAIN, list(range(1, 9)))
        lab._check_inverses(CHAIN, c, invert(c), list(range(1, 9)))
        assert kinds and "delta" not in kinds

    def test_inverse_check_memoises_no_product_value(self, monkeypatch):
        products = []

        def capture(a, b):
            products.append(convolve(a, b))
            return products[-1]

        monkeypatch.setattr(lab, "convolve", capture)
        p = get_poset("chain")
        shell = list(range(1, 9))
        mobius = invert(zeta_function(p))
        lab._check_inverses(p, mobius, zeta_function(p), shell)
        assert products == [] and mobius._memo == {} and mobius._columns == {}
        c = random_interval_function(random.Random(4), p, shell)
        lab._check_inverses(p, c, invert(c), shell)
        assert len(products) == 1 and products[0]._memo == {}

    def test_inverse_check_pairs_are_capped(self, monkeypatch):
        # A 13-element shell has 13 * 14 / 2 = 91 pairs to compare with delta.
        args = (CHAIN, mobius_function(CHAIN), zeta_function(CHAIN), Window(CHAIN, 5), Window(CHAIN, 13), [1])
        monkeypatch.setattr(posets, "DEFAULT_ELEMENT_CAP", 91)
        assert conjecture_experiment(*args).pair_search.nullspace_dimension == 4
        monkeypatch.setattr(posets, "DEFAULT_ELEMENT_CAP", 90)
        with pytest.raises(BoundTooLarge, match="91 element pairs exceeds cap 90"):
            conjecture_experiment(*args)

    def test_json_report_shape(self):
        report = conjecture_experiment(
            CHAIN,
            mobius_function(CHAIN),
            zeta_function(CHAIN),
            Window(CHAIN, 4),
            Window(CHAIN, 8),
            [1],
        )
        doc = report.to_json_dict()
        assert doc["alpha"] == "mobius"
        assert doc["beta"] == "zeta"
        assert doc["censuses"][0]["x"] == "1"
        assert doc["pair_search"]["nullspace_dimension"] == 3
        assert doc["pair_search"]["caveat"] == "verified only on shell"


def pairwise_check(p, a, b, shell_elements):
    """The defining inverse-pair check: (a*b)(x, y) against delta on
    every pair x <= y of the shell, in canonical order of x, then of y."""
    product = convolve(a, b)
    for i, x in enumerate(shell_elements):
        for y in shell_elements[i:]:
            if p._leq(x, y) and product.evaluate(x, y) != GaussianRational(1 if x == y else 0):
                raise NotInverses(f"(a*b)({p.format_element(x)}, {p.format_element(y)}) != delta")


def conjecture_windows(family, rng):
    """A poset, a window, a shell strictly containing it, and one or two
    shell elements to sample."""
    if family == "explicit":
        p = random_explicit_poset(rng, rng.randint(2, 8))
        w = shell = Window(p)
    elif family == "divisors":
        p = DIV
        n = math.prod(rng.choice([2, 3, 5, 7]) ** rng.randint(0, 2) for _ in range(3))
        while n == 1:
            n = rng.choice([2, 3, 5, 7])
        d = rng.choice(divisors_of(n)[:-1])
        w, shell = Window(p, d, divisor_closure=True), Window(p, n, divisor_closure=True)
    else:
        p = {"divisibility": DIV, "chain": CHAIN, "subsets": SUBSETS, "multisets": MULTISETS}[family]
        top = rng.randint(2, 4) if family == "subsets" else rng.randint(2, 36)
        w, shell = Window(p, rng.randint(1 if family != "subsets" else 0, top - 1)), Window(p, top)
    elements = enumerate_window(shell)
    return p, w, shell, rng.sample(elements, min(len(elements), rng.randint(1, 2)))


def divisors_of(n):
    return [d for d in range(1, n + 1) if n % d == 0]


EXPLICIT_CHAIN = load_explicit_poset(
    {"elements": [f"c{i:03d}" for i in range(200)], "covers": [[f"c{i:03d}", f"c{i + 1:03d}"] for i in range(199)]}
)

PAIR_KINDS = ["delta", "zeta", "mobius", "inverse of zeta", "custom", "inverse of custom", "inverse of a zero diagonal"]


def pair_function(p, kind, c, zero):
    """A new interval function of ``kind``; the custom rules c and
    ``zero`` (c with one diagonal entry of the shell set to 0) are
    shared, so that (custom, inverse of custom) is an inverse pair."""
    if kind == "delta":
        return delta_function(p)
    if kind == "zeta":
        return zeta_function(p)
    if kind == "mobius":
        return mobius_function(p)
    if kind == "inverse of zeta":
        return invert(zeta_function(p))
    if kind == "custom":
        return c
    return invert(c if kind == "inverse of custom" else zero)


def report_or_error(*args):
    try:
        return conjecture_experiment(*args).to_json_dict()
    except PosetLabError as error:
        return type(error), str(error)


def pair_search_windows(family, rng):
    """A poset, the unknowns of a window and the elements of a shell that
    contains it; on an explicit poset the window is the down-set of a
    random sample of at least one element and the shell is the whole
    poset. Like every window, the unknowns start at the bottom."""
    if family == "explicit":
        p = random_explicit_poset(rng, rng.randint(2, 10))
        shell = p.elements()
        below = {x for top in rng.sample(shell, rng.randint(1, len(shell))) for x in p.ideal(top)}
        unknowns = [x for x in shell if x in below]
    else:
        p, w, shell, _ = conjecture_windows(family, rng)
        unknowns, shell = enumerate_window(w), enumerate_window(shell)
    assert unknowns[0] == p.bottom()
    return p, unknowns, shell


def dense_pair_search_rows(p, unknowns, shell_elements, beta):
    """The pair-search matrix as the order test of every (shell - window)
    x window cell builds it, zeros included."""
    window = set(unknowns)
    return [
        [beta._evaluate_canonical(x, y) if p._leq(x, y) else 0 for x in unknowns]
        for y in shell_elements
        if y not in window
    ]


def typed_cells_or_error(build, *args):
    """The cells of each sparse row, or the nonzero cells of each dense
    row, as (column, type, value); or the error."""
    try:
        rows = build(*args)
    except PosetLabError as error:
        return type(error), str(error)
    return [
        [(c, type(v), v) for c, v in row.items()] if isinstance(row, dict)
        else [(c, type(v), v) for c, v in enumerate(row) if v]
        for row in rows
    ]


class TestPairSearchRows:
    """The pair search builds each row as sparse ``{column: value}``
    cells, from a walk of ideal(y)'s grid or from an order test per
    unknown, and the elimination takes each distinct row once."""

    # Deep: gates the sparse pair-search rows, errors included.
    @pytest.mark.deep
    @settings(max_examples=max(150, settings.default.max_examples), deadline=None)
    @given(
        family=st.sampled_from(["divisibility", "divisors", "chain", "subsets", "multisets", "explicit"]),
        kind=st.sampled_from(["delta", "zeta", "mobius", "custom", "inverse of a zero diagonal"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sparse_rows_equal_the_dense_build(self, family, kind, seed):
        rng = random.Random(seed)
        p, unknowns, shell = pair_search_windows(family, rng)
        c = random_interval_function(rng, p, shell)
        zeroed = rng.choice(shell)
        zero = custom_function(p, lambda x, y: 0 if x == y == zeroed else c._rule(x, y))
        # Each build gets its own inverse, so neither reads the other's memo.
        sparse, dense = (
            typed_cells_or_error(build, p, unknowns, shell, pair_function(p, kind, c, zero))
            for build in (lab._pair_search_rows, dense_pair_search_rows)
        )
        assert sparse == dense

    @pytest.mark.parametrize("family", ["divisibility", "divisors", "chain", "subsets", "multisets", "explicit"])
    def test_zeta_rows_evaluate_nothing(self, family, monkeypatch):
        # Zeta rows are built as {c: 1}; the dense build, which evaluates
        # every cell, stays their oracle.
        p, unknowns, shell = pair_search_windows(family, random.Random(family))
        calls = []
        original = IntervalFunction._evaluate_canonical
        monkeypatch.setattr(
            IntervalFunction, "_evaluate_canonical", lambda self, x, y: calls.append((x, y)) or original(self, x, y)
        )
        rows = lab._pair_search_rows(p, unknowns, shell, zeta_function(p))
        assert calls == []
        assert typed_cells_or_error(lambda: rows) == typed_cells_or_error(
            dense_pair_search_rows, p, unknowns, shell, zeta_function(p)
        )
        assert calls

    def test_chain_rows_are_eliminated_once(self, monkeypatch):
        # Each of the 80 shell elements outside the window sits above the
        # whole window: one row, 80 times.
        converted = []
        original = linalg._sparse_row
        monkeypatch.setattr(linalg, "_sparse_row", lambda row: converted.append(row) or original(row))
        unknowns, shell = enumerate_window(Window(CHAIN, 80)), enumerate_window(Window(CHAIN, 160))
        rows = lab._pair_search_rows(CHAIN, unknowns, shell, zeta_function(CHAIN))
        assert len(rows) == 80
        assert linalg._forward(rows)[1] == [0]
        assert converted == [dict.fromkeys(range(80), 1)]

    @staticmethod
    def count_walks_and_tests(monkeypatch, p):
        """The y of every ``_interval`` and of every ``_leq`` call on p's
        class, from here on."""
        walked, tested = [], []
        for name, calls in (("_interval", walked), ("_leq", tested)):
            original = getattr(type(p), name)

            def counted(self, x, y, original=original, calls=calls):
                calls.append(y)
                return original(self, x, y)

            monkeypatch.setattr(type(p), name, counted)
        return walked, tested

    def test_rows_far_above_a_small_window_test_each_unknown(self, monkeypatch):
        # Window {1, 2} in shell 1..1400: walking every ideal would visit
        # 980,000 elements. The chain has no grid, so no row walks.
        walked, tested = self.count_walks_and_tests(monkeypatch, CHAIN)
        rows = lab._pair_search_rows(CHAIN, [1, 2], list(range(1, 1401)), zeta_function(CHAIN))
        assert rows == [{0: 1, 1: 1}] * 1398
        assert (walked, len(tested)) == ([], 2 * 1398)

    def test_explicit_rows_test_each_unknown(self, monkeypatch):
        # An explicit interval scans the whole poset, so no row walks one.
        shell = EXPLICIT_CHAIN.elements()
        beta = zeta_function(EXPLICIT_CHAIN)
        walked, tested = self.count_walks_and_tests(monkeypatch, EXPLICIT_CHAIN)
        rows = lab._pair_search_rows(EXPLICIT_CHAIN, shell[:2], shell, beta)
        assert rows == [{0: 1, 1: 1}] * 198
        assert (walked, len(tested)) == ([], 2 * 198)

    def test_subsets_at_the_cell_cap_build_without_order_tests(self, monkeypatch):
        # 1024 x 1024 cells counted dense, of which 3**10 are nonzero; the
        # dense build made 2**20 order tests.
        calls = []
        original = type(SUBSETS)._leq

        def counted(self, x, y):
            calls.append(1)
            return original(self, x, y)

        monkeypatch.setattr(type(SUBSETS), "_leq", counted)
        unknowns, shell = enumerate_window(Window(SUBSETS, 10)), enumerate_window(Window(SUBSETS, 11))
        rows = lab._pair_search_rows(SUBSETS, unknowns, shell, zeta_function(SUBSETS))
        assert (len(rows), sum(map(len, rows)), len(calls)) == (1024, 3**10, 0)


class TestInverseRowsFromColumns:
    """An inverse beta's rows come from its columns alone: where a column
    meets a zero diagonal, the search raises the dense build's error,
    solves no row of beta, and leaves beta's memos as it found them."""

    # Custom beta of 1 everywhere but two zero diagonal entries, both in
    # the ideal of the first row that raises; the element named is the
    # first of them in canonical order, not the first a column meets.
    @pytest.mark.parametrize(
        "window, shell, zeroed, named",
        [
            (Window(DIV, 4), Window(DIV, 12), [2, 6], 2),
            (Window(DIV, 6, divisor_closure=True), Window(DIV, 12, divisor_closure=True), [3, 12], 3),
            (Window(CHAIN, 4), Window(CHAIN, 8), [2, 5], 2),
            (Window(SUBSETS, 2), Window(SUBSETS, 3), [(2,), (2, 3)], (2,)),
            (Window(MULTISETS, 4), Window(MULTISETS, 12), [((3, 1),), ((2, 1), (3, 1))], ((3, 1),)),
        ],
        ids=["divisibility", "divisors", "chain", "subsets", "multisets"],
    )
    def test_a_zero_diagonal_raises_the_dense_error(self, window, shell, zeroed, named, monkeypatch):
        p = window.poset
        unknowns, shell_elements = enumerate_window(window), enumerate_window(shell)

        def beta():
            return invert(custom_function(p, lambda x, y: 0 if x == y and x in zeroed else 1))

        dense = typed_cells_or_error(dense_pair_search_rows, p, unknowns, shell_elements, beta())
        assert dense == (NotInvertible, f"zero diagonal entry at {named!r}")
        sparse_beta = beta()
        # A column solved before the search stays; those it solves go.
        sparse_beta._column(p.bottom(), p.bottom())
        columns = {y: dict(line) for y, line in sparse_beta._columns.items()}
        solved = []
        original = IntervalFunction._inverse_row
        monkeypatch.setattr(
            IntervalFunction, "_inverse_row", lambda self, x, y: solved.append((x, y)) or original(self, x, y)
        )
        sparse = typed_cells_or_error(lab._pair_search_rows, p, unknowns, shell_elements, sparse_beta)
        assert sparse == dense
        assert (solved, sparse_beta._memo, sparse_beta._columns) == ([], {}, columns)


class TestInverseCheck:
    """Two zeta powers are decided from their sum, on every poset: a*b is
    zeta to that power, which is delta only for a sum of 0 and otherwise
    differs from it first at the shell's bottom and its first atom. Every
    other pair is checked by the defining convolutions."""

    # Deep: gates deciding a pair of zeta powers from the powers.
    @pytest.mark.deep
    @settings(max_examples=max(150, settings.default.max_examples), deadline=None)
    @given(
        family=st.sampled_from(["divisibility", "divisors", "chain", "subsets", "multisets", "explicit"]),
        left=st.sampled_from(PAIR_KINDS),
        right=st.sampled_from(PAIR_KINDS),
        seed=st.integers(0, 2**32 - 1),
    )
    # Pair-search rows here share Gaussian factors such as 1 + i; divided
    # by their integer content alone, entries reached 343,370 bits.
    @example(family="chain", left="custom", right="inverse of custom", seed=136)
    def test_conjecture_check_equals_the_pairwise_loop(self, family, left, right, seed):
        rng = random.Random(seed)
        p, w, shell, sample = conjecture_windows(family, rng)
        elements = enumerate_window(shell)
        c = random_interval_function(rng, p, elements)
        zeroed = rng.choice(elements)
        zero = custom_function(p, lambda x, y: 0 if x == y == zeroed else c._rule(x, y))
        a, b = pair_function(p, left, c, zero), pair_function(p, right, c, zero)
        result = report_or_error(p, a, b, w, shell, sample)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lab, "_check_inverses", pairwise_check)
            expected = report_or_error(p, a, b, w, shell, sample)
        assert result == expected

    @pytest.mark.parametrize(
        "p, bound, pair, first",
        [
            (CHAIN, 400, ("zeta", "zeta"), "(1, 2)"),
            (CHAIN, 400, ("mobius", "mobius"), "(1, 2)"),
            (DIV, 400, ("mobius", "delta"), "(1, 2)"),
            (SUBSETS, 7, ("zeta", "inverse of zeta"), None),
            (MULTISETS, 200, ("inverse of zeta", "zeta"), None),
            (EXPLICIT_CHAIN, None, ("zeta", "zeta"), "(c000, c001)"),
            (EXPLICIT_CHAIN, None, ("mobius", "zeta"), None),
        ],
        ids=repr,
    )
    def test_large_shells(self, p, bound, pair, first):
        # A 400-element chain holds 80,200 comparable pairs; the defining
        # sums over them take about n**3 / 6 steps, and the powers none.
        a, b = (pair_function(p, kind, None, None) for kind in pair)
        elements = enumerate_window(Window(p, bound))
        if first is None:
            lab._check_inverses(p, a, b, elements)
        else:
            with pytest.raises(NotInverses, match=re.escape(f"(a*b){first} != delta")):
                lab._check_inverses(p, a, b, elements)

    @pytest.mark.parametrize(
        "p, bound",
        [(CHAIN, 400), (DIV, 400), (MULTISETS, 200), (random_explicit_poset(random.Random(7), 12), None)],
        ids=["chain", "divisibility", "multisets", "explicit"],
    )
    @pytest.mark.parametrize("inverted", [(), (0,), (1,), (0, 1)], ids=repr)
    def test_delta_pairs_build_no_convolution(self, p, bound, inverted, monkeypatch):
        # Delta and its inverse have power 0, on any poset: their product
        # is delta. With no convolve, a defining sum would raise.
        monkeypatch.setattr(lab, "convolve", None)
        a, b = (invert(delta_function(p)) if i in inverted else delta_function(p) for i in range(2))
        lab._check_inverses(p, a, b, enumerate_window(Window(p, bound)))


class TestCertificateSerialisation:
    def test_json_fields(self):
        cert = next(iter(witnesses(DIV, 6, [1, 2, 3, 6], 1)))
        doc = cert.to_json_dict(DIV)
        assert doc == {
            "y": "6",
            "avoid_set": ["1", "2", "3", "6"],
            "z": "30",
            "cond_disjoint": True,
            "cond_factorize": True,
            "cond_nonzero": True,
            "mu_yz": "-1",
            "predicted_fz": None,
            "observed_fz": None,
        }


class TestPosetMismatch:
    """Every lab entry point refuses arguments from another poset."""

    def test_verify_function_on_another_poset(self):
        g = FiniteSupportFunction(CHAIN, {1: 1})
        with pytest.raises(PosetMismatch, match="function lives on a different poset"):
            verify_uncertainty_witnesses(DIV, g, 1)

    def test_census_window_on_another_poset(self):
        with pytest.raises(PosetMismatch, match="census arguments live on different posets"):
            support_census(DIV, mobius_function(DIV), 1, Window(CHAIN, 4))

    def test_pair_search_window_on_another_poset(self):
        with pytest.raises(PosetMismatch, match="windows live on a different poset"):
            finite_support_pair_search(DIV, Window(DIV, 4), Window(CHAIN, 8))

    def test_pair_search_beta_on_another_poset(self):
        with pytest.raises(PosetMismatch, match="transform function lives on a different poset"):
            finite_support_pair_search(DIV, Window(DIV, 4), Window(DIV, 8), beta=zeta_function(CHAIN))

    def test_conjecture_functions_on_another_poset(self):
        with pytest.raises(PosetMismatch, match="interval functions live on a different poset"):
            conjecture_experiment(
                DIV, mobius_function(DIV), zeta_function(CHAIN), Window(DIV, 4), Window(DIV, 8), [1]
            )

    # A zeta pair, refused by the inverse check, and an inverse pair of
    # custom functions, which pass it.
    ONES = custom_function(DIV, lambda x, y: 1)

    @pytest.mark.parametrize(
        "a, b, window, shell",
        [
            (zeta_function(DIV), zeta_function(DIV), Window(DIV, 4), Window(SUBSETS, 3)),
            (ONES, invert(ONES), Window(DIV, 4), Window(SUBSETS, 3)),
            (zeta_function(DIV), zeta_function(DIV), Window(SUBSETS, 2), Window(DIV, 8)),
        ],
        ids=["zeta shell", "custom shell", "zeta window"],
    )
    def test_conjecture_windows_on_another_poset(self, a, b, window, shell):
        with pytest.raises(PosetMismatch, match="windows live on a different poset"):
            conjecture_experiment(DIV, a, b, window, shell, [1])

    @pytest.mark.parametrize("f", [FiniteSupportFunction(CHAIN, {1: 1}), FiniteSupportFunction(SUBSETS, {(1,): 1})],
                             ids=["chain", "subsets"])
    def test_nullspace_test_of_a_function_on_another_poset(self, f):
        result = finite_support_pair_search(DIV, Window(DIV, 4), Window(DIV, 8))
        with pytest.raises(PosetMismatch, match="function lives on a different poset"):
            result.vector_in_nullspace(f)


class TestOutsideWindow:
    """The kernel test refuses a function supported outside the window,
    at its first such element in canonical order."""

    # f = {7: 1} is 0 at every unknown, so every row vanishes on it, but
    # its transform is 1 at 7, inside the shell.
    @pytest.mark.parametrize(
        "entries, named", [({7: 1}, 7), ({1: 1, 6: 2, 5: -1}, 5)], ids=["outside", "mixed"]
    )
    def test_nullspace_test_of_a_function_outside_the_window(self, entries, named):
        result = finite_support_pair_search(DIV, Window(DIV, 4), Window(DIV, 8))
        message = rf"^{named} is outside the window divisibility\[bound=4\]$"
        with pytest.raises(ElementOutsideWindow, match=message):
            result.vector_in_nullspace(FiniteSupportFunction(DIV, entries))
