"""The immutable result records: ``Window`` and the ``lab`` records.

Expected reprs and messages are literal, as the frozen dataclasses these
records replace printed them.
"""

import copy

import pytest

from posetlab import (
    GaussianRational,
    InvalidInput,
    PairSearchResult,
    SupportCensus,
    Window,
    WitnessCertificate,
    finite_support_pair_search,
    get_poset,
    witnesses,
)

divisibility = get_poset("divisibility")


def certificate():
    return WitnessCertificate(2, (3,), 10, True, True, True, GaussianRational(-1))


class TestRepr:
    def test_window(self):
        assert repr(Window(divisibility, 12)) == (
            "Window(poset=Poset(divisibility), bound=12, divisor_closure=False)"
        )
        assert repr(Window(divisibility, 12, divisor_closure=True)) == (
            "Window(poset=Poset(divisibility), bound=12, divisor_closure=True)"
        )

    def test_pair_search_result_hides_nullspace_basis(self):
        result = finite_support_pair_search(divisibility, Window(divisibility, 4), Window(divisibility, 8))
        assert repr(result) == (
            "PairSearchResult(window=Window(poset=Poset(divisibility), bound=4, divisor_closure=False), "
            "shell=Window(poset=Poset(divisibility), bound=8, divisor_closure=False), "
            "nullspace_dimension=1, unknowns=[1, 2, 3, 4], "
            "candidate=(FiniteSupportFunction(divisibility; 2: 1, 3: -1, 4: -1), "
            "FiniteSupportFunction(divisibility; 2: 1, 3: -1)), caveat='verified only on shell')"
        )

    def test_witness_certificate(self):
        cert = next(witnesses(divisibility, 2, [3], 1))
        assert repr(cert) == (
            "WitnessCertificate(y=2, avoid_set=(3,), z=10, cond_disjoint=True, "
            "cond_factorize=True, cond_nonzero=True, mu_yz=GaussianRational('-1'), "
            "predicted_fz=None, observed_fz=None)"
        )
        assert cert == certificate()


class TestEqualityAndHash:
    def test_equal_windows(self):
        a, b = Window(divisibility, 12), Window(get_poset("divisibility"), 12)
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash((divisibility, 12, False))

    def test_unequal_windows(self):
        a = Window(divisibility, 12)
        assert a != Window(divisibility, 13)
        assert a != Window(divisibility, 12, True)
        assert a != Window(get_poset("chain"), 12)
        assert hash(Window(divisibility, 12, True)) == hash((divisibility, 12, True))

    def test_no_equality_across_classes(self):
        window = Window(divisibility, 12)
        assert window != (divisibility, 12, False)
        assert window.__eq__((divisibility, 12, False)) is NotImplemented
        assert certificate() != certificate()._values()

    def test_records_holding_lists_are_unhashable(self):
        census = SupportCensus(1, "mobius", Window(divisibility, 6), [1, 2], "v", "n")
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            hash(census)

    def test_copies_are_equal(self):
        window = Window(divisibility, 12)
        assert copy.copy(window) == window
        assert copy.deepcopy(window) == window


class TestImmutability:
    def test_assignment(self):
        window = Window(divisibility, 12)
        with pytest.raises(AttributeError, match="cannot assign to field 'bound'"):
            window.bound = 13
        with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
            window.other = 1
        assert window.bound == 12

    def test_deletion(self):
        window = Window(divisibility, 12)
        with pytest.raises(AttributeError, match="cannot delete field 'bound'"):
            del window.bound
        assert window.bound == 12


class TestConstruction:
    def test_defaults(self):
        window = Window(divisibility, bound=5)
        assert (window.bound, window.divisor_closure) == (5, False)
        cert = certificate()
        assert (cert.predicted_fz, cert.observed_fz) == (None, None)
        result = PairSearchResult(Window(divisibility, 1), Window(divisibility, 2), 0, [], [])
        assert (result.candidate, result.caveat) == (None, "verified only on shell")

    def test_keywords_match_positions(self):
        assert Window(poset=divisibility, bound=6, divisor_closure=True) == Window(divisibility, 6, True)

    @pytest.mark.parametrize(
        "args,kwargs,message",
        [
            ((), {}, "Window.__init__() missing 1 required positional argument: 'poset'"),
            ((divisibility,), {"foo": 1}, "Window.__init__() got an unexpected keyword argument 'foo'"),
            (
                (divisibility, 1, False, 3),
                {},
                "Window.__init__() takes from 2 to 4 positional arguments but 5 were given",
            ),
            ((divisibility, 1), {"poset": divisibility}, "Window.__init__() got multiple values for argument 'poset'"),
        ],
    )
    def test_window_type_errors(self, args, kwargs, message):
        with pytest.raises(TypeError) as info:
            Window(*args, **kwargs)
        assert str(info.value) == message

    def test_missing_fields_are_listed(self):
        with pytest.raises(TypeError) as info:
            WitnessCertificate()
        assert str(info.value) == (
            "WitnessCertificate.__init__() missing 7 required positional arguments: 'y', "
            "'avoid_set', 'z', 'cond_disjoint', 'cond_factorize', 'cond_nonzero', and 'mu_yz'"
        )
        with pytest.raises(TypeError) as info:
            SupportCensus(1, "mobius", Window(divisibility, 6), [], "v")
        assert str(info.value) == (
            "SupportCensus.__init__() missing 1 required positional argument: 'certificate_note'"
        )

    def test_too_many_without_defaults(self):
        with pytest.raises(TypeError) as info:
            SupportCensus(1, 2, 3, 4, 5, 6, 7)
        assert str(info.value) == "SupportCensus.__init__() takes 7 positional arguments but 8 were given"


class TestReplace:
    def test_replace_changes_named_fields_only(self):
        cert = certificate()
        changed = cert._replace(mu_yz=GaussianRational(-2), observed_fz=GaussianRational(1))
        assert repr(changed) == (
            "WitnessCertificate(y=2, avoid_set=(3,), z=10, cond_disjoint=True, "
            "cond_factorize=True, cond_nonzero=True, mu_yz=GaussianRational('-2'), "
            "predicted_fz=None, observed_fz=GaussianRational('1'))"
        )
        assert cert == certificate()

    def test_replace_validates(self):
        window = Window(divisibility, 12)
        assert window._replace(bound=30) == Window(divisibility, 30)
        with pytest.raises(InvalidInput, match="divisor-closure windows exist only for divisibility"):
            window._replace(poset=get_poset("chain"), divisor_closure=True)
        with pytest.raises(TypeError, match="unexpected keyword argument 'size'"):
            window._replace(size=3)


class TestWindowValidation:
    def test_divisor_closure_only_for_divisibility(self):
        with pytest.raises(InvalidInput) as info:
            Window(get_poset("chain"), 3, True)
        assert str(info.value) == "divisor-closure windows exist only for divisibility"

    @pytest.mark.parametrize("family", ["divisibility", "chain", "subsets", "multisets"])
    def test_built_in_windows_need_a_bound(self, family):
        with pytest.raises(InvalidInput) as info:
            Window(get_poset(family))
        assert str(info.value) == f"{family} windows need a bound"
