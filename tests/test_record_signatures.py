"""Constructor signatures of the immutable records, and copy and pickle
round trips of scalars, records and the posets they hold.

The expected signatures are literal: each record's ``__init__`` takes
its fields, in ``__slots__`` order, as ordinary parameters, so
``help()`` and ``inspect.signature`` show them.
"""

import copy
import inspect
import pickle

import pytest

from posetlab import (
    ConjectureReport,
    GaussianRational,
    PairSearchResult,
    SupportCensus,
    Window,
    WitnessCertificate,
    enumerate_window,
    finite_support_pair_search,
    get_poset,
    load_explicit_poset,
    mobius_function,
    mobius_value,
    witnesses,
)

EMPTY = inspect.Parameter.empty
POSITIONAL = inspect.Parameter.POSITIONAL_OR_KEYWORD
divisibility = get_poset("divisibility")

SIGNATURES = {
    Window: [("poset", EMPTY), ("bound", None), ("divisor_closure", False)],
    WitnessCertificate: [
        ("y", EMPTY),
        ("avoid_set", EMPTY),
        ("z", EMPTY),
        ("cond_disjoint", EMPTY),
        ("cond_factorize", EMPTY),
        ("cond_nonzero", EMPTY),
        ("mu_yz", EMPTY),
        ("predicted_fz", None),
        ("observed_fz", None),
    ],
    SupportCensus: [
        ("x", EMPTY),
        ("function_name", EMPTY),
        ("window", EMPTY),
        ("members", EMPTY),
        ("verdict", EMPTY),
        ("certificate_note", EMPTY),
    ],
    PairSearchResult: [
        ("window", EMPTY),
        ("shell", EMPTY),
        ("nullspace_dimension", EMPTY),
        ("unknowns", EMPTY),
        ("rows", EMPTY),
        ("candidate", None),
        ("caveat", "verified only on shell"),
    ],
    ConjectureReport: [
        ("poset", EMPTY),
        ("alpha_name", EMPTY),
        ("beta_name", EMPTY),
        ("window", EMPTY),
        ("shell", EMPTY),
        ("censuses", EMPTY),
        ("pair_search", EMPTY),
    ],
}


@pytest.mark.parametrize("record", list(SIGNATURES), ids=lambda record: record.__name__)
class TestSignatures:
    def test_parameters(self, record):
        parameters = inspect.signature(record).parameters.values()
        expected = [(name, POSITIONAL, default) for name, default in SIGNATURES[record]]
        assert [(p.name, p.kind, p.default) for p in parameters] == expected

    def test_parameters_are_the_fields(self, record):
        assert list(inspect.signature(record).parameters) == list(record.__slots__)


def _round_trips(value):
    return [copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))]


class TestCopyAndPickle:
    def test_scalar(self):
        value = GaussianRational(1, -2)
        for twin in _round_trips(value):
            assert type(twin) is GaussianRational
            assert (twin.real, twin.imag) == (1, -2)

    def test_witness_certificate(self):
        cert = next(witnesses(divisibility, 2, [3], 1))
        cert = cert._replace(predicted_fz=GaussianRational(0, 1), observed_fz=GaussianRational(0, 1))
        for twin in _round_trips(cert):
            assert twin == cert and repr(twin) == repr(cert)

    def test_pair_search_result(self):
        # A witness check caches the poset's Mobius function first.
        next(witnesses(divisibility, 2, [3], 1))
        result = finite_support_pair_search(divisibility, Window(divisibility, 4), Window(divisibility, 8))
        assert result.candidate is not None
        for twin in _round_trips(result):
            assert repr(twin) == repr(result)
            assert twin.rows == result.rows
            f, g = twin.candidate
            assert dict(f.items()) == dict(result.candidate[0].items())
            assert dict(g.items()) == dict(result.candidate[1].items())

    @pytest.mark.parametrize("name", ["divisibility", "chain", "subsets", "multisets", "explicit"])
    def test_windows_leave_the_poset_caches_behind(self, name):
        if name == "explicit":
            p = load_explicit_poset({"elements": ["a", "b", "c"], "covers": [["a", "b"], ["a", "c"]]})
        else:
            p = get_poset(name)
        bottom, above = enumerate_window(Window(p, 4))[:2]
        assert mobius_value(p, bottom, above) == -1
        assert mobius_function(p)._column(bottom, above)[bottom] == -1
        window = Window(p, 4)
        for twin in _round_trips(window)[1:]:
            assert twin == window and twin.poset is not p
            assert "_mobius" not in vars(twin.poset)
        assert mobius_function(p)._memo and mobius_function(p)._columns
