"""CLI behaviour: output, exit codes, JSON round-trips, determinism."""

import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posetlab
import posetlab.cli as cli
import posetlab.numtheory as numtheory
import posetlab.posets as posets
from helpers import skew_witness_stream
from posetlab.cli import run


def invoke(capsys, *argv):
    status = run(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


@pytest.fixture
def poset_file(tmp_path):
    path = tmp_path / "poset.json"
    path.write_text(
        json.dumps({"elements": ["a", "b", "c"], "covers": [["a", "b"], ["b", "c"]]})
    )
    return str(path)


@pytest.fixture
def point_mass_file(tmp_path):
    path = tmp_path / "fn.json"
    path.write_text(json.dumps({"poset": "divisibility", "values": {"1": "1"}}))
    return str(path)


class TestMobiusCommand:
    def test_prints_value(self, capsys):
        status, out, err = invoke(capsys, "mobius", "--poset", "divisibility", "--x", "2", "--y", "12")
        assert (status, out, err) == (0, "1\n", "")

    def test_not_comparable_is_domain_error(self, capsys):
        status, out, err = invoke(capsys, "mobius", "--poset", "chain", "--x", "5", "--y", "3")
        assert status == 2
        assert "not comparable" in err

    def test_bad_encoding_is_usage_error(self, capsys):
        status, _, err = invoke(capsys, "mobius", "--poset", "chain", "--x", "zz", "--y", "3")
        assert status == 1
        assert "error:" in err

    def test_unknown_poset_is_usage_error(self, capsys):
        status, _, _ = invoke(capsys, "mobius", "--poset", "nope", "--x", "1", "--y", "2")
        assert status == 1

    def test_missing_required_flag_is_usage_error(self, capsys):
        status, _, _ = invoke(capsys, "mobius", "--poset", "chain", "--x", "1")
        assert status == 1

    def test_subset_encodings(self, capsys):
        status, out, _ = invoke(capsys, "mobius", "--poset", "subsets", "--x", "{}", "--y", "{1,2,3}")
        assert (status, out) == (0, "-1\n")

    def test_json_payload(self, capsys):
        status, out, _ = invoke(
            capsys, "mobius", "--poset", "divisibility", "--x", "2", "--y", "12", "--json"
        )
        assert status == 0
        assert json.loads(out) == {"poset": "divisibility", "x": "2", "y": "12", "mobius": "1"}


class TestClassicalMobius:
    def test_value(self, capsys):
        assert invoke(capsys, "classical-mobius", "--n", "6")[:2] == (0, "1\n")

    def test_invalid_input(self, capsys):
        assert invoke(capsys, "classical-mobius", "--n", "0")[0] == 1

    @pytest.mark.parametrize(
        "n,message",
        [
            ("3317044064679887385961981", "probable prime of 82 bits lies past the proven range"),
            # The 4300-digit repunit: squarefree below 1000, not a power.
            (str((10**4300 - 1) // 9), "needs more than 4194304 rho steps"),
        ],
        ids=["psi-13", "4300-digits"],
    )
    def test_past_the_proven_range_or_the_budget(self, capsys, n, message):
        status, out, err = invoke(capsys, "classical-mobius", "--n", n)
        assert (status, out) == (1, "")
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "n",
        [
            # 9 * (10**18 + 3) * (10**18 + 9): its two 19-digit primes
            # would exhaust the rho budget.
            "9000000000000000108000000000000000243",
            str(10**4300 - 1),  # 9 times the repunit above
            str(2 * (10**12 + 39) ** 2),  # a square cofactor
            str(2 * 1009**3),  # a cube cofactor
            # 1009**2 * (10**18 + 3) * (10**18 + 9): rho meets 1009 twice
            # before the two 19-digit primes would exhaust the budget.
            str(1009**2 * (10**18 + 3) * (10**18 + 9)),
            # 1009 * ((10**18 + 3) * (10**18 + 9))**2: the square of a
            # 38-digit semiprime is met once rho splits off 1009.
            str(1009 * ((10**18 + 3) * (10**18 + 9)) ** 2),
        ],
        ids=["9pq", "4300-nines", "square-cofactor", "cube-cofactor", "split-square", "power-after-split"],
    )
    def test_square_found_before_splitting(self, capsys, n):
        assert invoke(capsys, "classical-mobius", "--n", n) == (0, "0\n", "")


class TestTransforms:
    def test_transform_and_inverse_round_trip(self, capsys, tmp_path):
        doc = {"poset": "divisibility", "values": {"1": "1", "6": "-2/3"}}
        fn = tmp_path / "f.json"
        fn.write_text(json.dumps(doc))

        status, out, _ = invoke(capsys, "transform", "--fn", str(fn), "--bound", "12", "--json")
        assert status == 0
        transformed = json.loads(out)
        assert transformed["poset"] == "divisibility"

        gn = tmp_path / "g.json"
        gn.write_text(out)
        status, out, _ = invoke(capsys, "invert-transform", "--fn", str(gn), "--bound", "12", "--json")
        assert status == 0
        assert json.loads(out) == doc

    def test_human_readable_lines(self, capsys, point_mass_file):
        status, out, _ = invoke(capsys, "invert-transform", "--fn", point_mass_file, "--bound", "10")
        assert status == 0
        assert out.splitlines()[:3] == ["1 = 1", "2 = -1", "3 = -1"]

    @pytest.mark.parametrize("command", ["transform", "invert-transform"])
    @pytest.mark.parametrize(
        "document",
        [
            '{"poset": "divisibility", "values": {"6": "%s"}}' % ("7" * 5000),
            '{"poset": "divisibility", "values": {"6": %s}}' % ("7" * 5000),
        ],
        ids=["string", "number"],
    )
    def test_oversized_scalar_is_usage_error(self, capsys, tmp_path, command, document):
        fn = tmp_path / "fn.json"
        fn.write_text(document)
        status, out, err = invoke(capsys, command, "--fn", str(fn), "--bound", "12")
        assert (status, out) == (1, "")
        assert err.startswith("error:")

    def test_unprintable_result_is_usage_error(self, capsys, tmp_path):
        fn = tmp_path / "fn.json"
        values = {"1": "1/" + "7" * 3000, "2": "1/" + "7" * 2999 + "1"}
        fn.write_text(json.dumps({"poset": "divisibility", "values": values}))
        status, out, err = invoke(capsys, "transform", "--fn", str(fn), "--bound", "4")
        assert (status, out) == (1, "")
        assert "too many digits" in err

    @pytest.mark.parametrize("output", [[], ["--json"]], ids=["text", "json"])
    def test_overlong_integer_result_is_refused(self, capsys, tmp_path, output):
        # Each input has Python's largest printable digit count; their sum
        # at 2 has one digit more.
        fn = tmp_path / "fn.json"
        fn.write_text(json.dumps({"poset": "chain", "values": {"1": "9" * 4300, "2": "9" * 4300}}))
        status, out, err = invoke(capsys, "transform", "--fn", str(fn), "--bound", "2", *output)
        assert (status, out, err) == (1, "", "error: scalar has too many digits to print\n")

    def test_bound_required_for_builtin(self, capsys, point_mass_file):
        assert invoke(capsys, "transform", "--fn", point_mass_file)[0] == 1


class TestConvolve:
    def test_mobius_zeta_is_delta(self, capsys):
        status, out, _ = invoke(
            capsys,
            "convolve", "--poset", "divisibility",
            "--left", "mobius", "--right", "zeta", "--x", "1", "--y", "12",
        )
        assert (status, out) == (0, "0\n")

    def test_zeta_zeta_counts(self, capsys):
        status, out, _ = invoke(
            capsys,
            "convolve", "--poset", "chain",
            "--left", "zeta", "--right", "zeta", "--x", "1", "--y", "3",
        )
        assert (status, out) == (0, "3\n")


class TestWitnessCommands:
    def test_witness_stream(self, capsys):
        status, out, _ = invoke(
            capsys,
            "witness", "--poset", "divisibility",
            "--y", "6", "--avoid", "1,2,3,6", "--count", "3", "--json",
        )
        assert status == 0
        payload = json.loads(out)
        assert [c["z"] for c in payload["certificates"]] == ["30", "42", "66"]
        assert payload["found"] == 3

    def test_witness_avoid_with_braced_encodings(self, capsys):
        status, out, _ = invoke(
            capsys,
            "witness", "--poset", "subsets",
            "--y", "{1}", "--avoid", "{},{1}", "--count", "1", "--json",
        )
        payload = json.loads(out)
        assert (status, [c["z"] for c in payload["certificates"]]) == (0, ["{1,2}"])

    def test_witness_exhaustion_noted(self, capsys):
        status, out, _ = invoke(
            capsys,
            "witness", "--poset", "chain", "--y", "1", "--avoid", "1,2",
            "--count", "1", "--budget", "50",
        )
        assert status == 0
        assert "budget exhausted" in out

    def test_large_chain_check_reads_columns(self, capsys):
        # The one candidate z = 20001 has mu(y, z) = -1, but x = y - 1
        # breaks the factorisation, so the stream certifies nothing. Each
        # column is one linear walk down an ideal of 20000 elements.
        status, out, _ = invoke(
            capsys, "witness", "--poset", "chain", "--y", "20000", "--count", "1", "--json"
        )
        assert status == 0
        assert (json.loads(out)["found"], json.loads(out)["certificates"]) == (0, [])
        chain = posetlab.get_poset("chain")
        assert posetlab.check_witness_conditions(chain, 20000, [], 20001) == (
            True, False, True, posetlab.GaussianRational(-1),
        )

    def test_large_subsets_witness(self, capsys):
        status, out, _ = invoke(
            capsys, "witness", "--poset", "subsets", "--y", "{1,2,3,4,5,6,7,8}",
            "--count", "1", "--json",
        )
        assert status == 0
        [cert] = json.loads(out)["certificates"]
        assert (cert["z"], cert["mu_yz"]) == ("{1,2,3,4,5,6,7,8,9}", "-1")

    def test_verify(self, capsys, point_mass_file):
        status, out, _ = invoke(
            capsys, "verify", "--fn", point_mass_file, "--count", "2", "--json"
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["y"] == "1"
        assert [c["z"] for c in payload["certificates"]] == ["2", "3"]
        assert all(c["observed_fz"] == "-1" for c in payload["certificates"])

    def test_verify_conclusion_mismatch_is_domain_error(self, capsys, monkeypatch, point_mass_file):
        skew_witness_stream(monkeypatch)
        status, out, err = invoke(capsys, "verify", "--fn", point_mass_file, "--count", "1")
        assert (status, out) == (2, "")
        assert "error: witness conclusion violated" in err

    def test_verify_support_past_the_interval_cap(self, capsys, tmp_path):
        # y = 1 is read off the support: the ideal of the other support
        # element, with 2**24 divisors, is never built.
        fn = tmp_path / "fn.json"
        big = str(6 * int(_PRIMORIAL_23))
        fn.write_text(json.dumps({"poset": "divisibility", "values": {"1": "1", big: "1"}}))
        status, out, err = invoke(capsys, "verify", "--fn", str(fn), "--count", "2")
        cert = "mu_yz=-1  disjoint=true  factorize=true  nonzero=true  predicted_fz=-1  observed_fz=-1"
        assert (status, out, err) == (0, f"y = 1\nz=89  {cert}\nz=97  {cert}\n", "")

    def test_verify_insufficient_is_domain_error(self, capsys, tmp_path):
        fn = tmp_path / "chain.json"
        fn.write_text(json.dumps({"poset": "chain", "values": {"1": "1"}}))
        status, _, err = invoke(capsys, "verify", "--fn", str(fn), "--count", "3", "--budget", "30")
        assert status == 2
        assert "budget exhausted" in err


class TestCensusSearchConjecture:
    def test_census_human(self, capsys):
        status, out, _ = invoke(capsys, "census", "--poset", "chain", "--x", "1", "--bound", "100")
        assert status == 0
        assert "members: 1,2" in out
        assert "verdict: finite-certified" in out

    def test_census_oversized_subsets_bound_is_usage_error(self, capsys):
        status, _, err = invoke(
            capsys, "census", "--poset", "subsets", "--x", "{}", "--bound", str(10**18)
        )
        assert status == 1
        assert "exceeds cap" in err

    def test_census_json(self, capsys):
        status, out, _ = invoke(
            capsys, "census", "--poset", "divisibility", "--x", "1", "--bound", "30", "--json"
        )
        payload = json.loads(out)
        assert (status, payload["count"], payload["verdict"]) == (0, 19, "infinite-certified")

    def test_search_chain(self, capsys):
        status, out, _ = invoke(
            capsys, "search", "--poset", "chain", "--bound", "10", "--shell-bound", "20", "--json"
        )
        payload = json.loads(out)
        assert status == 0
        assert payload["nullspace_dimension"] == 9
        assert payload["candidate"]["f"] == {"1": "1", "2": "-1"}
        assert payload["candidate"]["g"] == {"1": "1"}

    def test_search_divisor_window(self, capsys):
        status, out, _ = invoke(
            capsys,
            "search", "--poset", "divisibility",
            "--divisors", "6", "--shell-bound", "12", "--json",
        )
        payload = json.loads(out)
        assert (status, payload["nullspace_dimension"], payload["candidate"]) == (0, 0, None)

    def test_search_nesting_error(self, capsys):
        status, _, err = invoke(
            capsys, "search", "--poset", "chain", "--bound", "10", "--shell-bound", "10"
        )
        assert status == 2
        assert "shell" in err

    def test_search_matrix_over_cap_is_usage_error(self, capsys):
        # 1100 x 1100 cells pass the default cap of 2**20, though each window is small.
        status, out, err = invoke(
            capsys, "search", "--poset", "chain", "--bound", "1100", "--shell-bound", "2200"
        )
        assert (status, out) == (1, "")
        assert err == "error: pair-search matrix of 1210000 cells exceeds cap 1048576\n"

    def test_search_kernel_basis_over_cap_is_usage_error(self, capsys):
        # One equation in 1025 unknowns: 1024 basis vectors of 1025 cells.
        status, out, err = invoke(
            capsys, "search", "--poset", "chain", "--bound", "1025", "--shell-bound", "1026"
        )
        assert (status, out) == (1, "")
        assert err == "error: kernel basis of 1049600 cells exceeds cap 1048576\n"

    def test_conjecture_shell_over_cap_is_usage_error(self, capsys):
        # 1500 chain elements: 1125750 pairs to check against delta.
        status, out, err = invoke(
            capsys, "conjecture", "--poset", "chain", "--bound", "2", "--shell-bound", "1500"
        )
        assert (status, out) == (1, "")
        assert err == "error: inverse-pair check over 1125750 element pairs exceeds cap 1048576\n"

    def test_conjecture(self, capsys):
        status, out, _ = invoke(
            capsys,
            "conjecture", "--poset", "chain",
            "--alpha", "mobius", "--beta", "zeta",
            "--bound", "5", "--shell-bound", "10", "--sample", "1", "--json",
        )
        payload = json.loads(out)
        assert status == 0
        assert payload["pair_search"]["nullspace_dimension"] == 4
        assert payload["censuses"][0]["alpha_support"]["verdict"] == "finite-certified"

    def test_conjecture_non_inverses(self, capsys):
        status, _, err = invoke(
            capsys,
            "conjecture", "--poset", "chain",
            "--alpha", "zeta", "--beta", "zeta",
            "--bound", "4", "--shell-bound", "8",
        )
        assert status == 2
        assert "delta" in err


class TestIsomap:
    def test_integer_to_multiset(self, capsys):
        assert invoke(capsys, "isomap", "--n", "360")[:2] == (0, "2^3*3^2*5\n")

    def test_25_digit_semiprime(self, capsys):
        n = str((10**12 + 39) * (10**12 + 61))
        assert invoke(capsys, "isomap", "--n", n)[:2] == (0, "1000000000039*1000000000061\n")

    def test_multiset_to_integer(self, capsys):
        assert invoke(capsys, "isomap", "--m", "2^2*3")[:2] == (0, "12\n")

    # 4301 digits each for the first two; the larger exponents are refused
    # from the exponent alone, before any power is built.
    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("m", ["2^14285", "3^9013", "2^20000", "2^1000000000000", f"2^{10**40}"])
    def test_image_past_digit_limit_is_usage_error(self, capsys, m, as_json):
        status, out, err = invoke(capsys, "isomap", "--m", m, *(["--json"] if as_json else []))
        assert (status, out) == (1, "")
        assert err == "error: integer image has more than 4300 digits\n"

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize("m", ["2^14000", "2^14284", "3^9012"])
    def test_image_within_digit_limit_prints(self, capsys, m, as_json):
        base, exponent = map(int, m.split("^"))
        status, out, _ = invoke(capsys, "isomap", "--m", m, *(["--json"] if as_json else []))
        assert status == 0
        printed = json.loads(out)["n"] if as_json else int(out)
        assert printed == base**exponent

    def test_exactly_one_direction(self, capsys):
        assert invoke(capsys, "isomap")[0] == 1
        assert invoke(capsys, "isomap", "--n", "4", "--m", "2")[0] == 1


class TestExplicitPosetFiles:
    def test_poset_file_flag(self, capsys, poset_file):
        status, out, _ = invoke(
            capsys, "mobius", "--poset-file", poset_file, "--x", "a", "--y", "c"
        )
        assert (status, out) == (0, "0\n")

    def test_function_document_names_poset_file(self, capsys, poset_file, tmp_path):
        fn = tmp_path / "fn.json"
        fn.write_text(json.dumps({"poset": poset_file, "values": {"a": "1"}}))
        status, out, _ = invoke(capsys, "transform", "--fn", str(fn), "--json")
        assert status == 0
        assert json.loads(out)["values"] == {"a": "1", "b": "1", "c": "1"}

    @pytest.mark.parametrize("argv", [("transform", "--bound", "6"), ("verify", "--count", "1")])
    def test_function_document_is_read_once(self, capsys, monkeypatch, point_mass_file, argv):
        reads = []
        load = cli._load_json_file
        monkeypatch.setattr(cli, "_load_json_file", lambda path: reads.append(path) or load(path))
        status, _, _ = invoke(capsys, *argv, "--fn", point_mass_file)
        assert (status, reads) == (0, [point_mass_file])

    def test_missing_file_is_usage_error(self, capsys):
        status, _, _ = invoke(capsys, "mobius", "--poset-file", "/nope.json", "--x", "a", "--y", "a")
        assert status == 1

    def test_function_document_array_is_usage_error(self, capsys, tmp_path):
        fn = tmp_path / "fn.json"
        fn.write_text(json.dumps([{"poset": "chain"}]))
        status, _, err = invoke(capsys, "transform", "--fn", str(fn), "--bound", "5")
        assert status == 1
        assert err.startswith("error:")

    def test_unhashable_cover_identifier_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "poset.json"
        path.write_text(json.dumps({"elements": ["a", "b"], "covers": [["a", ["b"]]]}))
        status, _, err = invoke(capsys, "mobius", "--poset-file", str(path), "--x", "a", "--y", "a")
        assert status == 1
        assert err.startswith("error:")


    @pytest.mark.parametrize("cover", ["ab", {"a": 1, "b": 2}], ids=["string", "object"])
    def test_malformed_cover_pair_is_usage_error(self, capsys, tmp_path, cover):
        path = tmp_path / "poset.json"
        path.write_text(json.dumps({"elements": ["a", "b"], "covers": [cover]}))
        status, out, err = invoke(capsys, "mobius", "--poset-file", str(path), "--x", "a", "--y", "b")
        assert (status, out) == (1, "")
        assert "two-element lists" in err


class TestDocumentLimits:
    """A document nested past the interpreter's recursion limit, or a
    function document of more entries than the element cap, is refused
    with one error line and exit status 1."""

    DEEP = "[" * 3000 + "]" * 3000

    @pytest.mark.parametrize("route", ["poset-file", "fn", "poset named by fn"])
    def test_deep_nesting_is_usage_error(self, capsys, tmp_path, route):
        deep = tmp_path / "deep.json"
        deep.write_text(self.DEEP)
        fn = tmp_path / "fn.json"
        fn.write_text(json.dumps({"poset": str(deep), "values": {"a": "1"}}))
        argv = {
            "poset-file": ("mobius", "--poset-file", str(deep), "--x", "a", "--y", "a"),
            "fn": ("transform", "--fn", str(deep), "--bound", "3"),
            "poset named by fn": ("transform", "--fn", str(fn)),
        }[route]
        status, out, err = invoke(capsys, *argv)
        assert (status, out) == (1, "")
        assert err.startswith(f"error: {deep} is not valid JSON: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["transform", "invert-transform", "verify"])
    def test_function_document_entry_cap(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.setattr(posets, "DEFAULT_ELEMENT_CAP", 4)
        fn = tmp_path / "fn.json"
        flags = ("--bound", "4") if command != "verify" else ("--count", "1")
        # A point mass at 1, with zero entries; zeros count towards the cap.
        values = {"1": "1", "2": "0", "3": "0", "4": "0"}
        fn.write_text(json.dumps({"poset": "chain", "values": values}))
        assert invoke(capsys, command, "--fn", str(fn), *flags)[0] == 0
        fn.write_text(json.dumps({"poset": "chain", "values": {**values, "5": "0"}}))
        status, out, err = invoke(capsys, command, "--fn", str(fn), *flags)
        assert (status, out, err) == (1, "", "error: function document of 5 entries exceeds cap 4\n")


# -- fuzzing the transform commands ------------------------------------------

# Stands for the path of a valid explicit-poset file written next to the
# document; the test substitutes it into the document text.
_EXPLICIT_FILE = "@explicit-poset-file@"

_VALID_SCALAR = st.one_of(
    st.integers(-9, 9).map(str),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9)),
    st.builds("{}-{}/{}i".format, st.integers(-9, 9), st.integers(1, 9), st.integers(1, 9)),
)
# Each family with encodings of its own elements.
_FAMILY_KEYS = {
    "divisibility": st.integers(1, 40).map(str),
    "chain": st.integers(1, 40).map(str),
    "subsets": st.sets(st.integers(1, 6), max_size=3).map(
        lambda xs: "{" + ",".join(map(str, sorted(xs))) + "}"
    ),
    "multisets": st.sampled_from(["1", "2", "3", "2^2", "2*3", "5", "2^3*3", "7"]),
    _EXPLICIT_FILE: st.sampled_from(["a", "b", "c"]),
}
_WELL_FORMED = st.one_of(
    [
        st.fixed_dictionaries(
            {"poset": st.just(name), "values": st.dictionaries(keys, _VALID_SCALAR, max_size=4)}
        )
        for name, keys in _FAMILY_KEYS.items()
    ]
)

# Around Python's 4300-digit limit on integer strings; two values past
# 2150 digits can also sum to a result that is too long to print.
_LONG_DIGITS = st.builds(
    lambda digit, n: digit * n, st.sampled_from("137"), st.sampled_from([2200, 4300, 4301, 5000])
)
_OVERSIZED = st.one_of(_LONG_DIGITS, _LONG_DIGITS.map("1/{}".format))
_ZERO_DENOMINATOR = st.builds("{}/0".format, st.integers(-9, 9))
_NON_STRING = st.one_of(
    st.integers(-(10**30), 10**30),
    st.floats(),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-3, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_SCALAR = st.one_of(_VALID_SCALAR, _ZERO_DENOMINATOR, _OVERSIZED, _NON_STRING, st.text(max_size=6))
_ENCODING = st.one_of(
    st.sampled_from(["0", "-4", "{1,,2}", "{0}", "4^2", "2^0", "zz", "", "9" * 5000]),
    st.integers(-5, 10**5).map(str),
    st.text(max_size=6),
    *_FAMILY_KEYS.values(),  # encodings that may belong to another family
)
_POSET_NAME = st.one_of(
    st.sampled_from([*_FAMILY_KEYS, "explicit", "Divisibility", "", ".",
                     "no-such-file.json", "a\x00b"]),
    # No "/": an unknown name is tried as a path relative to the working directory.
    st.text(alphabet=st.characters(blacklist_characters="/"), max_size=10),
    st.integers(),
    st.none(),
)
_BOTTOM = {"divisibility": "1", "chain": "1", "subsets": "{}", "multisets": "1", _EXPLICIT_FILE: "a"}


def _with_value(doc, value):
    """A well-formed document with one more value at the poset's bottom."""
    return {**doc, "values": {**doc["values"], _BOTTOM[doc["poset"]]: value}}


def _with_key(doc, key):
    return {**doc, "values": {**doc["values"], key: "1"}}


# One branch per kind of fault, so each is drawn often.
_DOCUMENT = st.one_of(
    _WELL_FORMED,
    st.builds(_with_value, _WELL_FORMED, _OVERSIZED),
    st.builds(_with_value, _WELL_FORMED, _ZERO_DENOMINATOR),
    st.builds(_with_value, _WELL_FORMED, _NON_STRING),
    st.builds(_with_value, _WELL_FORMED, st.text(max_size=6)),
    st.builds(_with_key, _WELL_FORMED, _ENCODING),
    st.builds(lambda doc, name: {**doc, "poset": name}, _WELL_FORMED, _POSET_NAME),
    st.builds(lambda doc, values: {**doc, "values": values}, _WELL_FORMED, _SCALAR),
    st.builds(lambda doc: {"values": doc["values"]}, _WELL_FORMED),
    st.one_of(_SCALAR, st.lists(_SCALAR, max_size=3)),
).map(json.dumps) | st.sampled_from(
    ["", "not json", "{", '{"poset": "divisibility", "values": {"6": %s}}' % ("7" * 5000)]
)
# Small windows, or bounds that are invalid or exceed the element cap.
_BOUND = st.one_of(
    st.integers(1, 12),
    st.integers(-10, 0),
    st.integers(2**21, 10**40),
    st.integers(-(10**40), -(2**21)),
)


class TestTransformFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        command=st.sampled_from(["transform", "invert-transform"]),
        document=_DOCUMENT,
        bound=_BOUND,
        as_json=st.booleans(),
    )
    def test_exit_status_without_traceback(self, command, document, bound, as_json):
        with tempfile.TemporaryDirectory() as tmp:
            explicit = os.path.join(tmp, "explicit.json")
            with open(explicit, "w", encoding="utf-8") as handle:
                json.dump({"elements": ["a", "b", "c"], "covers": [["a", "b"], ["a", "c"]]}, handle)
            path = os.path.join(tmp, "fn.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(document.replace(json.dumps(_EXPLICIT_FILE), json.dumps(explicit)))
            argv = [command, "--fn", path, "--bound", str(bound)] + (["--json"] if as_json else [])
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = run(argv)
        assert status in (0, 1, 2)
        if status:
            assert err.getvalue().startswith("error:") and not out.getvalue()


# -- fuzzing malformed documents ---------------------------------------------

# Stands for a nested array or object; the test substitutes it into the
# document text. Depths around the default recursion limit of 1,000
# are refused by the decoder or read, depending on the stack in use.
_DEEP = "@deep@"
_DEPTH = st.sampled_from([1, 2, 50, 500, 900, 990, 1000, 3000, 20000])
_ID = st.sampled_from(["a", "b", "c", "", _DEEP])
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(), _ID),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["elements", "covers", "poset", "values", "a", "1"]), inner, max_size=3),
    ),
    max_leaves=6,
)
_POSET_DOCUMENT = st.one_of(
    _JSON,
    st.fixed_dictionaries(
        {
            "elements": st.one_of(_JSON, st.lists(_ID | _JSON, max_size=4)),
            "covers": st.one_of(_JSON, st.lists(st.lists(_ID | _JSON, max_size=3) | _JSON, max_size=4)),
        }
    ),
)
_FN_DOCUMENT = st.one_of(
    _JSON,
    st.fixed_dictionaries(
        {
            "poset": st.one_of(st.sampled_from([_EXPLICIT_FILE, "chain", "subsets"]), _JSON),
            "values": st.one_of(_JSON, st.dictionaries(_ID | _ENCODING, _JSON | _VALID_SCALAR, max_size=3)),
        }
    ),
)


class TestMalformedDocumentFuzz:
    # Deep: a wrong-shaped or deeply nested document must end in an error line.
    @pytest.mark.deep
    @settings(deadline=None)
    @given(
        poset_document=_POSET_DOCUMENT,
        fn_document=_FN_DOCUMENT,
        depth=_DEPTH,
        bracket=st.sampled_from(["[]", "{}"]),
        route=st.sampled_from(["poset-file", "fn", "both"]),
        command=st.sampled_from(["transform", "invert-transform", "verify"]),
    )
    def test_malformed_documents_end_in_an_error_line(
        self, poset_document, fn_document, depth, bracket, route, command
    ):
        """Wrong-shaped and deeply nested ``--poset-file`` and ``--fn``
        documents, alone or together, and the poset file a function
        document names: exit status 0, 1 or 2, and an error line, never a
        traceback, on a nonzero status."""
        opening, closing = bracket
        deep = (opening + '"a":' if opening == "{" else opening) * depth
        deep += ("1" if opening == "{" else "") + closing * depth
        with tempfile.TemporaryDirectory() as tmp:
            poset_path = os.path.join(tmp, "poset.json")
            fn_path = os.path.join(tmp, "fn.json")
            for path, document in ((poset_path, poset_document), (fn_path, fn_document)):
                text = json.dumps(document).replace(json.dumps(_DEEP), deep)
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text.replace(json.dumps(_EXPLICIT_FILE), json.dumps(poset_path)))
            if route == "poset-file":
                argv = ["mobius", "--poset-file", poset_path, "--x", "a", "--y", "b"]
            else:
                argv = [command, "--fn", fn_path] + (["--poset-file", poset_path] if route == "both" else [])
                argv += ["--count", "1", "--budget", "20"] if command == "verify" else ["--bound", "3"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = run(argv)
        assert status in (0, 1, 2)
        if status:
            assert err.getvalue().startswith("error:") and "Traceback" not in err.getvalue()
            assert not out.getvalue()


# -- fuzzing the search commands ---------------------------------------------

# Bounds that are small, invalid or past the element cap. Subsets bounds
# 7..20 are left out: they pass every cap, yet one search can take 2 to
# 3 s (subsets 10 in 11, 2.1 GHz Xeon vCPU), and they reach no error path
# that 0..6 misses.
_SEARCH_BOUND = st.one_of(st.none(), st.integers(-2, 40), st.integers(2**21, 10**40))
_SUBSETS_BOUND = st.one_of(st.none(), st.integers(-2, 6), st.integers(21, 40), st.integers(2**21, 10**40))
_DIVISORS = st.one_of(st.none(), st.integers(-2, 5000), st.sampled_from([720720, 2**70, 10**40]))
_FUNCTION_NAME = st.sampled_from(["mobius", "zeta", "delta", "nope", ""])
_INVERSE_PAIRS = st.sampled_from([("mobius", "zeta"), ("zeta", "mobius"), ("delta", "delta")])
_SEARCH_FAULTS = [None, "bounds", "divisors", "names", "sample", "family"]


@st.composite
def _search_argv(draw):
    """A well-formed search or conjecture call with at most one kind of fault."""
    command = draw(st.sampled_from(["search", "conjecture"]))
    family = draw(st.sampled_from(sorted(_FAMILY_KEYS)))
    fault = draw(st.sampled_from(_SEARCH_FAULTS))
    largest = 6 if family == "subsets" else 40
    bound = draw(st.integers(1, largest - 1))
    flags = {"--bound": bound, "--shell-bound": draw(st.integers(bound + 1, largest))}
    alpha, beta = draw(_INVERSE_PAIRS)
    sample = ",".join(draw(st.lists(_FAMILY_KEYS[family], max_size=3)))
    if fault == "bounds":
        bounds = _SUBSETS_BOUND if family == "subsets" else _SEARCH_BOUND
        flags = {"--bound": draw(bounds), "--shell-bound": draw(bounds)}
    elif fault == "divisors":
        flags.update({"--divisors": draw(_DIVISORS), "--shell-divisors": draw(_DIVISORS)})
    elif fault == "names":
        alpha, beta = draw(_FUNCTION_NAME), draw(_FUNCTION_NAME)
    elif fault == "sample":
        sample = draw(st.one_of(st.lists(_ENCODING, max_size=3).map(",".join), st.text(max_size=8)))
    elif fault == "family":
        family = draw(st.sampled_from(["no-such-family", "Divisibility", ""]))
    argv = [command, "--poset-file" if family == _EXPLICIT_FILE else "--poset", family]
    argv += [f"{flag}={value}" for flag, value in flags.items() if value is not None]
    argv.append(f"--beta={beta}")
    if command == "conjecture":
        argv += [f"--alpha={alpha}", f"--sample={sample}"]
    return argv + (["--json"] if draw(st.booleans()) else [])


class TestSearchFuzz:
    @settings(max_examples=200, deadline=None)
    @given(argv=_search_argv())
    def test_exit_status_without_traceback(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            explicit = os.path.join(tmp, "explicit.json")
            with open(explicit, "w", encoding="utf-8") as handle:
                json.dump({"elements": ["a", "b", "c"], "covers": [["a", "b"], ["a", "c"]]}, handle)
            argv = [arg.replace(_EXPLICIT_FILE, explicit) for arg in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = run(argv)
        assert status in (0, 1, 2)
        if status:
            assert err.getvalue().startswith("error:") and not out.getvalue()


# -- fuzzing the point commands ------------------------------------------------

_FORTY = "{" + ",".join(map(str, range(1, 41))) + "}"
_GARBAGE = st.sampled_from(["", "x", "1.5", "-", "{", "{0}", "2^0", "9" * 5000, "0", "-3"])
# Elements per family: small ones of its own, and shapes whose intervals
# or integer images are past the cap. Divisibility integers include a
# 25-digit prime and two semiprimes, probable primes past the proven
# range of the primality test, and the product of the first 23 primes,
# whose divisors are past the cap; factorisation has a fixed step budget,
# so each is bounded work. The balanced semiprime takes about a second to
# split, once: a witness stream over it meets the same cofactor at every
# candidate and reads it from the factorisation cache. Chain integers between 500 and the cap, smooth
# divisibility integers near 10**12, multiset exponents between 10 and
# 2**20 and subsets windows over 6 to 20 ground elements are left out:
# they pass every cap, yet a witness check, a convolution, a sorted
# interval or a census over them takes seconds to minutes, and they reach
# no error path that the others miss.
_POINT_KEYS = dict(_FAMILY_KEYS, chain=st.integers(1, 500).map(str))
_PRIMORIAL_23 = "267064515689275851355624017992790"
_POINT_ELEMENTS = {
    "divisibility": st.one_of(
        st.integers(1, 60).map(str),
        st.sampled_from(
            [
                "999999999989",
                str(2**39),
                "1000000000000000000000007",
                "9999999370000060999996157",  # 999999937 * (10**16 + 61)
                "1000000000100000000002379",  # (10**12 + 39) * (10**12 + 61)
                "3317044064679887385961981",  # psi_13, a strong pseudoprime to 2..41
                "1000000000000000000000000000057",
                _PRIMORIAL_23,
            ]
        ),
    ),
    "chain": st.one_of(
        _POINT_KEYS["chain"],
        st.sampled_from([str(2**21), "1000000000000", str(10**40)]),
    ),
    "subsets": st.one_of(
        _FAMILY_KEYS["subsets"],
        st.sampled_from([_FORTY, "{" + ",".join(map(str, range(7, 41))) + "}"]),
    ),
    "multisets": st.one_of(
        _FAMILY_KEYS["multisets"],
        st.sampled_from(
            ["2^1000000000000", "2^999999999999", "2^1048600", "3^10^40", "5^1048600*7",
             "2^999999999999*3", "2^" + "9" * 40]
        ),
    ),
    _EXPLICIT_FILE: _FAMILY_KEYS[_EXPLICIT_FILE],
}
_FOREIGN = st.one_of(_GARBAGE, *_FAMILY_KEYS.values())
_COUNT = st.one_of(st.integers(-1, 3).map(str), _GARBAGE)
_BUDGET = st.one_of(st.integers(-1, 5).map(str), st.just("1000000000"), _GARBAGE)
_CENSUS_BOUND = st.one_of(
    st.none(), st.integers(-2, 40), st.integers(2**21, 10**40), st.sampled_from(["x", ""])
)
_SUBSETS_CENSUS_BOUND = st.one_of(
    st.none(), st.integers(-2, 5), st.integers(21, 40), st.integers(2**21, 10**40)
)
_POINT_FAULTS = [None, "elements", "names", "numbers", "family"]


@st.composite
def _point_argv(draw):
    """A well-formed mobius, convolve, census, witness or verify call with
    at most one kind of fault: foreign or oversized elements, unknown
    function names, bad counts, budgets or bounds, or an unknown family."""
    command = draw(st.sampled_from(["mobius", "convolve", "census", "witness", "verify"]))
    family = draw(st.sampled_from(sorted(_FAMILY_KEYS)))
    fault = draw(st.sampled_from(_POINT_FAULTS))
    own = _POINT_KEYS[family]
    element = _POINT_ELEMENTS[family] if fault == "elements" else own
    if fault == "elements" and draw(st.booleans()):
        element = _FOREIGN
    names = _FUNCTION_NAME if fault == "names" else st.sampled_from(["mobius", "zeta", "delta"])
    numbers = fault == "numbers"
    flags = {}
    if command in ("mobius", "convolve"):
        flags = {"--x": draw(element), "--y": draw(element)}
        if command == "convolve":
            flags.update({"--left": draw(names), "--right": draw(names)})
    elif command == "census":
        largest = 5 if family == "subsets" else 40
        flags = {"--x": draw(element), "--alpha": draw(names), "--bound": draw(st.integers(1, largest))}
        if numbers:
            flags["--bound"] = draw(_SUBSETS_CENSUS_BOUND if family == "subsets" else _CENSUS_BOUND)
            flags["--divisors"] = draw(st.one_of(st.none(), _DIVISORS))
    elif command == "witness":
        flags = {
            "--y": draw(element),
            "--avoid": ",".join(draw(st.lists(element, max_size=3))),
            "--count": draw(_COUNT if numbers else st.integers(1, 3)),
            "--budget": draw(_BUDGET if numbers else st.integers(1, 20)),
        }
    else:
        keys = draw(st.lists(element, min_size=1, max_size=3))
        values = draw(st.lists(_VALID_SCALAR, min_size=len(keys), max_size=len(keys)))
        flags = {
            "--fn": json.dumps({"poset": family, "values": dict(zip(keys, values))}),
            "--count": draw(_COUNT if numbers else st.integers(1, 3)),
            "--budget": draw(_BUDGET if numbers else st.integers(1, 20)),
        }
        family = None
    if fault == "family" and family is not None:
        family = draw(st.sampled_from(["no-such-family", "Divisibility", ""]))
    argv = [command]
    if family is not None:
        argv += ["--poset-file" if family == _EXPLICIT_FILE else "--poset", family]
    argv += [f"{flag}={value}" for flag, value in flags.items() if value is not None]
    return argv + (["--json"] if draw(st.booleans()) else [])


class TestPointCommandFuzz:
    @settings(max_examples=300, deadline=None)
    @given(argv=_point_argv())
    def test_exit_status_without_traceback(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            explicit = os.path.join(tmp, "explicit.json")
            with open(explicit, "w", encoding="utf-8") as handle:
                json.dump({"elements": ["a", "b", "c"], "covers": [["a", "b"], ["a", "c"]]}, handle)
            fn = os.path.join(tmp, "fn.json")
            for i, arg in enumerate(argv):
                if arg.startswith("--fn="):
                    with open(fn, "w", encoding="utf-8") as handle:
                        handle.write(arg[len("--fn="):].replace(_EXPLICIT_FILE, explicit))
                    argv[i] = "--fn=" + fn
            argv = [arg.replace(_EXPLICIT_FILE, explicit) for arg in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = run(argv)
        assert status in (0, 1, 2)
        if status:
            assert err.getvalue().startswith("error:") and not out.getvalue()


# -- fuzzing the number-theory commands ----------------------------------------

_HARD_INTEGERS = st.sampled_from(
    [
        (10**18 + 3) * (10**18 + 9),  # two 19-digit primes
        (5 * 10**18 + 3) * (7 * 10**18 + 13),
        (10**12 + 39) * (10**12 + 61),
        10**24 + 7,
        3317044064679887385961981,  # psi_13
        10**30 + 57,
        2**127 - 1,
        1009**9 * 2**5,
        10**4300 - 1,
    ]
)
_LARGE_INTEGERS = st.one_of(
    st.integers(-5, 10**6),
    st.integers(1, 10**40),
    st.builds(lambda a, b: a * b, st.integers(1, 10**20), st.integers(1, 10**20)),
    _HARD_INTEGERS,
)
_INTEGER_TEXT = st.one_of(
    _LARGE_INTEGERS.map(str),
    _GARBAGE,
    st.sampled_from(["0x10", "1_000", " 12 ", "+7", "1e5", "\u0663", "9" * 4301, "--1"]),
    st.text(max_size=8),
)
_MULTISET_TEXT = st.one_of(
    st.lists(
        st.tuples(_LARGE_INTEGERS.map(str), st.one_of(st.integers(-1, 5).map(str), _GARBAGE)),
        max_size=3,
    ).map(lambda pairs: "*".join(f"{p}^{k}" for p, k in pairs) or "1"),
    _LARGE_INTEGERS.map(str),
    _GARBAGE,
    st.text(max_size=8),
)


@st.composite
def _number_theory_argv(draw):
    """classical-mobius --n or isomap --n/--m, well-formed or not."""
    command = draw(st.sampled_from(["classical-mobius", "isomap-n", "isomap-m", "isomap-both"]))
    if command == "classical-mobius":
        argv = ["classical-mobius", f"--n={draw(_INTEGER_TEXT)}"]
    else:
        argv = ["isomap"]
        if command != "isomap-m":
            argv.append(f"--n={draw(_INTEGER_TEXT)}")
        if command != "isomap-n":
            argv.append(f"--m={draw(_MULTISET_TEXT)}")
    return argv + (["--json"] if draw(st.booleans()) else [])


class TestNumberTheoryFuzz:
    """classical-mobius and isomap on integers up to 10**40, hard
    semiprimes, multiset keys of that size and malformed text. The
    factorisation budget is cut to 2**14 steps so that the many inputs
    that exhaust it do so in milliseconds; the path is the same."""

    @settings(max_examples=300, deadline=None)
    @given(argv=_number_theory_argv())
    def test_exit_status_without_traceback(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(numtheory, "_STEP_BUDGET", 1 << 14)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = run(argv)
        assert status in (0, 1, 2)
        if status:
            assert err.getvalue().startswith("error:") and not out.getvalue()
        else:
            assert not err.getvalue() and out.getvalue()


class TestOversizedIntervals:
    @pytest.mark.parametrize(
        "family,x,y",
        [
            ("chain", "1", "1000000000000"),
            ("multisets", "1", "2^1000000000000"),
            ("subsets", "{}", _FORTY),
            ("multisets", "2^999999999999", "2^1000000000000"),
            ("divisibility", "1", _PRIMORIAL_23),
        ],
    )
    def test_mobius_is_usage_error(self, capsys, family, x, y):
        status, out, err = invoke(capsys, "mobius", "--poset", family, "--x", x, "--y", y)
        assert (status, out) == (1, "")
        assert err.startswith("error:") and "1048576" in err

    def test_divisor_window_past_the_cap_is_usage_error(self, capsys):
        status, out, err = invoke(
            capsys, "census", "--poset", "divisibility", "--x", "1", "--divisors", _PRIMORIAL_23
        )
        assert (status, out, err) == (1, "", "error: window of 8388608 elements exceeds cap\n")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("census", "--poset", "divisibility", "--x", "1", "--bound", "50", "--json"),
            ("search", "--poset", "chain", "--bound", "6", "--shell-bound", "12", "--json"),
            ("witness", "--poset", "divisibility", "--y", "6", "--avoid", "1,2,3,6", "--json"),
            ("search", "--poset", "divisibility", "--divisors", "6", "--shell-bound", "7", "--json"),
            ("search", "--poset", "subsets", "--bound", "3", "--shell-bound", "4"),
            ("conjecture", "--poset", "divisibility", "--alpha", "zeta", "--beta", "mobius",
             "--bound", "6", "--shell-bound", "12", "--sample", "1,2", "--json"),
        ],
    )
    def test_repeat_invocations_byte_identical(self, capsys, argv):
        first = invoke(capsys, *argv)
        second = invoke(capsys, *argv)
        assert first == second
        assert first[0] == 0


class TestOptimizedInterpreter:
    """Under ``python -O`` every ``assert`` vanishes; the arithmetic and
    the mathematical checks must not depend on one."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("witness", "--poset", "divisibility", "--y", "6", "--avoid", "5,35", "--count", "3", "--json"),
            ("witness", "--poset", "chain", "--y", "1", "--count", "2", "--budget", "400"),
            ("witness", "--poset", "subsets", "--y", "{1,2}", "--avoid", "{3}", "--count", "2"),
            ("verify", "--fn", "{multisets}", "--count", "2", "--json"),
            ("verify", "--fn", "{chain}", "--count", "3", "--budget", "30"),
            ("convolve", "--poset", "chain", "--left", "mobius", "--right", "zeta", "--x", "1", "--y", "300"),
            ("convolve", "--poset", "divisibility", "--left", "zeta", "--right", "zeta", "--x", "2", "--y", "360", "--json"),
            ("convolve", "--poset", "chain", "--left", "mobius", "--right", "zeta", "--x", "5", "--y", "3"),
            ("search", "--poset", "divisibility", "--divisors", "6", "--shell-bound", "7"),
            ("search", "--poset", "subsets", "--bound", "3", "--shell-bound", "4", "--json"),
            ("conjecture", "--poset", "divisibility", "--alpha", "zeta", "--beta", "mobius",
             "--bound", "6", "--shell-bound", "12", "--sample", "1,2"),
        ],
    )
    def test_output_matches_normal_run(self, tmp_path, argv):
        documents = {
            "{multisets}": {"poset": "multisets", "values": {"1": "2/3", "2*3": "1-1/2i", "5": "-4"}},
            "{chain}": {"poset": "chain", "values": {"1": "1"}},
        }
        for name, document in documents.items():
            path = tmp_path / (name.strip("{}") + ".json")
            path.write_text(json.dumps(document))
            argv = tuple(str(path) if arg == name else arg for arg in argv)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(posetlab.__file__)))
        env.pop("PYTHONOPTIMIZE", None)
        command = "from posetlab.cli import main; main()"
        normal, optimized = (
            subprocess.run([sys.executable, *flags, "-c", command, *argv], capture_output=True, env=env)
            for flags in ((), ("-O",))
        )
        assert normal.returncode in (0, 2)
        assert (optimized.returncode, optimized.stdout, optimized.stderr) == (
            normal.returncode, normal.stdout, normal.stderr
        )


# One call per way out of main: success, a domain error, a validation
# error, argparse errors (an ambiguous abbreviation, an unknown command),
# and help, which argparse ends with SystemExit.
_EXITS = [
    (("classical-mobius", "--n", "6"), 0),
    (("mobius", "--poset", "divisibility", "--x", "2", "--y", "3"), 2),
    (("mobius", "--poset", "nope", "--x", "1", "--y", "2"), 1),
    (("mobius", "--pos", "divisibility", "--x", "1", "--y", "2"), 1),
    (("nosuch",), 1),
    (("-h",), 0),
    (("mobius", "-h"), 0),
]


def _run_in_process(argv, status) -> str:
    """What ``run(argv)`` prints to stdout in this process, after checking
    that it returns ``status`` or exits through ``SystemExit`` with it."""
    return _run_in_process_with_stderr(argv, status)[0]


def _run_in_process_with_stderr(argv, status) -> tuple[str, str]:
    """``_run_in_process``'s stdout and what ``run(argv)`` prints to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            assert run(list(argv)) == status
        except SystemExit as exit:
            assert exit.code == status
    return out.getvalue(), err.getvalue()


class TestGarbageCollectorFreeze:
    """Neither ``main`` nor ``run`` freezes the collector: a freeze would
    only leak into a caller below other code, since every exit at the
    top level skips the teardown it would have shortened."""

    # An exit hook runs after main has returned or raised, and reports
    # the freeze count as the last line of stderr.
    PRELUDE = "import atexit, gc, sys\natexit.register(lambda: print('freeze count', gc.get_freeze_count(), file=sys.stderr))\n"

    @pytest.mark.parametrize("argv, status", _EXITS, ids=repr)
    def test_main_leaves_the_collector_alone_on_every_exit(self, argv, status):
        # At the top level, and from a module that is not __main__.
        main = "import posetlab.cli as cli\ncli.main()\n"
        for body in (main, f"exec({main!r}, {{'__name__': 'caller'}})\n"):
            done = _fresh_python(["-c", self.PRELUDE + body, *argv])
            assert (done.returncode, done.stdout) == (status, _run_in_process(argv, status))
            assert done.stderr.splitlines()[-1] == "freeze count 0"

    @pytest.mark.parametrize("argv, status", _EXITS, ids=repr)
    def test_run_does_not_freeze(self, argv, status):
        before = gc.get_freeze_count()
        _run_in_process(argv, status)
        assert gc.get_freeze_count() == before


# A JSON document larger than stdout's buffer, written while run() prints,
# and a short line that reaches the OS only when main flushes.
@pytest.mark.parametrize(
    "argv",
    [
        ("search", "--poset", "divisibility", "--bound", "64", "--shell-bound", "128", "--json"),
        ("classical-mobius", "--n", "6"),
    ],
    ids=["while printing", "at the flush"],
)
def test_closed_stdout_ends_in_an_error_line(argv):
    # The read end is closed before the spawn, so every write to stdout
    # fails with a broken pipe.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(posetlab.__file__)))
    try:
        done = subprocess.run(
            [sys.executable, "-c", "from posetlab.cli import main; main()", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr.startswith(b"error:")
    assert done.stderr.count(b"\n") == 1
    assert b"Traceback" not in done.stderr


def _fresh_python(args, path=(), **kwargs):
    """``python *args`` in a fresh process that imports this ``posetlab``,
    with the directories ``path`` ahead of it on ``sys.path``."""
    src = os.path.dirname(os.path.dirname(posetlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([*map(str, path), src]))
    # Unbuffered streams would hide a missing flush.
    for name in ("PYTHONOPTIMIZE", "PYTHONUNBUFFERED"):
        env.pop(name, None)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, **kwargs)


class TestTopLevelExit:
    """At the program's top level, ``main`` ends the process through an
    exit hook once its caller's ``finally`` blocks and earlier exit hooks
    have run, skipping the interpreter's teardown of modules. Under any
    other caller the process tears down as usual."""

    # A module-level object whose finalizer writes to stderr when the
    # interpreter tears its module down.
    PROBE = (
        "import functools, os\n"
        "class Probe:\n"
        "    __del__ = staticmethod(functools.partial(os.write, 2, b'torn down\\n'))\n"
        "probe = Probe()\n"
    )

    @pytest.mark.parametrize("argv, status", _EXITS, ids=repr)
    def test_a_caller_finally_runs_and_sees_main_exit(self, tmp_path, argv, status):
        record = tmp_path / "record"
        script = (
            "from posetlab.cli import main\n"
            "try:\n"
            "    main()\n"
            "finally:\n"
            f"    open({str(record)!r}, 'w').write('written')\n"
        )
        done = _fresh_python(["-c", script, *argv])
        assert (done.returncode, done.stdout, done.stderr) == (status, *_run_in_process_with_stderr(argv, status))
        assert record.read_text() == "written"

    def test_earlier_exit_hooks_run_once_in_reverse_after_the_output(self):
        script = (
            "import atexit\n"
            "atexit.register(print, 'first hook')\n"
            "atexit.register(print, 'second hook')\n"
            "from posetlab.cli import main\n"
            "main()\n"
        )
        done = _fresh_python(["-c", script, "classical-mobius", "--n", "6"])
        assert (done.returncode, done.stdout, done.stderr) == (0, "1\nsecond hook\nfirst hook\n", "")

    @pytest.mark.parametrize(
        "shape",
        [
            "from posetlab.cli import main\nmain()\n",
            "import runpy\nrunpy.run_module('posetlab.cli', run_name='__main__')\n",
            # The wrapper that installing the package writes for the
            # ``posetlab`` console script.
            "import re\n"
            "import sys\n"
            "from posetlab.cli import main\n"
            "if __name__ == '__main__':\n"
            "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
            "    sys.exit(main())\n",
        ],
        ids=["python -c", "runpy", "console script"],
    )
    def test_top_level_main_skips_module_teardown(self, tmp_path, shape):
        # Help, which argparse ends with SystemExit inside run(), ends
        # the same way.
        (tmp_path / "probe.py").write_text(self.PROBE)
        script = tmp_path / "posetlab_script.py"
        script.write_text("import probe\n" + shape)
        for argv in (("classical-mobius", "--n", "6"), ("-h",), ("mobius", "-h")):
            expected = _run_in_process(argv, 0)
            for args in (["-c", script.read_text()], [str(script)]):
                done = _fresh_python([*args, *argv], path=[tmp_path])
                assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")

    def test_an_uncaught_exception_exits_1_with_the_traceback(self):
        script = "import posetlab.cli as cli\ncli.run = lambda: 1 // 0\ncli.main()\n"
        done = _fresh_python(["-c", script])
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith("Traceback")
        assert done.stderr.endswith("ZeroDivisionError: integer division or modulo by zero\n")

    def test_a_caller_below_other_code_tears_down_with_its_own_status(self, tmp_path):
        (tmp_path / "probe.py").write_text(self.PROBE)
        (tmp_path / "caller.py").write_text(
            "import sys\n"
            "from posetlab.cli import main\n"
            "def call():\n"
            "    try:\n"
            "        main()\n"
            "    except SystemExit:\n"
            "        pass\n"
            "    sys.exit(3)\n"
        )
        script = "import probe, caller\ncaller.call()\n"
        done = _fresh_python(["-c", script, "classical-mobius", "--n", "6"], path=[tmp_path])
        assert (done.returncode, done.stdout, done.stderr) == (3, "1\n", "torn down\n")

    def test_run_registers_no_exit_hook(self):
        script = (
            "import atexit, contextlib, io, json, sys\n"
            "from posetlab.cli import run\n"
            "before = atexit._ncallbacks()\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "        try:\n"
            "            run(argv)\n"
            "        except SystemExit:\n"
            "            pass\n"
            "print(atexit._ncallbacks() - before)\n"
        )
        done = _fresh_python(["-c", script, json.dumps([list(argv) for argv, _ in _EXITS])])
        assert (done.returncode, done.stdout, done.stderr) == (0, "0\n", "")

    def test_output_past_the_pipe_buffer_arrives_whole(self, point_mass_file):
        argv = ("transform", "--fn", point_mass_file, "--bound", "6000", "--json")
        done = _fresh_python(["-c", "from posetlab.cli import main; main()", *argv])
        expected = _run_in_process(argv, 0)
        assert len(done.stdout.encode()) > 1 << 16
        assert hashlib.md5(done.stdout.encode()).hexdigest() == hashlib.md5(expected.encode()).hexdigest()
