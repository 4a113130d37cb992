"""Seed parity: the CLI prints what the seed commit's CLI prints.

Random small invocations of all eleven subcommands, on the four built-in
families and a small explicit poset, in text and with ``--json``, and
the help text of the program and of every subcommand, are run through
``posetlab.cli.run`` and through ``run`` of the frozen seed package
``perfbench/seedref``, in-process and in a working directory that holds
the documents. Both must give the same exit status (or ``SystemExit``
code), stdout and stderr.

The generator leaves out, by input class, what has changed on purpose
since the seed; each class names the CHANGES.md line (by its number)
that changed it:

- chain witness streams (``witness`` and ``verify`` on the chain) get a
  ``--budget`` of at most 100: line 4, the quadratic-budget ``MENDED``
  line, under which the seed takes minutes at the default budget;
- explicit posets have list cover pairs only, never strings: line 5;
- multiset exponents stay far below the image cap: lines 8 and 10;
- every window, shell, interval and element stays far below the caps
  added since the seed: line 29, one element cap for every size.

Subsets shells have at most 6 ground elements: the seed's ``conjecture``
check on larger ones takes seconds per call. A few fixed argvs cover
subsets rows and columns of seven and eight atoms.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetlab import cli

# The seed package is reached through the path alone; nothing under
# perfbench/ is imported but the package itself.
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
from seedref import cli as seed_cli  # noqa: E402
from test_cli_parser import DECLINED  # noqa: E402

COMMANDS = sorted(cli._HANDLERS)
EXPLICIT = "diamond.json"
DOCUMENTS = {
    EXPLICIT: {"elements": ["a", "b", "c", "d"], "covers": [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]]},
}

_ELEMENTS = {
    "divisibility": st.integers(1, 36).map(str),
    "chain": st.integers(1, 30).map(str),
    "subsets": st.sets(st.integers(1, 4), max_size=4).map(lambda xs: "{" + ",".join(map(str, sorted(xs))) + "}"),
    "multisets": st.sampled_from(["1", "2", "3", "2^2", "2*3", "5", "2^2*3", "7", "2*3*5"]),
    EXPLICIT: st.sampled_from("abcd"),
}
# Encodings that are malformed or belong to another family.
_FOREIGN = st.sampled_from(["", "0", "-3", "x", "1.5", "{0}", "{1,,2}", "2^0", "4^2", "{1}", "2*3", "e"])
_FUNCTIONS = st.sampled_from(["delta", "mobius", "zeta"])
# Inverse pairs mostly, so that the conjecture check passes.
_PAIRS = st.one_of(
    st.sampled_from([("mobius", "zeta"), ("zeta", "mobius"), ("delta", "delta")]),
    st.tuples(_FUNCTIONS, _FUNCTIONS),
)
_SCALARS = st.one_of(
    st.integers(-9, 9).map(str),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9)),
    st.builds("{}-{}/{}i".format, st.integers(-9, 9), st.integers(1, 9), st.integers(1, 9)),
)
_DIVISORS = st.sampled_from([1, 6, 12, 30, 36, 60])


def _window(draw, family):
    """Window flags for ``family``: a small bound, or a divisor set on
    divisibility; none on the explicit poset, whose window is all of it."""
    if family == EXPLICIT:
        return []
    if family == "divisibility" and draw(st.booleans()):
        return ["--divisors", str(draw(_DIVISORS))]
    return ["--bound", str(draw(st.integers(1, 6 if family == "subsets" else 24)))]


def _shells(draw, family):
    """Window and shell flags, the shell mostly the larger: at most 6
    ground elements on subsets, 24 elsewhere."""
    if family == EXPLICIT:
        return []
    largest = 6 if family == "subsets" else 24
    bound = draw(st.integers(1, largest - 1))
    flags = ["--bound", str(bound), "--shell-bound", str(draw(st.integers(bound + 1, largest)))]
    if family == "divisibility" and draw(st.booleans()):
        flags += ["--divisors", str(draw(_DIVISORS)), "--shell-divisors", str(draw(_DIVISORS))]
    return flags


def _budget(draw, family):
    """Witness budgets: at most 100 on the chain (CHANGES.md line 4), the
    default too elsewhere."""
    if family != "chain" and draw(st.booleans()):
        return []
    return ["--budget", str(draw(st.integers(1, 100)))]


@st.composite
def invocations(draw):
    """An argv of one subcommand and the function document it reads."""
    command = draw(st.sampled_from(COMMANDS))
    family = draw(st.sampled_from(sorted(_ELEMENTS)))
    element = _ELEMENTS[family]
    if draw(st.integers(0, 5)) == 0:
        element = st.one_of(element, _FOREIGN)
    poset = ["--poset-file" if family == EXPLICIT else "--poset", family]
    document = None
    if command == "classical-mobius":
        argv = ["--n", str(draw(st.integers(-3, 10**8)))]
    elif command == "isomap":
        given_flags = draw(st.sampled_from([("--n",), ("--m",), (), ("--n", "--m")]))
        argv = ["--n", str(draw(st.integers(-3, 10**6)))] if "--n" in given_flags else []
        argv += ["--m", draw(_ELEMENTS["multisets"])] if "--m" in given_flags else []
    elif command in ("mobius", "convolve"):
        argv = poset + ["--x", draw(element), "--y", draw(element)]
        if command == "convolve":
            argv += ["--left", draw(_FUNCTIONS), "--right", draw(_FUNCTIONS)]
    elif command == "census":
        argv = poset + ["--x", draw(element), "--alpha", draw(_FUNCTIONS)] + _window(draw, family)
    elif command == "witness":
        avoid = ",".join(draw(st.lists(element, max_size=3)))
        argv = poset + ["--y", draw(element), "--avoid", avoid, "--count", str(draw(st.integers(1, 3)))]
        argv += _budget(draw, family)
    elif command in ("search", "conjecture"):
        alpha, beta = draw(_PAIRS)
        argv = poset + ["--beta", beta] + _shells(draw, family)
        if command == "conjecture":
            sample = ",".join(draw(st.lists(element, max_size=2)))
            argv += ["--alpha", alpha, "--sample", sample]
    else:  # transform, invert-transform, verify
        keys = draw(st.lists(element, min_size=command == "verify", max_size=3, unique=True))
        values = [draw(_SCALARS) for _ in keys]
        document = {"poset": family, "values": dict(zip(keys, values))}
        named = draw(st.booleans())
        argv = (poset if named else []) + ["--fn", "fn.json"]
        if command == "verify":
            argv += ["--count", str(draw(st.integers(1, 3)))] + _budget(draw, family)
        else:
            argv += _window(draw, family)
    return [command, *argv] + (["--json"] if draw(st.booleans()) else []), document


@contextlib.contextmanager
def _inside(directory):
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(cwd)


def _outcome(module, argv):
    """Exit status, or ``SystemExit`` code, stdout and stderr of
    ``module.run(argv)``; ``argv`` None reads ``sys.argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = module.run(None if argv is None else list(argv))
        except SystemExit as exc:
            status = ("SystemExit", exc.code)
    return status, out.getvalue(), err.getvalue()


def _both(argv, document=None):
    with tempfile.TemporaryDirectory() as work, _inside(work):
        for name, content in DOCUMENTS.items():
            Path(name).write_text(json.dumps(content), encoding="utf-8")
        if document is not None:
            Path("fn.json").write_text(json.dumps(document), encoding="utf-8")
        return _outcome(cli, argv), _outcome(seed_cli, argv)


@settings(max_examples=150, deadline=None)
@given(case=invocations())
def test_invocations_match_the_seed(case):
    argv, document = case
    current, seed = _both(argv, document)
    assert current == seed


@pytest.mark.parametrize("argv", [["-h"]] + [[command, "-h"] for command in COMMANDS], ids=" ".join)
def test_help_matches_the_seed(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    current, seed = _both(argv)
    assert current == seed
    assert current[0] == ("SystemExit", 0) and current[1]


# Subsets rows larger than the generator's six atoms: rows and columns
# over Boolean intervals of seven and eight atoms, where the row solver
# sums over down-sets.
LARGER_SUBSETS = [
    (["mobius", "--poset", "subsets", "--x", "{}", "--y", "{1,2,3,4,5,6,7,8}"], None),
    (["mobius", "--poset", "subsets", "--x", "{2}", "--y", "{1,2,3,4,5,6,7,8}", "--json"], None),
    (["witness", "--poset", "subsets", "--y", "{1,2,3,4,5,6,7}", "--count", "3"], None),
    (
        ["verify", "--fn", "fn.json", "--count", "2"],
        {"poset": "subsets", "values": {"{1,2,3,4,5,6}": "2", "{1,2,3,4,5,6,7}": "-1/3", "{1,2,3,4,5,6,8}": "1-1/2i"}},
    ),
]


@pytest.mark.parametrize("argv, document", LARGER_SUBSETS, ids=repr)
def test_larger_subsets_rows_match_the_seed(argv, document):
    current, seed = _both(argv, document)
    assert current == seed
    assert current[0] == 0


# Calls the table reader declines, among them the parser tests' declined
# spellings: they go to the CLI's argparse parser, whose help and errors
# list every subcommand.
FULL_PARSER_ARGVS = DECLINED + [
    [],
    ["--json"],
    ["--json", "mobius", "--poset", "chain", "--x", "1", "--y", "2"],
    ["frobnicate"],
    ["Mobius"],
    ["mob"],
    ["--help"],
    ["-h", "mobius"],
    ["mobius", "isomap"],
]


@pytest.mark.parametrize("argv", FULL_PARSER_ARGVS, ids=repr)
def test_full_parser_fallback_matches_the_seed(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    current, seed = _both(argv)
    assert current == seed


@pytest.mark.parametrize("argv", [[], ["mobius", "--poset", "chain", "--x", "1", "--y", "2"]], ids=repr)
def test_run_reads_sys_argv_as_the_seed_does(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "argv", ["posetlab", *argv])
    current, seed = _both(None)
    assert current == seed
