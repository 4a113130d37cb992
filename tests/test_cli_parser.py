"""How a CLI call is parsed.

``run`` reads a well-formed call straight from the option table
``cli._COMMANDS`` and builds no argparse parser. Anything else (``-h``,
no arguments, an unknown word, an option first, a missing required
option, an abbreviation, ``--opt=value``, a repeat, a dash-prefixed
value, a bad int or choice) goes to the one argparse parser, generated
from the same table with every subcommand.

The table reader must agree with argparse wherever it accepts: the
property test below compares the two on generated argvs, and CI runs it
with a raised example count (``--hypothesis-profile=ci``).
"""

import argparse
import contextlib
import io
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posetlab.cli as cli
from posetlab.errors import UsageError
from test_cli_golden import CASES

# The bench job generator is reached through the path alone, as the
# seed package is in test_seed_parity.
sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

# The order in which ``posetlab -h`` lists the subcommands.
COMMANDS = [
    "mobius", "classical-mobius", "transform", "invert-transform", "convolve", "witness",
    "verify", "census", "search", "conjecture", "isomap",
]
NO_REQUIRED_OPTION = ["search", "conjecture", "isomap"]


def built_subparsers(monkeypatch, argv) -> list:
    """Names of the subparsers that ``cli.run(argv)`` adds, in order."""
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.run(argv)
        except SystemExit:
            pass
    return names


def test_the_table_lists_the_subcommands_in_help_order():
    assert list(cli._COMMANDS) == list(cli._HANDLERS) == COMMANDS


# Calls the table reader declines: argparse parses or refuses them.
DECLINED = [
    ["mobius", "--pos", "chain", "--x", "1", "--y", "2"],
    ["mobius", "--poset=chain", "--x", "1", "--y", "2"],
    ["mobius", "--poset", "chain", "--x", "1", "--y", "2", "--x", "3"],
    ["mobius", "--poset", "chain", "--x", "1", "--", "--y", "2"],
    ["mobius", "--poset", "chain", "--x", "1", "--y"],
    ["classical-mobius", "--n", "-3"],
    ["classical-mobius", "--n", "x"],
    ["census", "--poset", "chain", "--x", "1", "--alpha", "mu"],
    ["isomap", "--n", "3", "extra"],
]
WELL_FORMED = [["mobius", "--poset", "divisibility", "--x", "2", "--y", "12"]] + [
    [command] for command in NO_REQUIRED_OPTION
]
PARSED_BY_ARGPARSE = (
    [[command, "-h"] for command in COMMANDS]
    + [[command] for command in COMMANDS if command not in NO_REQUIRED_OPTION]
    + DECLINED
    + [[], ["-h"], ["frobnicate"], ["--json", "mobius"]]
)


@pytest.mark.parametrize("argv", WELL_FORMED, ids=" ".join)
def test_a_well_formed_call_builds_no_subparser(argv, monkeypatch):
    assert built_subparsers(monkeypatch, argv) == []


@pytest.mark.parametrize("argv", PARSED_BY_ARGPARSE, ids=repr)
def test_every_other_call_builds_every_subparser(argv, monkeypatch):
    assert cli._read_argv(argv) is None
    assert built_subparsers(monkeypatch, argv) == COMMANDS


def test_build_parser_has_every_command():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == COMMANDS


# -- the traffic the reader must accept -------------------------------------


GOLDEN_SUCCESSES = [argv for argv, status, *_ in CASES if status == 0]
BENCH_JOBS = [job.argv for name in workloads.WORKLOADS for seed in (1, 2) for job in workloads.jobs_for(name, seed)]


@pytest.mark.parametrize("argv", GOLDEN_SUCCESSES + BENCH_JOBS, ids=" ".join)
def test_golden_and_bench_calls_are_read_from_the_table(argv):
    assert cli._read_argv(argv) is not None


# -- the table reader agrees with argparse ----------------------------------

_ODD_INTS = ["", "x", "1.5", "+7", " 12 ", "1_000", "١٢", "0x10", "9" * 5000]
_DASHED = ["-3", "-h", "--", "-", "-x", "--json", "--poset", "--help"]
_INSERTED = ["-h", "--help", "--", "--frob", "extra", "-3", "--json", "--n"]


def _value(kind):
    """A value the reader accepts for an option of ``kind``."""
    if kind is int:
        return st.integers(0, 10**12).map(str)
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    return st.one_of(st.just(""), st.text(max_size=8).filter(lambda t: not t.startswith("-")))


@st.composite
def argvs(draw):
    """An argv and whether it is well-formed: a well-formed call of one
    of the eleven subcommands, mostly put through up to three edits from
    the classes the reader declines. Some edits (an odd int such as
    ``" 12 "``, an empty string, ``--json`` added) can keep it
    well-formed; only unedited calls count as well-formed."""
    command = draw(st.sampled_from(COMMANDS))
    options = cli._COMMANDS[command][1]
    groups = []
    for flag, (kind, default, _) in options.items():
        if default is cli._REQUIRED or draw(st.booleans()):
            groups.append([flag] if kind is bool else [flag, draw(_value(kind))])
    groups = draw(st.permutations(groups))
    edits = draw(st.integers(0, 3))
    for _ in range(edits):
        edit = draw(st.sampled_from(["abbrev", "equals", "repeat", "dashed", "odd int", "choice",
                                     "drop", "insert", "truncate", "command"]))
        at = draw(st.integers(0, max(len(groups) - 1, 0)))
        group = groups[at] if groups else None
        if edit == "abbrev" and group and len(group[0]) > 2:
            group[0] = group[0][: draw(st.integers(2, len(group[0]) - 1))]
        elif edit == "equals" and group:
            groups[at] = ["=".join(group)] if len(group) == 2 else [group[0] + "="]
        elif edit == "repeat" and group:
            groups.insert(draw(st.integers(0, len(groups))), list(group))
        elif edit == "dashed" and group and len(group) == 2:
            group[1] = draw(st.sampled_from(_DASHED))
        elif edit == "odd int" and group and len(group) == 2:
            group[1] = draw(st.sampled_from(_ODD_INTS))
        elif edit == "choice" and group and len(group) == 2:
            group[1] = draw(st.sampled_from(["Mobius", "mob", "zeta ", "", "delta\n"]))
        elif edit == "drop" and groups:
            del groups[at]
        elif edit == "insert":
            groups.insert(draw(st.integers(0, len(groups))), [draw(st.sampled_from(_INSERTED))])
        elif edit == "truncate" and group and len(group) == 2:
            groups.append(groups.pop(at)[:1])
        elif edit == "command":
            command = draw(st.sampled_from(["Mobius", command[:3], command + "s", "-h", "--json"]))
    return [command] + [word for group in groups for word in group], edits == 0


def _argparse_result(argv):
    """``vars`` of what argparse parses from ``argv``, or None where it
    refuses or prints help."""
    parser = cli.build_parser()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except (UsageError, SystemExit):
            return None


def _typed(values):
    return {name: (type(value), value) for name, value in values.items()}


# Deep: argparse's handling of "--" and dash-prefixed values differs across Python versions.
@pytest.mark.deep
@settings(deadline=None)
@given(case=argvs())
def test_the_table_reader_agrees_with_argparse(case):
    argv, well_formed = case
    read = cli._read_argv(argv)
    if well_formed:
        assert read is not None
    if read is not None:
        expected = _argparse_result(argv)
        assert expected is not None
        assert _typed(vars(read)) == _typed(expected)
