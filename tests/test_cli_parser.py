"""A CLI call builds only the subparser it runs.

``run`` builds the parser of the subcommand that ``argv`` starts with,
and the full parser, with every subcommand, for anything else: no
arguments, ``-h``, an option first or an unknown word.
"""

import argparse
import contextlib
import io

import pytest

import posetlab.cli as cli

COMMANDS = list(cli._HANDLERS)


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


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("rest", [[], ["-h"]], ids=["bare", "help"])
def test_a_command_builds_only_its_own_subparser(command, rest, monkeypatch):
    assert built_subparsers(monkeypatch, [command, *rest]) == [command]


def test_a_full_invocation_builds_one_subparser(monkeypatch):
    argv = ["mobius", "--poset", "divisibility", "--x", "2", "--y", "12"]
    assert built_subparsers(monkeypatch, argv) == ["mobius"]


@pytest.mark.parametrize("argv", [[], ["-h"], ["frobnicate"], ["--json", "mobius"]], ids=repr)
def test_anything_else_builds_every_subparser(argv, monkeypatch):
    assert built_subparsers(monkeypatch, argv) == COMMANDS


def test_build_parser_defaults_to_every_command():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == COMMANDS
    (sub,) = [a for a in cli.build_parser("census")._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == ["census"]
