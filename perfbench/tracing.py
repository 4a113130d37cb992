"""Layer tracing for one CLI job, installed from outside the program.

``install`` wraps the public entry points of each posetlab layer where
the callers look them up: module attributes for ``from`` imports
(``posetlab.cli.materialize``, ``posetlab.lab.nullspace``, ...), class
attributes for methods (the ``_leq`` and ``_interval`` of every built-in
family, the row recursions of ``IntervalFunction``, the arithmetic of
``GaussianRational``). A wrapped call either records a span (name,
start, end, parent span, job id) or, for hot calls such as order tests
and scalar arithmetic, only bumps a counter. Spans and counters stay in
memory; ``Tracer.report`` hands them over when the job exits.

Nothing here changes what a wrapped call returns, so traced stdout is
byte-identical to untraced stdout. A hook whose target is missing is
skipped, and its metrics read zero.
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import Counter

now = time.perf_counter_ns


class Tracer:
    def __init__(self, job: str):
        self.job = job
        self.spans: list = []  # [name, start_ns, end_ns, parent index, job]
        self.stack: list = []
        self.counts: Counter = Counter()

    def timed(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so that each call records a span; ``on_result``
        sees the call's arguments and result for counting."""
        spans, stack, job = self.spans, self.stack, self.job

        def wrapper(*args, **kwargs):
            span = [name, now(), 0, stack[-1] if stack else -1, job]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = now()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    def parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def report(self, extra: dict) -> dict:
        return {"job": self.job, "counts": dict(self.counts, **extra), "spans": self.spans}


class _PointCounter:
    """Stands in for the function ``materialize`` evaluates, counting
    evaluated points and nonzero values."""

    def __init__(self, e, counts: Counter):
        self.poset = e.poset
        self._e = e
        self._counts = counts

    def __call__(self, y):
        value = self._e(y)
        self._counts["functions.points"] += 1
        if value:
            self._counts["functions.nonzero"] += 1
        return value


def _patch(owner, attr: str, make):
    """Replace ``owner.attr`` with ``make(original)`` if it exists."""
    original = getattr(owner, attr, None) if owner is not None else None
    if original is not None:
        setattr(owner, attr, make(original))


def install(job: str) -> Tracer:
    import posetlab.cli as cli
    import posetlab.functions as functions
    import posetlab.incidence as incidence
    import posetlab.lab as lab
    import posetlab.numtheory as numtheory
    import posetlab.posets as posets
    import posetlab.scalars as scalars

    tracer = Tracer(job)
    counts = tracer.counts

    # cli: handler dispatch and rendering (json.dumps plus print).
    handlers = getattr(cli, "_HANDLERS", {})
    for command, handler in list(handlers.items()):
        handlers[command] = tracer.timed("cli.handler", handler)
    shim = types.ModuleType("json")
    shim.__dict__.update(json.__dict__)
    shim.dumps = tracer.timed("cli.render", json.dumps)
    cli.json = shim
    cli.print = tracer.timed("cli.render", print)

    # functions: materialise, counting evaluated points and nonzero values.
    def counting_materialize(original):
        return tracer.timed(
            "functions.materialize",
            lambda e, w, **kwargs: original(_PointCounter(e, counts), w, **kwargs),
        )

    for module in (cli, lab):
        _patch(module, "materialize", counting_materialize)

    # posets: window enumeration, and per family order tests and intervals.
    def count_window(args, result):
        counts["posets.window_elements"] += len(result)

    for module in (functions, lab):
        _patch(module, "enumerate_window",
               lambda f: tracer.timed("posets.window", f, count_window))

    def count_interval(args, result):
        counts["posets.interval_elements"] += len(result)

    def interval_hook(original):
        timed = tracer.timed("posets.interval", original, count_interval)

        def run(*args):
            in_row = tracer.parent_name() == "incidence.row"
            result = timed(*args)
            if in_row:
                counts["incidence.row_walk"] += len(result)
            return result

        return run

    for cls in {type(p) for p in getattr(posets, "_BUILTINS", {}).values()}:
        _patch(cls, "_leq", lambda f: tracer.counted("posets.leq_calls", f))
        _patch(cls, "_interval", interval_hook)

    # incidence: row recursions, convolutions, memo reads and fills.
    interval_function = getattr(incidence, "IntervalFunction", None)

    def row_hook(original):
        timed = tracer.timed("incidence.row", original)

        def run(self, x, y):
            before = len(self._memo)
            result = timed(self, x, y)
            counts["incidence.rows"] += 1
            counts["incidence.row_fills"] += len(self._memo) - before
            return result

        return run

    def memo_hook(original):
        def run(self, x, y):
            counts["incidence.memo_reads"] += 1
            if (x, y) in self._memo:
                counts["incidence.memo_hits"] += 1
            return original(self, x, y)

        return run

    _patch(interval_function, "_mobius_row", row_hook)
    _patch(interval_function, "_inverse_row", row_hook)
    _patch(interval_function, "_convolution",
           lambda f: tracer.timed("incidence.convolution", f))
    _patch(interval_function, "_evaluate_canonical", memo_hook)

    # linalg: kernel computations, with matrix cells and rank.
    def count_nullspace(args, basis):
        rows, ncols = args
        counts["linalg.cells"] += len(rows) * ncols
        counts["linalg.rank"] += ncols - len(basis)

    _patch(lab, "nullspace", lambda f: tracer.timed("linalg.nullspace", f, count_nullspace))

    # numtheory: factorisations and primality tests (module globals, so
    # callers inside numtheory and `numtheory.x` lookups both see them).
    def count_factor(args, result):
        counts["numtheory.factor_calls"] += 1

    _patch(numtheory, "prime_factors",
           lambda f: tracer.timed("numtheory.factor", f, count_factor))
    _patch(numtheory, "is_prime", lambda f: tracer.counted("numtheory.is_prime_calls", f))

    # lab: witness checks, witness streams, verification, censuses, searches.
    def count_check(args, conditions):
        counts["lab.witness.candidates"] += 1
        if conditions.all_hold:
            counts["lab.witness.accepted"] += 1

    _patch(lab, "check_witness_conditions",
           lambda f: tracer.timed("lab.check_witness", f, count_check))
    _patch(cli, "witnesses",
           lambda f: tracer.timed("lab.witnesses", lambda *a: list(f(*a))))
    _patch(cli, "verify_uncertainty_witnesses", lambda f: tracer.timed("lab.verify", f))
    _patch(cli, "conjecture_experiment", lambda f: tracer.timed("lab.conjecture", f))
    for module in (cli, lab):
        _patch(module, "support_census", lambda f: tracer.timed("lab.census", f))
        _patch(module, "finite_support_pair_search",
               lambda f: tracer.timed("lab.pair_search", f))

    # scalars: every arithmetic result, by the narrowest type it fits.
    gaussian = getattr(scalars, "GaussianRational", None)

    def scalar_hook(original):
        def run(*args):
            result = original(*args)
            if isinstance(result, gaussian):
                counts["scalars.ops"] += 1
                if result.imag:
                    counts["scalars.gaussian"] += 1
                elif result.real.denominator == 1:
                    counts["scalars.integer"] += 1
            return result

        return run

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__"):
        _patch(gaussian, name, scalar_hook)

    return tracer


def memo_entries() -> int:
    """Entries held by the shared Mobius memos when the job ends."""
    incidence = sys.modules.get("posetlab.incidence")
    instances = getattr(incidence, "_MOBIUS_INSTANCES", {})
    return sum(len(getattr(fn, "_memo", ())) for fn in list(instances.values()))
