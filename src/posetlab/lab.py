"""Experimental machinery for support-uncertainty questions.

A poset adheres to the uncertainty principle (with respect to an inverse
pair of interval functions) when no function and its transform both have
finite nonzero support. This module operationalises the three ways one
probes that property at desk scale:

* **witnesses** -- given y and a finite avoid set S, hunt for elements
  z > y that pass three checks: the part of ideal(z) beyond ideal(y)
  misses S, Mobius values factor through y (mu(x,y) mu(y,z) = mu(x,z)
  below y), and mu(y,z) is nonzero. For such z, inverting any g
  supported inside S forces f(z) = mu(y,z) f(y), so nonzero values of f
  propagate upward forever. Divisibility, multisets and subsets raise
  y by one fresh atom (z = y*q over fresh primes q, z = y + {q} over
  fresh ground elements q); the chain tries only z = y + 1, the one
  z > y with mu(y, z) != 0, and explicit posets scan every element
  above y, within the budget. The checks and the verification read
  whole columns x -> mu(x, z) of the Mobius function, each solved once
  over ideal(z): y's once per stream, each candidate's once, by one
  difference pass per coordinate of its ideal's grid.

* **censuses** -- the support set {y : a(x, y) != 0} restricted to a
  window, with a verdict attached only where a built-in analytic
  certificate applies (finite for the chain Mobius function, infinite
  for the Mobius functions of divisibility, multisets, and subsets);
  everything else is reported as inconclusive beyond the window.

* **pair search** -- an exact homogeneous linear system looking for a
  nonzero f supported in a window whose transform vanishes on a larger
  shell; a nontrivial kernel exhibits a finite/finite candidate pair
  (verified only up to the shell), a trivial kernel rules one out at
  this truncation.

A conjecture experiment first checks that its pair (a, b) convolves to
delta on the shell. Where a and b are each a power of zeta (zeta, delta
or an inverse of one of these), the two powers decide it without
evaluating anything; elsewhere it sums the convolution on every
comparable pair.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import (
    ElementOutsideWindow,
    InsufficientWitnesses,
    InvalidInput,
    NotInverses,
    NotInvertible,
    NotStrictlyAbove,
    PosetMismatch,
    WindowNotNested,
    WitnessConclusionViolated,
    ZeroFunction,
)
from .functions import (
    FiniteSupportFunction,
    _materialize_elements,
    alpha_transform,
    function_to_document,
    mobius_inversion,
)
from .incidence import IntervalFunction, convolve, mobius_function, zeta_function
from .linalg import kernel_candidate
from .posets import INCONCLUSIVE, Poset, Window, _check_cap, _Record, enumerate_window
from .scalars import GaussianRational, as_scalar

DEFAULT_BUDGET = 10_000

# A pair-search row walks the grid of ideal(y) while the bound on its
# size is at most this many times the window, and otherwise tests each
# unknown. A walked element costs about a third (subsets) of an order
# test, and the bound, y's position in the shell, exceeds most ideals.
_WALK_FACTOR = 4


class WitnessConditions(NamedTuple):
    disjoint: bool
    factorize: bool
    nonzero: bool
    mu_yz: GaussianRational

    @property
    def all_hold(self) -> bool:
        return self.disjoint and self.factorize and self.nonzero


class WitnessCertificate(_Record):
    """Record that ``z`` passed the witness conditions for ``(y, avoid_set)``.

    When produced while verifying a concrete inversion pair, the
    predicted value mu(y,z)*f(y) and the observed value of f(z) (by
    direct inversion over ideal(z)) are filled in; both are None for
    bare witness streams.
    """

    __slots__ = (
        "y", "avoid_set", "z", "cond_disjoint", "cond_factorize", "cond_nonzero", "mu_yz",
        "predicted_fz", "observed_fz",
    )

    def __init__(
        self, y, avoid_set, z, cond_disjoint, cond_factorize, cond_nonzero, mu_yz,
        predicted_fz=None, observed_fz=None,
    ):
        self._fill(locals())

    @property
    def all_conditions(self) -> bool:
        return self.cond_disjoint and self.cond_factorize and self.cond_nonzero

    def to_json_dict(self, p: Poset) -> dict:
        fmt = p.format_element
        return {
            "y": fmt(self.y),
            "avoid_set": [fmt(s) for s in self.avoid_set],
            "z": fmt(self.z),
            "cond_disjoint": self.cond_disjoint,
            "cond_factorize": self.cond_factorize,
            "cond_nonzero": self.cond_nonzero,
            "mu_yz": str(self.mu_yz),
            "predicted_fz": None if self.predicted_fz is None else str(self.predicted_fz),
            "observed_fz": None if self.observed_fz is None else str(self.observed_fz),
        }


class SupportCensus(_Record):
    """Window-restricted support of an interval function's row at ``x``."""

    __slots__ = ("x", "function_name", "window", "members", "verdict", "certificate_note")

    def __init__(self, x, function_name, window, members, verdict, certificate_note):
        self._fill(locals())

    def to_json_dict(self, p: Poset) -> dict:
        return {
            "x": p.format_element(self.x),
            "function": self.function_name,
            "window": self.window.label(),
            "members": [p.format_element(m) for m in self.members],
            "count": len(self.members),
            "verdict": self.verdict,
            "certificate_note": self.certificate_note,
        }


class PairSearchResult(_Record):
    """Outcome of the finite-support pair search.

    ``unknowns`` lists the window elements, the columns of the search
    matrix, whose sparse ``{column: value}`` rows ``rows`` holds (hidden
    from ``repr`` and absent from the JSON). The record keeps the whole
    matrix, up to ``DEFAULT_ELEMENT_CAP`` cells, and no kernel basis:
    equality, copies and pickles compare or copy the rows, so two
    searches with one kernel but other rows differ; a kernel basis is
    ``linalg.nullspace(rows, len(unknowns))``. ``candidate`` (when
    present) is a pair (f, g) with f a primitive integer kernel vector
    and g its transform materialised on the shell. Vanishing of g beyond
    the shell is never checked, hence the caveat.
    """

    __slots__ = ("window", "shell", "nullspace_dimension", "unknowns", "rows", "candidate", "caveat")
    _repr_hidden = ("rows",)

    def __init__(
        self, window, shell, nullspace_dimension, unknowns, rows,
        candidate=None, caveat="verified only on shell",
    ):
        self._fill(locals())

    def vector_in_nullspace(self, f: FiniteSupportFunction) -> bool:
        """Whether a function supported in the window lies in the kernel:
        whether every row vanishes on its values at the unknowns."""
        if f.poset != self.window.poset:
            raise PosetMismatch("function lives on a different poset")
        vector = [f[x] for x in self.unknowns]
        return not any(sum(value * vector[c] for c, value in row.items()) for row in self.rows)

    def to_json_dict(self, p: Poset) -> dict:
        fmt = p.format_element
        candidate = None
        if self.candidate is not None:
            f, g = self.candidate
            candidate = {"f": function_to_document(f)["values"], "g": function_to_document(g)["values"]}
        return {
            "window": self.window.label(),
            "shell": self.shell.label(),
            "nullspace_dimension": self.nullspace_dimension,
            "unknowns": [fmt(x) for x in self.unknowns],
            "candidate": candidate,
            "caveat": self.caveat,
        }


class ConjectureReport(_Record):
    """Necessary-condition censuses juxtaposed with a pair-search outcome
    for an inverse pair (a, b). Evidence only; no verdict is drawn."""

    __slots__ = ("poset", "alpha_name", "beta_name", "window", "shell", "censuses", "pair_search")

    def __init__(self, poset, alpha_name, beta_name, window, shell, censuses, pair_search):
        self._fill(locals())

    def to_json_dict(self) -> dict:
        p = self.poset
        return {
            "poset": p.family,
            "alpha": self.alpha_name,
            "beta": self.beta_name,
            "window": self.window.label(),
            "shell": self.shell.label(),
            "censuses": [
                {
                    "x": p.format_element(x),
                    "alpha_support": sa.to_json_dict(p),
                    "beta_support": sb.to_json_dict(p),
                }
                for x, sa, sb in self.censuses
            ],
            "pair_search": self.pair_search.to_json_dict(p),
        }


# -- witness conditions ------------------------------------------------


def check_witness_conditions(p: Poset, y, avoid_set, z) -> WitnessConditions:
    """Evaluate the three witness conditions for z > y against a finite
    avoid set: (ideal(z) - ideal(y)) misses the set, Mobius values
    factor through y on all of ideal(y), and mu(y, z) != 0.

    The columns x -> mu(x, y) and x -> mu(x, z) are lines of the shared
    Mobius function, each solved whole in one walk down its ideal and
    kept, so y's is solved once per stream and verification reads z's
    again; y's line holds exactly ideal(y), in any order."""
    y, z = p.canon(y), p.canon(z)
    if not (p._leq(y, z) and y != z):
        raise NotStrictlyAbove(
            f"{p.format_element(z)} is not strictly above {p.format_element(y)}"
        )
    # s lies in ideal(z) - ideal(y) exactly when s <= z and not s <= y.
    disjoint = not any(
        p._leq(s, z) and not p._leq(s, y) for s in {p.canon(s) for s in avoid_set}
    )
    mobius = mobius_function(p)
    bottom = p.bottom()
    column_y = mobius._column(bottom, y)
    column_z = mobius._column(bottom, z)
    mu_yz = column_z[y]
    factorize = all(mu_xy * mu_yz == column_z[x] for x, mu_xy in column_y.items())
    return WitnessConditions(disjoint, factorize, bool(mu_yz), as_scalar(mu_yz))


def witnesses(
    p: Poset, y, avoid_set, count: int, budget: int = DEFAULT_BUDGET
) -> Iterator[WitnessCertificate]:
    """Stream up to ``count`` witness certificates for (y, avoid_set),
    drawing at most ``budget`` candidates. A short stream means the
    budget or the family's candidates ran out, not proof of absence."""
    if count < 1:
        raise InvalidInput(f"count must be >= 1, got {count}")
    if budget < 1:
        raise InvalidInput(f"budget must be >= 1, got {budget}")
    return _witness_stream(p, p.canon(y), {p.canon(s) for s in avoid_set}, count, budget)


def _witness_stream(p, y, avoid, count, budget):
    avoid_sorted = tuple(sorted(avoid, key=p.sort_key))
    found = 0
    for tried, z in enumerate(p.witness_candidates(y, avoid)):
        if tried >= budget:
            return
        conditions = check_witness_conditions(p, y, avoid, z)
        if not conditions.all_hold:
            continue
        yield WitnessCertificate(
            y=y,
            avoid_set=avoid_sorted,
            z=z,
            cond_disjoint=conditions.disjoint,
            cond_factorize=conditions.factorize,
            cond_nonzero=conditions.nonzero,
            mu_yz=conditions.mu_yz,
        )
        found += 1
        if found >= count:
            return


def verify_uncertainty_witnesses(
    p: Poset, g: FiniteSupportFunction, count: int, budget: int = DEFAULT_BUDGET
) -> list[WitnessCertificate]:
    """Invert ``g``, take y, the first support element in canonical
    order, and certify ``count`` witnesses above it. No support element
    lies below y, so the inversion f vanishes there and f(y) = g(y) != 0.

    Every certificate carries the predicted value mu(y,z)*f(y) and the
    observed f(z) recomputed by a direct sum of mu(x,z)*g(x) over the
    support of g below z; the two must agree and be nonzero, which is
    exactly how a finite-support g forces the inverted function to have
    infinite support. The sum reads the column mu(., z), which the
    witness check has already solved.
    """
    if not g:
        raise ZeroFunction("the supplied function is identically zero")
    if g.poset != p:
        raise PosetMismatch("function lives on a different poset")
    base = g.support()[0]
    f_base = mobius_inversion(g)(base)
    # Fails only on faulty arithmetic.
    if f_base != g[base]:
        raise WitnessConclusionViolated(
            f"inversion at {p.format_element(base)} is {f_base}, not "
            f"g's value {g[base]}, although g vanishes below it"
        )

    mobius = mobius_function(p)
    bottom = p.bottom()
    certificates = []
    for cert in witnesses(p, base, g.support(), count, budget):
        predicted = cert.mu_yz * f_base
        column = mobius._column(bottom, cert.z)
        total = 0
        for x, g_x in g._entries.items():
            if x in column:
                total += column[x] * g_x
        observed = as_scalar(total)
        if not (observed == predicted and observed):
            raise WitnessConclusionViolated(
                f"witness conclusion violated at {p.format_element(cert.z)}: "
                f"observed {observed}, predicted {predicted}"
            )
        certificates.append(cert._replace(predicted_fz=predicted, observed_fz=observed))
    if len(certificates) < count:
        raise InsufficientWitnesses(certificates, count)
    return certificates


# -- censuses ----------------------------------------------------------

def support_census(p: Poset, a: IntervalFunction, x, w: Window) -> SupportCensus:
    """Collect {y in window : x <= y and a(x, y) != 0}, the support of the
    transform of the point mass at x by ``a`` on the window, with an
    analytic finiteness verdict where one of the built-in certificates
    applies and ``inconclusive-window-only`` otherwise."""
    if a.poset != p or w.poset != p:
        raise PosetMismatch("census arguments live on different posets")
    x = p.canon(x)
    elements = enumerate_window(w)
    if x not in elements:
        raise ElementOutsideWindow(
            f"{p.format_element(x)} is outside the window {w.label()}"
        )
    row = alpha_transform(FiniteSupportFunction(p, {x: 1}), a)
    members = _materialize_elements(row, w, elements).support()
    certificate = p.mobius_census if a is mobius_function(a.poset) else None
    verdict, note = certificate or (
        INCONCLUSIVE,
        "no analytic certificate for this function on this poset",
    )
    return SupportCensus(
        x=x,
        function_name=a.name,
        window=w,
        members=members,
        verdict=verdict,
        certificate_note=note,
    )


# -- finite-support pair search -----------------------------------------


def finite_support_pair_search(
    p: Poset, w: Window, shell: Window, beta: IntervalFunction | None = None
) -> PairSearchResult:
    """Search for a nonzero f supported in ``w`` whose transform by
    ``beta`` (the zeta function by default) vanishes on ``shell - w``.

    One homogeneous equation per shell element outside the window;
    unknowns are the window elements. Each row is sparse: beta's nonzero
    values, in narrowest form, at the unknowns below its shell element
    (see ``_pair_search_rows``). The search reports the kernel's
    dimension and, for a nontrivial kernel, a candidate pair: the first
    kernel basis vector normalised to integer entries with content 1,
    together with its transform materialised on the shell. Both come
    from :func:`posetlab.linalg.kernel_candidate`, which certifies full
    rank without eliminating where it can, and otherwise runs only the
    forward pass of the exact elimination and one triangular solve; the
    basis is never built. Vanishing beyond the shell remains unverified.
    The matrix, counted dense as (shell - window) x window cells, and
    the kernel basis, dimension x window cells, may each hold at most
    ``DEFAULT_ELEMENT_CAP`` cells, like each window.
    """
    if w.poset != p or shell.poset != p:
        raise PosetMismatch("windows live on a different poset")
    if beta is None:
        beta = zeta_function(p)
    elif beta.poset != p:
        raise PosetMismatch("transform function lives on a different poset")
    unknowns = enumerate_window(w)
    shell_elements = enumerate_window(shell)
    if not (set(unknowns) < set(shell_elements)):
        raise WindowNotNested(
            f"shell {shell.label()} must strictly contain window {w.label()}"
        )
    cells = (len(shell_elements) - len(unknowns)) * len(unknowns)
    _check_cap(cells, f"pair-search matrix of {cells} cells exceeds cap {{cap}}")
    rows = _pair_search_rows(p, unknowns, shell_elements, beta)
    dimension, vector = kernel_candidate(rows, len(unknowns))

    candidate = None
    if vector is not None:
        f = FiniteSupportFunction(p, zip(unknowns, vector))
        g = _materialize_elements(alpha_transform(f, beta), shell, shell_elements)
        candidate = (f, g)
    return PairSearchResult(
        window=w,
        shell=shell,
        nullspace_dimension=dimension,
        unknowns=unknowns,
        rows=rows,
        candidate=candidate,
    )


def _pair_search_rows(p: Poset, unknowns: list, shell_elements: list, beta: IntervalFunction) -> list:
    """The pair-search matrix as sparse rows: for each shell element y
    outside the window, in shell order, ``{c: beta(x, y)}`` over the
    unknowns x = ``unknowns[c]`` below y where the value is nonzero.

    The shell is a down-set listed in a linear extension, so the ideal
    of the element at position i has at most i + 1 elements. Where that
    is at most ``_WALK_FACTOR`` times the window and the family has a
    grid, the unknowns below y are read from a walk of ideal(y)'s grid,
    with no order test; so no such row visits more than
    ``_WALK_FACTOR`` elements per cell of the matrix. Elsewhere, and on
    every chain and explicit poset, whose ideals no shell keeps small
    next to the window, each unknown is tested against y. The values are
    evaluated in ascending column order either way, the order of a dense
    build, so a beta that raises raises the same error. Zeta, the
    default beta, is 1 on every interval and never raises: its rows are
    built as ``{c: 1}`` with no evaluation.

    An inverse beta's row is instead read from y's column line
    x -> beta(x, y), solved once down ideal(y) (see ``_column_row``);
    evaluated cell by cell, each cell would solve its own row over
    [x, y]. Only where the column meets a zero diagonal is the row
    built from its cells, to raise what they raise."""
    column = {x: c for c, x in enumerate(unknowns)}
    zeta = beta.kind == "zeta"
    inverse = beta.kind == "inverse"
    evaluate = beta._evaluate_canonical
    bottom = p.bottom()
    walk_limit = _WALK_FACTOR * len(unknowns)
    rows = []
    for i, y in enumerate(shell_elements):
        if y in column:
            continue
        row = _column_row(beta, bottom, y, column) if inverse else None
        if row is not None:
            rows.append(row)
            continue
        grid = p._grid(bottom, y) if i < walk_limit else None
        if grid is None:
            columns = [c for c, x in enumerate(unknowns) if p._leq(x, y)]
        else:
            columns = sorted(column[x] for x in grid[0] if x in column)
        if zeta:
            row = dict.fromkeys(columns, 1)
        else:
            row = {}
            for c in columns:
                value = evaluate(unknowns[c], y)
                if value:
                    row[c] = value
        rows.append(row)
    return rows


def _column_row(beta: IntervalFunction, bottom, y, column: dict) -> dict | None:
    """The pair-search row of y for an inverse ``beta``, read from y's
    column line, which holds all of ideal(y); None where solving it
    meets a zero diagonal, so that the row is built cell by cell and
    raises what a dense build raises. A line solved here is dropped once
    read, since no other row reads it: kept, the lines of the chain
    Möbius search 1000/2000 peaked at 111 MB, against 16 MB dropped."""
    lines = beta._columns
    kept = y in lines
    try:
        line = beta._column(bottom, y)
    except NotInvertible:
        return None
    finally:
        if not kept:
            lines.pop(y, None)
    return dict(sorted((column[x], v) for x, v in line.items() if v and x in column))


# -- combined evidence --------------------------------------------------


def _check_inverses(p: Poset, a: IntervalFunction, b: IntervalFunction, shell_elements: list) -> None:
    """Raise ``NotInverses`` at the first pair x <= y of the shell, in
    canonical order of x and then of y, where (a*b)(x, y) differs from
    delta.

    Where a and b are powers zeta^j and zeta^k (zeta, delta or an
    inverse of one of these), a*b is zeta^(j+k) in the incidence
    algebra (Rota), 1 on the diagonal and j + k on every cover. So a
    sum of 0 is delta, and any other sum first differs from it at the
    shell's first two elements, its bottom and an atom; nothing is
    evaluated. Elsewhere each (a*b)(x, y) is the defining sum over
    [x, y], computed and not memoised: no value is read twice."""
    powers = a._zeta_power(), b._zeta_power()
    if None not in powers:
        wrong = shell_elements[:2] if sum(powers) and len(shell_elements) > 1 else None
    else:
        product = convolve(a, b)
        wrong = next(
            (
                (x, y) for i, x in enumerate(shell_elements) for y in shell_elements[i:]
                if p._leq(x, y) and product._convolution(x, y) != (1 if x == y else 0)
            ),
            None,
        )
    if wrong is not None:
        x, y = wrong
        raise NotInverses(f"(a*b)({p.format_element(x)}, {p.format_element(y)}) != delta")


def conjecture_experiment(
    p: Poset,
    a: IntervalFunction,
    b: IntervalFunction,
    w: Window,
    shell: Window,
    sample_x,
) -> ConjectureReport:
    """Gather evidence relating the necessary condition (both support
    sets infinite for every base point) to actual adherence: census
    S_x and T_x for each sample point against both functions of an
    inverse pair, plus a pair search in the beta direction.

    The pair (a, b) is verified to convolve to delta on every interval
    inside the shell before anything else runs: from the two powers when
    both are powers of zeta, else pair by pair (see ``_check_inverses``).
    Either way the shell may hold at most ``DEFAULT_ELEMENT_CAP`` pairs
    of elements.
    No conclusion about the equivalence itself is drawn or implied.
    """
    if a.poset != p or b.poset != p:
        raise PosetMismatch("interval functions live on a different poset")
    if w.poset != p or shell.poset != p:
        raise PosetMismatch("windows live on a different poset")
    shell_elements = enumerate_window(shell)
    pairs = len(shell_elements) * (len(shell_elements) + 1) // 2
    _check_cap(pairs, f"inverse-pair check over {pairs} element pairs exceeds cap {{cap}}")
    _check_inverses(p, a, b, shell_elements)

    censuses = []
    for x in sample_x:
        x = p.canon(x)
        census_a = support_census(p, a, x, shell)
        census_b = support_census(p, b, x, shell)
        censuses.append((x, census_a, census_b))

    search = finite_support_pair_search(p, w, shell, beta=b)
    return ConjectureReport(
        poset=p,
        alpha_name=a.name,
        beta_name=b.name,
        window=w,
        shell=shell,
        censuses=censuses,
        pair_search=search,
    )
