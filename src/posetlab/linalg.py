"""Exact linear algebra over Gaussian rationals.

One sparse, fraction-free Gauss–Jordan elimination over Gaussian
integers serves every routine here. Input rows may hold any exact
scalar (``int``, ``Fraction`` or ``GaussianRational``, as
:func:`posetlab.scalars.narrow` produces them). Each row is scaled by
the lcm of the denominators of its parts and kept as a dict from column
to a ``(re, im)`` pair of plain ``int``; zero entries are never stored.
A row is cleared by cross-multiplying with the pivot row
(``row <- p*row - f*pivot_row``, Bareiss's integer-preserving step),
which touches only the union of the two rows' columns, and is then
divided by the gcd of all its integer parts, so the integers stay small
without building any ``Fraction``.

Scaling a row by a nonzero scalar never changes the row space, so the
elimination reaches the same reduced row echelon form as division-based
elimination over the field. That form is unique: the pivot columns, the
rref and the kernel basis do not depend on which row serves as a pivot,
so each pivot is the sparsest row available, and the results are
bit-reproducible. ``GaussianRational`` values are built only where
results leave this module.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from itertools import chain
from math import gcd, lcm

from .scalars import ONE, ZERO, GaussianRational


def _sparse_row(row) -> dict[int, tuple[int, int]]:
    """The nonzero entries of ``row`` times the lcm of their
    denominators, as ``{column: (re, im)}`` ints."""
    entries = {c: v for c, v in enumerate(row) if v}
    if all(type(v) is int for v in entries.values()):
        return {c: (v, 0) for c, v in entries.items()}
    parts = {c: (v.real, v.imag) for c, v in entries.items()}
    scale = lcm(*(x.denominator for pair in parts.values() for x in pair))
    return {
        c: (re.numerator * (scale // re.denominator), im.numerator * (scale // im.denominator))
        for c, (re, im) in parts.items()
    }


def _clear(row, pivot_row, c):
    """``p*row - f*pivot_row`` divided by its content, where p and f are
    the entries in column ``c`` of ``pivot_row`` and ``row``. The result
    has no entry in column ``c``."""
    pr, pi = pivot_row[c]
    fr, fi = row[c]
    # Real pivots, most of them 1, are the rule on 0/1 matrices; skipping
    # the Gaussian product halves the time of a search at the cell cap.
    if pi:
        new = {k: (pr * a - pi * b, pr * b + pi * a) for k, (a, b) in row.items()}
    elif pr == 1:
        new = dict(row)
    else:
        new = {k: (pr * a, pr * b) for k, (a, b) in row.items()}
    get = new.get
    for k, (x, y) in pivot_row.items():
        sub_re, sub_im = fr * x - fi * y, fr * y + fi * x
        old = get(k)
        if old is None:
            new[k] = (-sub_re, -sub_im)
        else:
            re, im = old[0] - sub_re, old[1] - sub_im
            if re or im:
                new[k] = (re, im)
            else:
                del new[k]
    content = gcd(*chain.from_iterable(new.values()))
    if content > 1:
        new = {k: (a // content, b // content) for k, (a, b) in new.items()}
    return new


def _eliminate(rows):
    """Sparse fraction-free Gauss–Jordan elimination. Returns the
    nonzero rows, each without an entry in any pivot column but its own,
    and the pivot columns, ascending."""
    # Rows waiting for a pivot, bucketed by their leading column. Clearing
    # a row's leading column only moves its lead right, so the leads are
    # taken in ascending order from a heap.
    waiting: dict[int, list] = {}
    for row in rows:
        sparse = _sparse_row(row)
        if sparse:
            waiting.setdefault(min(sparse), []).append(sparse)
    leads = sorted(waiting)
    echelon: list = []
    pivots: list[int] = []
    while leads:
        c = heappop(leads)
        bucket = waiting.pop(c)
        pivot_row = min(bucket, key=len)
        for row in bucket:
            if row is not pivot_row:
                row = _clear(row, pivot_row, c)
                if row:
                    lead = min(row)
                    if lead not in waiting:
                        waiting[lead] = []
                        heappush(leads, lead)
                    waiting[lead].append(row)
        for i, row in enumerate(echelon):
            if c in row:
                echelon[i] = _clear(row, pivot_row, c)
        echelon.append(pivot_row)
        pivots.append(c)
    return echelon, pivots


def _quotient(value, pivot) -> GaussianRational:
    """The Gaussian integers ``value / pivot`` as a ``GaussianRational``:
    a / (pr + pi*i) = a * (pr - pi*i) / norm."""
    a, b = value
    pr, pi = pivot
    norm = pr * pr + pi * pi
    return GaussianRational(Fraction(a * pr + b * pi, norm), Fraction(b * pr - a * pi, norm))


def reduced_row_echelon(rows: list[list]):
    """Return (rref rows, pivot column indices). Input is not mutated;
    zero rows are dropped."""
    echelon, pivots = _eliminate(rows)
    ncols = len(rows[0]) if rows else 0
    rref = []
    for row, c in zip(echelon, pivots):
        dense = [ZERO] * ncols
        for k, value in row.items():
            dense[k] = _quotient(value, row[c])
        rref.append(dense)
    return rref, pivots


def nullspace(rows: list[list], ncols: int) -> list[list[GaussianRational]]:
    """Basis of the kernel of the matrix, one vector per free column in
    ascending column order. An empty row list gives the standard basis."""
    echelon, pivots = _eliminate(rows)
    pivot_set = set(pivots)
    basis = {}
    for free in range(ncols):
        if free not in pivot_set:
            vector = basis[free] = [ZERO] * ncols
            vector[free] = ONE
    for row, c in zip(echelon, pivots):
        pr, pi = row[c]
        for k, (a, b) in row.items():
            if k != c:
                basis[k][c] = _quotient((-a, -b), (pr, pi))
    return list(basis.values())


def in_span(basis: list[list], vector: list) -> bool:
    """Whether ``vector`` is a linear combination of the basis vectors."""
    echelon, pivots = _eliminate(basis)
    residual = _sparse_row(vector)
    for row, c in zip(echelon, pivots):
        if c in residual:
            residual = _clear(residual, row, c)
    return not residual


def primitive_integer_vector(vector: list) -> list[GaussianRational]:
    """Scale a rational vector to integer entries with content 1 and a
    "positive" leading entry (real part positive, or zero real part and
    positive imaginary part). The zero vector stays zero."""
    entries = _sparse_row(vector)
    scaled = [ZERO] * len(vector)
    if entries:
        content = gcd(*chain.from_iterable(entries.values()))
        lead_re, lead_im = entries[min(entries)]
        if lead_re < 0 or (not lead_re and lead_im < 0):
            content = -content
        for k, (a, b) in entries.items():
            scaled[k] = GaussianRational(a // content, b // content)
    return scaled
