"""Exact linear algebra over Gaussian rationals.

One sparse, fraction-free Gauss–Jordan elimination over Gaussian
integers serves every routine here. An input row is a sequence of
scalars or a ``{column: scalar}`` mapping, with any exact scalar
(``int``, ``Fraction`` or ``GaussianRational``, as
:func:`posetlab.scalars.narrow` produces them). Equal rows span the
same space, so a row equal to one already taken is skipped. Each row is
scaled by the lcm of the denominators of its parts and kept as a dict
from column to a ``(re, im)`` pair of plain ``int``; zero entries are
never stored. A row is cleared by cross-multiplying with the pivot row
(``row <- p*row - f*pivot_row``, Bareiss's integer-preserving step),
which touches only the union of the two rows' columns. Every row is
kept primitive: divided by the gcd of all its integer parts and, in a
matrix with an imaginary part, by the gcd of its entries in Z[i] (a
real row with integer content 1 is already primitive there), so the
integers stay small without building any ``Fraction``.

The elimination runs as a forward pass, which leaves each row with its
lead at its pivot, and then one back substitution, from the last pivot
row to the first (the classic order; Bareiss, *Math. Comp.* 22, 1968).
Eager Gauss–Jordan instead clears each new pivot's column from every
row taken so far, and those clears fill rows that later pivots clear
again: on the divisibility search 1000/2000 it makes 77,638 clears
against 23,572.

The pair search reports only the kernel's dimension and its first basis
vector made primitive, and :func:`kernel_candidate` does only that work.
Where every column is the largest nonzero column of some row, the rank
is full and nothing is eliminated. Otherwise the forward pass gives the
rank, and one triangular solve in the Gaussian integers over the pivot
rows before the first free column gives the vector; no back
substitution runs and no basis is built. :func:`nullspace` stays the
routine that builds the whole basis.

Scaling a row by a nonzero scalar never changes the row space, so the
elimination reaches the same reduced row echelon form as division-based
elimination over the field. That form is unique: the pivot columns, the
rref and the kernel basis do not depend on which row serves as a pivot
or on the order of the clears, so each pivot is the sparsest row
available, and the results are bit-reproducible. ``GaussianRational``
values are built only where results leave this module, once per
distinct (entry, pivot entry) pair in a call: cells with equal
quotients, most of them ±1 in a 0/1 search matrix, share one immutable
value.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from heapq import heappop, heappush
from itertools import chain
from math import gcd, lcm

from .posets import _check_cap
from .scalars import ONE, ZERO, GaussianRational


def _sparse_row(row) -> dict[int, tuple[int, int]]:
    """The nonzero entries of ``row``, a sequence or a ``{column: value}``
    mapping, times the lcm of their denominators, as ``{column: (re, im)}``
    ints."""
    cells = row.items() if isinstance(row, Mapping) else enumerate(row)
    entries = {c: v for c, v in cells if v}
    if all(type(v) is int for v in entries.values()):
        return {c: (v, 0) for c, v in entries.items()}
    parts = {c: (v.real, v.imag) for c, v in entries.items()}
    scale = lcm(*(x.denominator for pair in parts.values() for x in pair))
    return {
        c: (re.numerator * (scale // re.denominator), im.numerator * (scale // im.denominator))
        for c, (re, im) in parts.items()
    }


def _gaussian_gcd(values) -> tuple[int, int]:
    """A gcd in Z[i] of the ``(re, im)`` pairs, by Euclid's algorithm with
    each quotient rounded to the nearest Gaussian integer, so that every
    remainder has at most half the norm of its divisor. It stops at the
    first unit."""
    u, v = 0, 0
    for x, y in values:
        while x or y:
            # (u + vi) / (x + yi) = (u + vi)(x - yi) / n, rounded.
            n = x * x + y * y
            qr = (2 * (u * x + v * y) + n) // (2 * n)
            qi = (2 * (v * x - u * y) + n) // (2 * n)
            u, v, x, y = x, y, u - qr * x + qi * y, v - qr * y - qi * x
        if u * u + v * v == 1:
            break
    return u, v


def _primitive(row, gaussian: bool):
    """``row`` divided by the gcd of its integer parts and, if
    ``gaussian``, then by the gcd of its entries in Z[i]."""
    content = gcd(*chain.from_iterable(row.values()))
    if content > 1:
        row = {k: (a // content, b // content) for k, (a, b) in row.items()}
    if gaussian:
        c, d = _gaussian_gcd(row.values())
        n = c * c + d * d
        if n > 1:
            # (a + bi) / (c + di) = (a + bi)(c - di) / n, exactly.
            row = {k: ((a * c + b * d) // n, (b * c - a * d) // n) for k, (a, b) in row.items()}
    return row


def _clear(row, pivot_row, c, gaussian: bool):
    """``p*row - f*pivot_row`` made primitive (see ``_primitive``), where
    p and f are the entries in column ``c`` of ``pivot_row`` and ``row``.
    The result has no entry in column ``c``."""
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
    return _primitive(new, gaussian)


def _forward(rows):
    """The forward pass of a sparse fraction-free elimination. Returns
    the nonzero rows, each primitive, in ascending order of their
    leading columns, which are the pivot columns; those columns; and
    whether the matrix has an imaginary part. A row equal to an earlier
    one is skipped."""
    taken = set()
    sparse_rows = []
    for row in rows:
        # Keyed before conversion, so that a repeat costs one hash.
        key = tuple(row.items()) if isinstance(row, Mapping) else tuple(row)
        if key not in taken:
            taken.add(key)
            sparse = _sparse_row(row)
            if sparse:
                sparse_rows.append(sparse)
    # Clearing real rows gives real rows, and a real row with integer
    # content 1 is primitive over Z[i]: only a matrix with an imaginary
    # part needs Gaussian gcds.
    gaussian = any(b for row in sparse_rows for _, b in row.values())
    # Rows waiting for a pivot, bucketed by their leading column. Clearing
    # a row's leading column only moves its lead right, so the leads are
    # taken in ascending order from a heap.
    waiting: dict[int, list] = {}
    for row in sparse_rows:
        waiting.setdefault(min(row), []).append(_primitive(row, gaussian))
    leads = sorted(waiting)
    echelon: list = []
    pivots: list[int] = []
    while leads:
        c = heappop(leads)
        bucket = waiting.pop(c)
        pivot_row = min(bucket, key=len)
        for row in bucket:
            if row is not pivot_row:
                row = _clear(row, pivot_row, c, gaussian)
                if row:
                    lead = min(row)
                    if lead not in waiting:
                        waiting[lead] = []
                        heappush(leads, lead)
                    waiting[lead].append(row)
        echelon.append(pivot_row)
        pivots.append(c)
    return echelon, pivots, gaussian


def _back_substitute(echelon, pivots, gaussian: bool) -> None:
    """Clear, in place, every entry of the ``_forward`` rows in another
    row's pivot column. It goes from the last pivot row to the first:
    the rows below row j are already reduced, so clearing row j against
    one of them removes that pivot's column and adds only free columns,
    and the pivot columns to clear are known before the first clear."""
    position = {c: j for j, c in enumerate(pivots)}
    for j in reversed(range(len(echelon) - 1)):
        row = echelon[j]
        for c in [k for k in row if k in position and k != pivots[j]]:
            row = _clear(row, echelon[position[c]], c, gaussian)
        echelon[j] = row


def _eliminate(rows):
    """Sparse fraction-free Gauss–Jordan elimination, as a forward pass
    and one back substitution. Returns the nonzero rows, each primitive
    and without an entry in any pivot column but its own, and the pivot
    columns, ascending. A row equal to an earlier one is skipped."""
    echelon, pivots, gaussian = _forward(rows)
    _back_substitute(echelon, pivots, gaussian)
    return echelon, pivots


def _quotient(value, pivot) -> GaussianRational:
    """The Gaussian integers ``value / pivot`` as a ``GaussianRational``:
    a / (pr + pi*i) = a * (pr - pi*i) / norm."""
    a, b = value
    pr, pi = pivot
    norm = pr * pr + pi * pi
    return GaussianRational(Fraction(a * pr + b * pi, norm), Fraction(b * pr - a * pi, norm))


def _check_basis_cap(dimension: int, ncols: int) -> None:
    """Refuse a kernel basis of more than ``DEFAULT_ELEMENT_CAP`` cells."""
    cells = dimension * ncols
    _check_cap(cells, f"kernel basis of {cells} cells exceeds cap {{cap}}")


def nullspace(rows: list, ncols: int) -> list[list[GaussianRational]]:
    """Basis of the kernel of the matrix, one vector per free column in
    ascending column order. An empty row list gives the standard basis.
    The basis holds (``ncols`` - rank) * ``ncols`` cells; past
    ``DEFAULT_ELEMENT_CAP`` of them it is refused before any is built."""
    echelon, pivots = _eliminate(rows)
    _check_basis_cap(ncols - len(pivots), ncols)
    pivot_set = set(pivots)
    basis = {}
    for free in range(ncols):
        if free not in pivot_set:
            vector = basis[free] = [ZERO] * ncols
            vector[free] = ONE
    quotient = cache(_quotient)
    for row, c in zip(echelon, pivots):
        pr, pi = row[c]
        for k, (a, b) in row.items():
            if k != c:
                basis[k][c] = quotient((-a, -b), (pr, pi))
    return list(basis.values())


def _top_column(row):
    """The largest column of a nonzero entry of ``row``, or None."""
    if isinstance(row, Mapping):
        if row:
            top = max(row)
            if row[top]:
                return top
            return max((c for c, v in row.items() if v), default=None)
        return None
    return next((c for c in reversed(range(len(row))) if row[c]), None)


def _full_rank_certificate(rows, ncols: int) -> bool:
    """Whether every column is the largest nonzero column of some row.
    Those rows, one per column taken in column order, form a square
    submatrix that is triangular with a nonzero diagonal, so the rank is
    ``ncols``. False says nothing: the rank may still be full."""
    tops = set()
    for row in rows:
        top = _top_column(row)
        if top is not None:
            tops.add(top)
            if len(tops) == ncols:
                return True
    return not ncols


def kernel_candidate(rows: list, ncols: int) -> tuple[int, list[GaussianRational] | None]:
    """The kernel's dimension and its first basis vector, ``nullspace(rows,
    ncols)[0]``, made primitive as :func:`primitive_integer_vector` does;
    None for a trivial kernel. Refused where :func:`nullspace` refuses
    the basis, though no basis is built.

    A full-rank certificate (``_full_rank_certificate``) answers without
    eliminating. Otherwise the rank comes from the forward pass alone.
    The first basis vector is 1 at the first free column f0 and 0 past
    it, and every column before f0 is a pivot column, so the forward
    rows with pivots below f0, cut to columns up to f0, give it by one
    back solve. The solve stays in the Gaussian integers: each new entry
    is -sum / p for the row's pivot entry p, written with a positive
    integer denominator (|p|, or the norm of p for a Gaussian p), and
    where that does not divide the sum, the entries solved so far are
    multiplied by it over the gcd. Every factor is a positive integer,
    so the result is a positive multiple of the basis vector and has
    the same primitive form."""
    if _full_rank_certificate(rows, ncols):
        return 0, None
    echelon, pivots, _ = _forward(rows)
    dimension = ncols - len(pivots)
    _check_basis_cap(dimension, ncols)
    if not dimension:
        return 0, None
    # The pivots ascend and are distinct, so f0 is the first j with
    # pivots[j] != j.
    f0 = next((j for j, c in enumerate(pivots) if c != j), len(pivots))
    vector = {f0: (1, 0)}
    get = vector.get
    for j in reversed(range(f0)):
        row = echelon[j]
        sum_re = sum_im = 0
        for k, (a, b) in row.items():
            if k != j:
                entry = get(k)
                if entry is not None:
                    x, y = entry
                    sum_re += a * x - b * y
                    sum_im += a * y + b * x
        if not (sum_re or sum_im):
            continue
        # The new entry is -sum / p, written as -sum' / scale with a
        # positive integer scale: both are multiplied by the conjugate
        # of a Gaussian p, or by -1 for a negative p.
        pr, pi = row[j]
        if pi:
            scale = pr * pr + pi * pi
            sum_re, sum_im = sum_re * pr + sum_im * pi, sum_im * pr - sum_re * pi
        elif pr < 0:
            scale, sum_re, sum_im = -pr, -sum_re, -sum_im
        else:
            scale = pr
        common = gcd(scale, sum_re, sum_im)
        if common != scale:
            scale //= common
            for k, (x, y) in vector.items():
                vector[k] = (scale * x, scale * y)
        vector[j] = (-sum_re // common, -sum_im // common)
    return dimension, _primitive_vector(vector, ncols)


def primitive_integer_vector(vector: list) -> list[GaussianRational]:
    """Scale a rational vector to integer entries with content 1 and a
    "positive" leading entry (real part positive, or zero real part and
    positive imaginary part). The zero vector stays zero."""
    return _primitive_vector(_sparse_row(vector), len(vector))


def _primitive_vector(entries, length: int) -> list[GaussianRational]:
    """The vector of ``length`` with the Gaussian integer ``entries``,
    ``{column: (re, im)}`` without zeros, divided by their integer
    content, negated if needed for a "positive" leading entry."""
    scaled = [ZERO] * length
    if entries:
        content = gcd(*chain.from_iterable(entries.values()))
        lead_re, lead_im = entries[min(entries)]
        if lead_re < 0 or (not lead_re and lead_im < 0):
            content = -content
        for k, (a, b) in entries.items():
            scaled[k] = GaussianRational(a // content, b // content)
    return scaled
