"""Exact linear algebra over Gaussian rationals.

One fraction-free Gauss–Jordan elimination serves every routine here.
Each input row is scaled by the lcm of the denominators of its real and
imaginary parts, so the elimination works on rows of Gaussian integers,
kept as two plain ``int`` lists. A row is cleared by cross-multiplying
with the pivot row (``row <- p*row - f*pivot_row``) and then divided by
the gcd of all its integer parts, which keeps the integers small
without building any ``Fraction``. Only the finished rows are divided
by their pivots.

Scaling a row by a nonzero scalar never changes the row space, so the
elimination reaches the same reduced row echelon form as division-based
elimination over the field: that form is unique. The pivot rule is
"first nonzero row", there is no other strategy, and results are
bit-reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import ONE, ZERO, GaussianRational


def _integer_row(row) -> tuple[list[int], list[int]]:
    """Real and imaginary parts of ``row`` times the lcm of their
    denominators, as two lists of ints."""
    reals = [v.real for v in row]
    imags = [v.imag for v in row]
    scale = lcm(*(x.denominator for x in reals), *(x.denominator for x in imags))
    return (
        [x.numerator * (scale // x.denominator) for x in reals],
        [x.numerator * (scale // x.denominator) for x in imags],
    )


def _clear(row, pivot_row, c):
    """``p*row - f*pivot_row`` divided by its content, where p and f are
    the Gaussian integers in column ``c`` of ``pivot_row`` and ``row``.
    The result is zero in column ``c``."""
    re, im = row
    pre, pim = pivot_row
    pr, pi, fr, fi = pre[c], pim[c], re[c], im[c]
    new_re = [pr * a - pi * b - fr * x + fi * y for a, b, x, y in zip(re, im, pre, pim)]
    new_im = [pr * b + pi * a - fr * y - fi * x for a, b, x, y in zip(re, im, pre, pim)]
    content = gcd(*new_re, *new_im)
    if content > 1:
        new_re = [a // content for a in new_re]
        new_im = [b // content for b in new_im]
    return new_re, new_im


def _eliminate(rows):
    """Fraction-free Gauss–Jordan elimination. Returns the nonzero
    integer rows, each zero in every pivot column but its own, and the
    pivot column indices."""
    work = [_integer_row(row) for row in rows]
    if not work:
        return [], []
    ncols = len(work[0][0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next(
            (i for i in range(r, len(work)) if work[i][0][c] or work[i][1][c]), None
        )
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        for i in range(len(work)):
            if i != r and (work[i][0][c] or work[i][1][c]):
                work[i] = _clear(work[i], work[r], c)
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def reduced_row_echelon(rows: list[list[GaussianRational]]):
    """Return (rref rows, pivot column indices). Input is not mutated;
    zero rows are dropped."""
    echelon, pivots = _eliminate(rows)
    rref = []
    for (re, im), c in zip(echelon, pivots):
        # a / (pr + pi*i) = a * (pr - pi*i) / norm
        pr, pi = re[c], im[c]
        norm = pr * pr + pi * pi
        rref.append(
            [
                GaussianRational(Fraction(a * pr + b * pi, norm), Fraction(b * pr - a * pi, norm))
                if a or b
                else ZERO
                for a, b in zip(re, im)
            ]
        )
    return rref, pivots


def nullspace(rows: list[list[GaussianRational]], ncols: int) -> list[list[GaussianRational]]:
    """Basis of the kernel of the matrix, one vector per free column in
    ascending column order. An empty row list gives the standard basis."""
    rref, pivots = reduced_row_echelon(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vector = [ZERO] * ncols
        vector[free] = ONE
        for row, pivot_col in zip(rref, pivots):
            vector[pivot_col] = -row[free]
        basis.append(vector)
    return basis


def in_span(basis: list[list[GaussianRational]], vector: list[GaussianRational]) -> bool:
    """Whether ``vector`` is a linear combination of the basis vectors."""
    echelon, pivots = _eliminate(basis)
    residual = _integer_row(vector)
    for row, c in zip(echelon, pivots):
        if residual[0][c] or residual[1][c]:
            residual = _clear(residual, row, c)
    return not any(residual[0]) and not any(residual[1])


def primitive_integer_vector(vector: list[GaussianRational]) -> list[GaussianRational]:
    """Scale a rational vector to integer entries with content 1 and a
    "positive" leading entry (real part positive, or zero real part and
    positive imaginary part). The zero vector is returned unchanged."""
    denominators = [v.real.denominator for v in vector] + [v.imag.denominator for v in vector]
    scale = lcm(*denominators)
    scaled = [v * scale for v in vector]
    numerators = [abs(part.numerator) for v in scaled for part in (v.real, v.imag) if part]
    if not numerators:
        return list(vector)
    content = gcd(*numerators)
    scaled = [v / content for v in scaled]
    lead = next(v for v in scaled if v)
    if lead.real < 0 or (not lead.real and lead.imag < 0):
        scaled = [-v for v in scaled]
    return scaled
