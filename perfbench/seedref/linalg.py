"""Exact linear algebra over Gaussian rationals.

Plain Gaussian elimination; entries are exact field elements, so there
is no pivoting strategy beyond "first nonzero", and results are
bit-reproducible.
"""

from __future__ import annotations

from math import gcd, lcm

from .scalars import ONE, ZERO, GaussianRational


def reduced_row_echelon(rows: list[list[GaussianRational]]):
    """Return (rref rows, pivot column indices). Input is not mutated;
    zero rows are dropped."""
    work = [list(row) for row in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = ONE / work[r][c]
        if inv != ONE:
            work[r] = [v * inv for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                factor = work[i][c]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


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
    rref, pivots = reduced_row_echelon(basis)
    residual = list(vector)
    for row, pivot_col in zip(rref, pivots):
        coeff = residual[pivot_col]
        if coeff:
            residual = [a - coeff * b for a, b in zip(residual, row)]
    return not any(residual)


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
