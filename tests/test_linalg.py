"""Exact elimination: echelon form, kernels, kernel candidates, normalisation."""

import random
from collections.abc import Mapping
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ_I

import posetlab.lab as lab
import posetlab.linalg as linalg
from posetlab import GaussianRational, Window, enumerate_window, get_poset, zeta_function
from posetlab.linalg import _eliminate, kernel_candidate, nullspace, primitive_integer_vector
from posetlab.scalars import ONE, ZERO


def gr(n, d=1):
    return GaussianRational(Fraction(n, d))


def random_matrix(rng, nrows, ncols):
    return [
        [gr(rng.randint(-4, 4)) for _ in range(ncols)] for _ in range(nrows)
    ]


def matvec(rows, vector):
    return [
        sum((a * v for a, v in zip(row, vector)), GaussianRational(0)) for row in rows
    ]


def test_single_constraint_kernel():
    basis = nullspace([[gr(1), gr(1)]], 2)
    assert len(basis) == 1
    assert matvec([[gr(1), gr(1)]], basis[0]) == [GaussianRational(0)]


def test_empty_system_gives_standard_basis():
    basis = nullspace([], 3)
    assert len(basis) == 3
    for i, vector in enumerate(basis):
        assert vector[i] == 1
        assert sum(1 for v in vector if v) == 1


def test_full_rank_kernel_is_trivial():
    rows = [[gr(1), gr(0)], [gr(0), gr(1)]]
    assert nullspace(rows, 2) == []


def test_kernel_vectors_annihilate():
    rng = random.Random(101)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = random_matrix(rng, nrows, ncols)
        for vector in nullspace(rows, ncols):
            assert all(not v for v in matvec(rows, vector))


_RATIONAL = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
_ENTRIES = {
    "int": st.builds(GaussianRational, st.integers(-3, 3)),
    "rational": st.builds(GaussianRational, _RATIONAL),
    "gaussian": st.builds(GaussianRational, _RATIONAL, _RATIONAL),
}


@st.composite
def matrices(draw):
    """(rows, ncols): zero-heavy int, rational or Gaussian-rational
    entries, any shape up to 6 x 6 (no rows at all included), some
    columns forced to zero and possibly a row that depends on two others."""
    entry = st.one_of(st.just(GaussianRational(0)), _ENTRIES[draw(st.sampled_from(sorted(_ENTRIES)))])
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)):
        for row in rows:
            row[c] = GaussianRational(0)
    if nrows >= 2 and draw(st.booleans()):
        scale = draw(entry)
        rows.append([scale * a + b for a, b in zip(rows[0], rows[1])])
    return rows, ncols


def to_sympy(rows, ncols):
    return sympy.Matrix(
        len(rows),
        ncols,
        [sympy.Rational(v.real) + sympy.I * sympy.Rational(v.imag) for row in rows for v in row],
    )


def from_sympy(value):
    real, imag = sympy.expand_complex(value).as_real_imag()
    return GaussianRational(Fraction(int(real.p), int(real.q)), Fraction(int(imag.p), int(imag.q)))


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_dimension_matches_sympy(matrix):
    """Echelon rows and pivots and the kernel basis (so its dimension)
    agree exactly with sympy; the input is left untouched."""
    rows, ncols = matrix
    snapshot = [list(row) for row in rows]
    reference = to_sympy(rows, ncols)
    expected_rref, expected_pivots = reference.rref()
    rank = len(expected_pivots)

    rref, pivots = dense_rref(rows, ncols)
    assert pivots == list(expected_pivots)
    assert rref == [[from_sympy(v) for v in expected_rref.row(r)] for r in range(rank)]
    basis = nullspace(rows, ncols)
    assert basis == [[from_sympy(v) for v in vector] for vector in reference.nullspace()]
    assert len(basis) == ncols - rank
    assert rows == snapshot


# Narrow cells as the pair search passes them: plain ints (zeros
# included), Fractions and Gaussian rationals with a nonzero imaginary part.
_REAL_NARROW = st.one_of(st.integers(-3, 3), _RATIONAL.filter(lambda v: v.denominator != 1))
_NARROW = st.one_of(_REAL_NARROW, st.builds(GaussianRational, _RATIONAL, _RATIONAL.filter(bool)))


@st.composite
def sparse_narrow_matrices(draw):
    """(rows, ncols): mostly zero (int 0) cells mixed with ints,
    Fractions and Gaussian rationals, up to 8 x 8, with some rows and
    some columns forced to zero."""
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(1, 8))
    cell = st.one_of(st.just(0), st.just(0), st.just(0), _NARROW)
    rows = draw(st.lists(st.lists(cell, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)):
        for row in rows:
            row[c] = 0
    if nrows:
        for r in draw(st.sets(st.integers(0, nrows - 1), max_size=nrows)):
            rows[r] = [0] * ncols
    return rows, ncols


def to_gaussian(rows):
    return [[GaussianRational(v.real, v.imag) for v in row] for row in rows]


@settings(max_examples=200, deadline=None)
@given(sparse_narrow_matrices(), st.randoms(use_true_random=False))
def test_sparse_narrow_cells_match_sympy(matrix, rng):
    """On narrow, mostly zero input the rref, pivots and kernel equal
    sympy's, every kernel cell is a ``GaussianRational``, and
    a reordering of the rows (another choice of pivot rows) changes
    nothing, since the rref is unique."""
    rows, ncols = matrix
    reference = to_sympy(to_gaussian(rows), ncols)
    expected_rref, expected_pivots = reference.rref()
    rank = len(expected_pivots)

    rref, pivots = dense_rref(rows, ncols)
    assert pivots == list(expected_pivots)
    assert rref == [[from_sympy(v) for v in expected_rref.row(r)] for r in range(rank)]
    basis = nullspace(rows, ncols)
    assert basis == [[from_sympy(v) for v in vector] for vector in reference.nullspace()]
    assert all(type(v) is GaussianRational for row in basis for v in row)

    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert dense_rref(shuffled, ncols) == (rref, pivots)
    assert nullspace(shuffled, ncols) == basis


@settings(max_examples=150, deadline=None)
@given(sparse_narrow_matrices(), st.randoms(use_true_random=False))
def test_repeated_rows_change_no_kernel(matrix, rng):
    """Rows drawn again and shuffled in, as sequences or as sparse
    ``{column: value}`` mappings, give the kernel of the distinct rows."""
    rows, ncols = matrix
    distinct = []
    for row in rows:
        if row not in distinct:
            distinct.append(row)
    repeated = rows + [rng.choice(rows) for _ in rows]
    rng.shuffle(repeated)
    mappings = [{c: v for c, v in enumerate(row) if v} for row in repeated]
    expected = nullspace(distinct, ncols)
    assert nullspace(repeated, ncols) == expected
    assert nullspace(mappings, ncols) == expected


def eager_eliminate(rows):
    """Eager sparse fraction-free Gauss–Jordan elimination, the oracle of
    ``_eliminate``: each new pivot row clears its column from every
    echelon row taken so far. It calls ``linalg._clear`` through the
    module, so that a wrapper counts its clears too."""
    taken = set()
    sparse_rows = []
    for row in rows:
        key = tuple(row.items()) if isinstance(row, Mapping) else tuple(row)
        if key not in taken:
            taken.add(key)
            sparse = linalg._sparse_row(row)
            if sparse:
                sparse_rows.append(sparse)
    gaussian = any(b for row in sparse_rows for _, b in row.values())
    waiting = {}
    for row in sparse_rows:
        waiting.setdefault(min(row), []).append(linalg._primitive(row, gaussian))
    echelon, pivots = [], []
    while waiting:
        c = min(waiting)
        bucket = waiting.pop(c)
        pivot_row = min(bucket, key=len)
        for row in bucket:
            if row is not pivot_row:
                row = linalg._clear(row, pivot_row, c, gaussian)
                if row:
                    waiting.setdefault(min(row), []).append(row)
        for i, row in enumerate(echelon):
            if c in row:
                echelon[i] = linalg._clear(row, pivot_row, c, gaussian)
        echelon.append(pivot_row)
        pivots.append(c)
    return echelon, pivots


def divided_by_pivots(echelon, pivots):
    """Each eliminated row divided by its entry in its pivot column."""
    return [
        {k: GaussianRational(*value) / GaussianRational(*row[c]) for k, value in row.items()}
        for row, c in zip(echelon, pivots)
    ]


def dense_rref(rows, ncols):
    """The rref rows, dense, and the pivot columns of ``_eliminate``,
    each row divided by its pivot entry."""
    echelon, pivots = _eliminate(rows)
    reduced = divided_by_pivots(echelon, pivots)
    return [[row.get(k, ZERO) for k in range(ncols)] for row in reduced], pivots


def eager_results(rows, ncols):
    """The rref and the kernel basis, read with plain
    ``GaussianRational`` arithmetic from the eager elimination."""
    echelon, pivots = eager_eliminate(rows)
    reduced = divided_by_pivots(echelon, pivots)
    rref = [[row.get(k, ZERO) for k in range(ncols)] for row in reduced]
    basis = []
    for free in range(ncols):
        if free not in pivots:
            kernel_vector = [ZERO] * ncols
            kernel_vector[free] = ONE
            for row, c in zip(reduced, pivots):
                if free in row:
                    kernel_vector[c] = -row[free]
            basis.append(kernel_vector)
    return (rref, pivots), basis


@st.composite
def matrices_with_repeats(draw):
    """(rows, ncols): mostly zero narrow cells, all real or some Gaussian
    rational, up to 9 x 9, with zero rows and repeated rows shuffled in."""
    cell = st.one_of(st.just(0), st.just(0), _NARROW if draw(st.booleans()) else _REAL_NARROW)
    nrows, ncols = draw(st.integers(0, 9)), draw(st.integers(1, 9))
    rows = draw(st.lists(st.lists(cell, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows))
    rows += [[0] * ncols] * draw(st.integers(0, 2))
    if rows:
        rows += [list(draw(st.sampled_from(rows))) for _ in range(draw(st.integers(0, 3)))]
    return draw(st.permutations(rows)), ncols


# Deep: gates the forward pass and one back substitution.
@pytest.mark.deep
@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
@given(matrices_with_repeats())
def test_deferred_elimination_equals_eager_gauss_jordan(matrix):
    """A forward pass and one back substitution reach the eager
    elimination's reduced form: the same pivots and, with each row
    divided by its pivot entry, the same rows. The rref and the kernel
    basis equal those read from the eager rows."""
    rows, ncols = matrix
    echelon, pivots = _eliminate(rows)
    expected_echelon, expected_pivots = eager_eliminate(rows)
    assert pivots == expected_pivots
    assert divided_by_pivots(echelon, pivots) == divided_by_pivots(expected_echelon, expected_pivots)
    rref, basis = eager_results(rows, ncols)
    assert dense_rref(rows, ncols) == rref
    assert nullspace(rows, ncols) == basis


_NON_UNIT_GAUSSIAN = st.builds(
    GaussianRational, st.integers(-3, 3).filter(bool), st.integers(-3, 3).filter(bool)
)


@st.composite
def kernel_matrices(draw):
    """(rows, ncols): ``matrices_with_repeats``, sometimes with rows that
    lead with a Gaussian integer that is no unit, such as 1 + i, or with
    rows triangular in their largest columns (one per column, so full
    rank), and drawn as sequences or as ``{column: value}`` mappings
    that keep their zero cells."""
    rows, ncols = draw(matrices_with_repeats())
    cell = st.one_of(st.just(0), _NARROW)
    for _ in range(draw(st.integers(0, 2))):
        lead = draw(st.integers(0, ncols - 1))
        row = [0] * lead + [draw(_NON_UNIT_GAUSSIAN)]
        rows.append(row + draw(st.lists(cell, min_size=ncols - lead - 1, max_size=ncols - lead - 1)))
    if draw(st.booleans()):
        for top in draw(st.permutations(range(ncols))):
            below = draw(st.lists(cell, min_size=top, max_size=top))
            rows.append(below + [draw(_NARROW.filter(bool))] + [0] * (ncols - top - 1))
    rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        rows = [dict(enumerate(row)) for row in rows]
    return rows, ncols


# Deep: gates the full-rank certificate and the one-solve candidate.
@pytest.mark.deep
@settings(max_examples=max(200, settings.default.max_examples), deadline=None)
@given(kernel_matrices())
def test_kernel_candidate_equals_the_first_basis_vector_made_primitive(matrix):
    """The full-rank certificate never hides a kernel ``nullspace``
    finds; the dimension is that of ``nullspace``'s basis, and the
    candidate its first vector made primitive, from the forward pass and
    one triangular solve, or from the certificate alone."""
    rows, ncols = matrix
    basis = nullspace(rows, ncols)
    assert not (basis and linalg._full_rank_certificate(rows, ncols))
    expected = primitive_integer_vector(basis[0]) if basis else None
    assert kernel_candidate(rows, ncols) == (len(basis), expected)


def search_rows(family, bound, shell_bound):
    """The zeta pair-search rows of window ``bound`` in shell
    ``shell_bound``."""
    p = get_poset(family)
    unknowns, shell = (enumerate_window(Window(p, n)) for n in (bound, shell_bound))
    return lab._pair_search_rows(p, unknowns, shell, zeta_function(p)), len(unknowns)


def test_back_substitution_clears_fewer_rows_than_eager_elimination(monkeypatch):
    # Divisibility 64/128, rank 50: the forward pass and the back
    # substitution clear 374 rows, against 469 for eager elimination,
    # whose back clears fill rows that later pivots clear again.
    rows, ncols = search_rows("divisibility", 64, 128)
    cleared = []
    original = linalg._clear
    monkeypatch.setattr(linalg, "_clear", lambda *args: cleared.append(args[2]) or original(*args))
    echelon, pivots = _eliminate(rows)
    deferred = len(cleared)
    cleared.clear()
    eager_eliminate(rows)
    assert len(pivots) == 50
    assert (deferred, len(cleared)) == (374, 469)
    assert deferred < len(cleared)


def test_equal_kernel_cells_share_one_quotient(monkeypatch):
    # Chain 80/160: 80 equal rows of 80 ones, so the 79 basis cells off
    # the standard basis are all -1, one quotient built once.
    rows, ncols = search_rows("chain", 80, 160)
    calls = []
    original = linalg._quotient
    monkeypatch.setattr(linalg, "_quotient", lambda value, pivot: calls.append((value, pivot)) or original(value, pivot))
    basis = nullspace(rows, ncols)
    assert calls == [((-1, 0), (1, 0))]
    (row,), (c,) = _eliminate(rows)
    expected = []
    for free in range(ncols):
        if free != c:
            vector = [ZERO] * ncols
            vector[free] = ONE
            vector[c] = original((-row[free][0], -row[free][1]), row[c])
            expected.append(vector)
    assert len(basis) == 79
    assert basis == expected
    assert all(vector[c] is basis[0][c] for vector in basis)


_GAUSSIAN_INTEGER = st.builds(GaussianRational, st.integers(-5, 5), st.integers(-5, 5))


# Deep: gates keeping every eliminated row primitive.
@pytest.mark.deep
@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.booleans(), st.data())
def test_eliminated_rows_are_primitive_over_the_gaussian_integers(nrows, ncols, gaussian, data):
    """Every echelon row has a unit gcd in Z[i] (sympy's), on Gaussian
    integer matrices whose rows share random Gaussian factors such as
    1 + i, and on real ones, whose factors are integers."""
    entry = _GAUSSIAN_INTEGER if gaussian else st.builds(GaussianRational, st.integers(-5, 5))
    rows = []
    for _ in range(nrows):
        factor = data.draw(entry.filter(bool))
        rows.append([factor * data.draw(entry) for _ in range(ncols)])
    echelon, _ = _eliminate(rows)
    for row in echelon:
        common = ZZ_I.zero
        for a, b in row.values():
            common = ZZ_I.gcd(common, ZZ_I(a, b))
        assert common.x**2 + common.y**2 == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.just(0), _NARROW), min_size=1, max_size=8))
def test_primitive_vector_is_a_primitive_multiple(vector):
    """The result is a nonzero multiple of the input with Gaussian
    integer entries, content 1 and a positive leading entry."""
    result = primitive_integer_vector(vector)
    assert all(type(v) is GaussianRational for v in result)
    support = [i for i, v in enumerate(vector) if v]
    assert [i for i, v in enumerate(result) if v] == support
    if not support:
        return
    ratio = result[support[0]] / vector[support[0]]
    assert result == [ratio * v for v in vector]
    parts = [part for v in result for part in (v.real, v.imag)]
    assert all(part.denominator == 1 for part in parts)
    assert gcd(*(part.numerator for part in parts)) == 1
    lead = result[support[0]]
    assert lead.real > 0 or (lead.real == 0 and lead.imag > 0)


def test_rref_pivots_are_unit_columns():
    rng = random.Random(9)
    rows = random_matrix(rng, 5, 7)
    rref, pivots = dense_rref(rows, 7)
    for r, c in enumerate(pivots):
        column = [row[c] for row in rref]
        assert column[r] == 1
        assert all(not v for i, v in enumerate(column) if i != r)


def test_primitive_normalisation():
    vector = [gr(-2, 3), gr(4, 3), gr(0)]
    assert primitive_integer_vector(vector) == [gr(1), gr(-2), gr(0)]

    gaussian = [GaussianRational(0, Fraction(-1, 2)), GaussianRational(Fraction(3, 2))]
    normalised = primitive_integer_vector(gaussian)
    assert normalised == [GaussianRational(0, 1), GaussianRational(-3)]

    zero = [gr(0), gr(0)]
    assert primitive_integer_vector(zero) == zero
