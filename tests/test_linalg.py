"""Exact elimination: pivots, kernels, kernel candidates, normalisation."""

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
from posetlab.errors import BoundTooLarge, InvalidInput
from posetlab.linalg import _forward, kernel_candidate, nullspace, primitive_integer_vector
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
    """The pivots and the kernel basis (so its dimension) agree exactly
    with sympy; the input is left untouched."""
    rows, ncols = matrix
    snapshot = [list(row) for row in rows]
    reference = to_sympy(rows, ncols)
    _, expected_pivots = reference.rref()
    rank = len(expected_pivots)

    assert _forward(rows)[1] == list(expected_pivots)
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
    """On narrow, mostly zero input the pivots and kernel equal sympy's,
    every kernel cell is a ``GaussianRational``, and a reordering of the
    rows (another choice of pivot rows) changes nothing, since the
    reduced row echelon form is unique."""
    rows, ncols = matrix
    reference = to_sympy(to_gaussian(rows), ncols)
    _, expected_pivots = reference.rref()

    pivots = _forward(rows)[1]
    assert pivots == list(expected_pivots)
    basis = nullspace(rows, ncols)
    assert basis == [[from_sympy(v) for v in vector] for vector in reference.nullspace()]
    assert all(type(v) is GaussianRational for row in basis for v in row)

    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert _forward(shuffled)[1] == pivots
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
    ``_forward``'s pivots and of ``nullspace``: each new pivot row clears
    its column from every echelon row taken so far. It calls
    ``linalg._clear`` through the module, so that a wrapper counts its
    clears too."""
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


def eager_basis(rows, ncols):
    """The kernel basis, read with plain ``GaussianRational`` arithmetic
    from the rows of the eager elimination."""
    echelon, pivots = eager_eliminate(rows)
    basis = []
    for free in range(ncols):
        if free not in pivots:
            kernel_vector = [ZERO] * ncols
            kernel_vector[free] = ONE
            for row, c in zip(echelon, pivots):
                if free in row:
                    kernel_vector[c] = -GaussianRational(*row[free]) / GaussianRational(*row[c])
            basis.append(kernel_vector)
    return basis


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


# Deep: gates the forward pass and the triangular solves.
@pytest.mark.deep
@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
@given(matrices_with_repeats())
def test_deferred_elimination_equals_eager_gauss_jordan(matrix):
    """The forward pass finds the eager elimination's pivots, and one
    triangular solve per free column over the forward rows gives the
    kernel basis read from the eager rows."""
    rows, ncols = matrix
    assert _forward(rows)[1] == eager_eliminate(rows)[1]
    assert nullspace(rows, ncols) == eager_basis(rows, ncols)


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
    finds; the dimension is that of ``nullspace``'s basis, which equals
    the eager elimination's, and the candidate its first vector made
    primitive, from the forward pass and one triangular solve, or from
    the certificate alone."""
    rows, ncols = matrix
    basis = nullspace(rows, ncols)
    assert basis == eager_basis(rows, ncols)
    assert not (basis and linalg._full_rank_certificate(rows, ncols))
    expected = primitive_integer_vector(basis[0]) if basis else None
    assert kernel_candidate(rows, ncols) == (len(basis), expected)


# Unchecked, a column outside the matrix reaches the full-rank
# certificate, which counts top 5 as a column, and the elimination,
# which writes column -1 into the last slot: the two entry points
# disagree.
@pytest.mark.parametrize(
    "rows, ncols, row, column",
    [([{0: 1}, {5: 1}], 2, 1, 5), ([{-1: 1, 0: 1}], 2, 0, -1), ([[1, 0], [0, 1, 0]], 2, 1, 2)],
    ids=["past the end", "negative", "long sequence"],
)
@pytest.mark.parametrize("entry", [nullspace, kernel_candidate])
def test_a_column_outside_the_matrix_is_refused_first(entry, rows, ncols, row, column, monkeypatch):
    called = []
    for name in ("_forward", "_top_column"):
        monkeypatch.setattr(linalg, name, lambda *args, name=name: called.append(name))
    with pytest.raises(InvalidInput, match=rf"^row {row} has column {column}, outside range\({ncols}\)$"):
        entry(rows, ncols)
    assert called == []


@settings(max_examples=150, deadline=None)
@given(sparse_narrow_matrices(), st.data())
def test_one_entry_outside_the_matrix_is_refused(matrix, data):
    """One entry appended outside ``range(ncols)``, as a mapping key or
    past the end of a sequence, to a row or as a new row, is refused by
    both entry points, naming its row and its column."""
    rows, ncols = matrix
    r = data.draw(st.integers(0, len(rows)), label="row")
    column = data.draw(st.one_of(st.integers(-3, -1), st.integers(ncols, ncols + 3)), label="column")
    value = data.draw(st.one_of(st.just(0), _NARROW), label="value")
    rows = rows if r < len(rows) else rows + [[0] * ncols]
    if column >= 0 and data.draw(st.booleans(), label="sequence"):
        rows = list(rows)
        rows[r] = rows[r] + [0] * (column - ncols) + [value]
    else:
        rows = [dict(enumerate(row)) for row in rows]
        rows[r][column] = value
    for entry in (nullspace, kernel_candidate):
        with pytest.raises(InvalidInput, match=rf"^row {r} has column {column}, outside range\({ncols}\)$"):
            entry(rows, ncols)


def search_rows(family, bound, shell_bound):
    """The zeta pair-search rows of window ``bound`` in shell
    ``shell_bound``."""
    p = get_poset(family)
    unknowns, shell = (enumerate_window(Window(p, n)) for n in (bound, shell_bound))
    return lab._pair_search_rows(p, unknowns, shell, zeta_function(p)), len(unknowns)


def test_nullspace_clears_in_the_forward_pass_only(monkeypatch):
    # Divisibility 64/128, rank 50: the basis takes the forward pass's
    # 290 clears and one triangular solve per free column, against 469
    # clears for eager elimination, whose back clears fill rows that
    # later pivots clear again.
    rows, ncols = search_rows("divisibility", 64, 128)
    cleared = []
    original = linalg._clear
    monkeypatch.setattr(linalg, "_clear", lambda *args: cleared.append(args[2]) or original(*args))
    basis = nullspace(rows, ncols)
    forward = len(cleared)
    cleared.clear()
    expected = eager_basis(rows, ncols)
    assert (forward, len(cleared)) == (290, 469)
    assert len(basis) == 14
    assert basis == expected


def test_equal_kernel_cells_share_one_quotient(monkeypatch):
    # Chain 80/160: 80 equal rows of 80 ones, so the 79 basis cells off
    # the free columns are all -1, one value built once.
    rows, ncols = search_rows("chain", 80, 160)
    calls = []
    original = linalg._cell
    monkeypatch.setattr(linalg, "_cell", lambda *args: calls.append(args) or original(*args))
    basis = nullspace(rows, ncols)
    assert sorted(calls) == [(-1, 0, 1), (1, 0, 1)]
    _, (c,), _ = _forward(rows)
    expected = []
    for free in range(ncols):
        if free != c:
            vector = [ZERO] * ncols
            vector[free] = ONE
            vector[c] = -ONE
            expected.append(vector)
    assert len(basis) == 79
    assert basis == expected
    assert all(vector[c] is basis[0][c] for vector in basis)


@pytest.mark.parametrize("ncols, refused", [(1024, False), (1025, True)])
def test_nullspace_basis_is_capped(ncols, refused, monkeypatch):
    # One all-ones row: ncols - 1 vectors of ncols cells, 1023 * 1024 =
    # 1047552 within the cap and 1024 * 1025 = 1049600 past it, refused
    # before any cell is built.
    built = []
    original = linalg._cell
    monkeypatch.setattr(linalg, "_cell", lambda *args: built.append(args) or original(*args))
    if refused:
        with pytest.raises(BoundTooLarge, match="^kernel basis of 1049600 cells exceeds cap 1048576$"):
            nullspace([[1] * ncols], ncols)
        assert built == []
    else:
        assert len(nullspace([[1] * ncols], ncols)) == 1023


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
    echelon, _, _ = _forward(rows)
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


def test_primitive_normalisation():
    vector = [gr(-2, 3), gr(4, 3), gr(0)]
    assert primitive_integer_vector(vector) == [gr(1), gr(-2), gr(0)]

    gaussian = [GaussianRational(0, Fraction(-1, 2)), GaussianRational(Fraction(3, 2))]
    normalised = primitive_integer_vector(gaussian)
    assert normalised == [GaussianRational(0, 1), GaussianRational(-3)]

    zero = [gr(0), gr(0)]
    assert primitive_integer_vector(zero) == zero
