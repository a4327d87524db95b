from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from splitfields.errors import DimensionMismatch
from splitfields.fields import finite_field_of_degree, prime_field, rationals
from splitfields.linalg import (
    Echelon,
    Matrix,
    coordinates,
    in_row_space,
    row_space_basis,
)
from splitfields import polys
from test_scalar_kernels import reference_solve  # Gauss-Jordan apart from Echelon

Q = rationals()
F5 = prime_field(5)


def qmat(rows):
    return Matrix.from_rows(Q, [[Q.element([Fraction(e)]) for e in r] for r in rows])


def test_rref_and_rank():
    m = qmat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    red, rank, pivots = m.rref()
    assert rank == 2
    assert pivots == (0, 1)
    # pivot rows are normalized
    assert red.entries[0][0] == Q.one()


def test_kernel_basis_is_canonical_and_correct():
    m = qmat([[1, 2, 3], [2, 4, 6]])
    ker = m.kernel_basis()
    assert len(ker) == 2
    for v in ker:
        assert all(not bool(c) for c in m.apply(v))


def test_solve_and_no_solution():
    m = qmat([[1, 1], [0, 1]])
    b = [Q.element([Fraction(3)]), Q.element([Fraction(1)])]
    x = reference_solve(m, b)
    assert list(m.apply(x)) == b
    singular = qmat([[1, 1], [2, 2]])
    assert reference_solve(singular, [Q.one(), Q.zero()]) is None


def test_inverse():
    m = qmat([[2, 1], [1, 1]])
    inv = m.inverse()
    assert inv @ m == Matrix.identity(Q, 2)
    assert qmat([[1, 2], [2, 4]]).inverse() is None


def test_matmul_shape_check():
    with pytest.raises(DimensionMismatch):
        qmat([[1, 2]]) @ qmat([[1, 2]])


def test_min_poly_rotation():
    # companion of x^2 + 1
    m = qmat([[0, -1], [1, 0]])
    mp = m.min_poly()
    assert [c.coords[0] for c in mp] == [1, 0, 1]


def test_min_poly_divides_evaluation_to_zero():
    m = Matrix.from_rows(F5, [[F5.element([1]), F5.element([2])],
                              [F5.element([0]), F5.element([1])]])
    mp = m.min_poly()
    assert polys.eval_matrix(mp, m) == Matrix.zeros(F5, 2, 2)


def test_row_space_membership():
    basis = row_space_basis(Q, [
        (Q.one(), Q.zero(), Q.one()),
        (Q.zero(), Q.one(), Q.one()),
    ])
    assert in_row_space(Q, basis, (Q.one(), Q.one(), Q.element([Fraction(2)])))
    assert not in_row_space(Q, basis, (Q.one(), Q.zero(), Q.zero()))


# -- property tests of the echelon basis (fixed examples, no random seed) ----

FIELDS = (prime_field(2), prime_field(3), finite_field_of_degree(2, 2), Q)
RATIONALS = [Fraction(c) for c in (0, 0, 1, -1, 2)] + [Fraction(1, 2)]


def _scalars(field):
    if field.characteristic:
        return st.sampled_from(list(field.elements()))
    return st.sampled_from(RATIONALS).map(lambda c: Q.element([c]))


@st.composite
def vectors(draw, square=False):
    """(field, list of row vectors); square=True gives the rows of an n x n matrix."""
    field = draw(st.sampled_from(FIELDS))
    cols = draw(st.integers(1, 4))
    rows = cols if square else draw(st.integers(1, 5))
    scalar = _scalars(field)
    return field, [tuple(draw(scalar) for _ in range(cols)) for _ in range(rows)]


def _columns(field, vs):
    """The matrix with the vectors as its columns."""
    return Matrix(field, len(vs[0]), len(vs), list(zip(*vs)))


def _min_poly_by_solve(X):
    """Reference: solve for X^k in the span of the lower powers, growing k."""
    powers = [Matrix.identity(X.field, X.rows)]
    while True:
        nxt = powers[-1] @ X
        sol = reference_solve(_columns(X.field, [p.vec() for p in powers]),
                              list(nxt.vec()))
        if sol is not None:
            return [-c for c in sol] + [X.field.one()]
        powers.append(nxt)


@settings(max_examples=60)
@given(vectors())
def test_echelon_basis_is_the_rref(case):
    field, vs = case
    red, rank, _ = Matrix.from_rows(field, vs).rref()
    assert Echelon(field, vs).basis() == [red.row(i) for i in range(rank)]
    assert Echelon(field, reversed(vs)).basis() == [red.row(i) for i in range(rank)]


@settings(max_examples=60)
@given(vectors(), st.data())
def test_echelon_contains_agrees_with_solve(case, data):
    field, vs = case
    scalar = _scalars(field)
    if data.draw(st.booleans()):
        w = tuple(data.draw(scalar) for _ in vs[0])
    else:
        coeffs = [data.draw(scalar) for _ in vs]
        w = _columns(field, vs).apply(coeffs)
    expected = reference_solve(_columns(field, vs), list(w)) is not None
    assert Echelon(field, vs).contains(w) == expected


@settings(max_examples=60)
@given(vectors(), st.data())
def test_coordinates_agree_with_solve(case, data):
    field, vs = case
    scalar = _scalars(field)
    if data.draw(st.booleans()):
        w = tuple(data.draw(scalar) for _ in vs[0])
    else:
        w = _columns(field, vs).apply([data.draw(scalar) for _ in vs])
    coeffs = coordinates(field, vs)(w)
    expected = reference_solve(_columns(field, vs), list(w))
    if expected is None:
        assert coeffs is None
    elif Matrix.from_rows(field, vs).rank() == len(vs):
        assert tuple(coeffs) == expected  # the coefficients are unique
    else:
        assert _columns(field, vs).apply(coeffs) == w


@settings(max_examples=60)
@given(vectors(square=True))
def test_min_poly_is_the_monic_annihilator(case):
    field, rows = case
    X = Matrix.from_rows(field, rows)
    mp = X.min_poly()
    assert mp[-1] == field.one()
    assert polys.eval_matrix(mp, X).is_zero()
    assert mp == _min_poly_by_solve(X)
