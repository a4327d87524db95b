"""The int-coded finite-field kernel of ``linalg`` against field elements.

GF(p) rows are residues and GF(p^k) rows with q <= 256 are codes looked up
in per-field tables; every other field eliminates on ``FieldElement``s.  The
tables are checked against field arithmetic on all pairs, and the coded
``Echelon``, ``closure``/``spin`` and ``intertwiners``/``hom_space`` against
a textbook Gauss-Jordan elimination on field elements kept here (fixed
examples, no random seed).  ``reference_solve`` on that elimination is the
linear solver the other tests compare against; it shares no code with
``Echelon``.  Every kernel rejects elements of another field.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from splitfields import linalg
from splitfields.algebras import (
    cyclic_group_algebra,
    upper_triangular_algebra,
)
from splitfields.errors import FieldMismatch
from splitfields.fields import (
    finite_field_of_degree,
    number_field,
    prime_field,
    rationals,
)
from splitfields.linalg import Echelon, Matrix, closure, intertwiners
from splitfields.modules import conjugate, hom_space, spin, sub_quotient

P61 = (1 << 61) - 1
FIELDS = (prime_field(2), prime_field(3), finite_field_of_degree(2, 2),
          finite_field_of_degree(3, 2), finite_field_of_degree(2, 4),
          prime_field(P61), finite_field_of_degree(17, 2))


def test_each_field_gets_its_kernel():
    kinds = [type(linalg._arithmetic(F)).__name__ for F in FIELDS]
    assert kinds == ["_Residues", "_Residues", "_Tables", "_Tables", "_Tables",
                     "_Residues", "_Elements"]


def test_every_kernel_rejects_elements_of_another_field():
    Qi = number_field([1, 0, 1])
    F17 = prime_field(17)
    for F, vec in ((rationals(), [Qi.generator(), Qi.one()]),
                   (finite_field_of_degree(17, 2), [F17.one(), F17.from_base(3)]),
                   (prime_field(2), [Qi.generator(), Qi.one()]),
                   (finite_field_of_degree(2, 2), [F17.one(), F17.zero()])):
        for use in (Echelon(F).insert, Echelon(F).contains, Echelon(F).reduce):
            with pytest.raises(FieldMismatch):
                use(vec)


# -- tables: every entry against field arithmetic -----------------------------

def test_tables_match_field_arithmetic_on_all_pairs():
    for p, m in ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (2, 8)):
        F = finite_field_of_degree(p, m)
        k = linalg._arithmetic(F)
        elems = k.decode(range(F.order))
        assert sorted(k.encode(elems)) == list(range(F.order))
        assert k.encode([F.zero(), F.one()]) == [k.zero, k.one] == [0, 1]
        assert k.decode(k.negs) == [-a for a in elems]
        assert k.decode(k.invs[1:]) == [a.inverse() for a in elems[1:]]
        for a, sums, diffs, prods in zip(elems, k.sums, k.diffs, k.prods):
            assert k.decode(sums) == [a + b for b in elems]
            assert k.decode(diffs) == [a - b for b in elems]
            assert k.decode(prods) == [a * b for b in elems]


# -- reference elimination on field elements -----------------------------------

def reference_rref(vectors, cols):
    """Gauss-Jordan on field elements: (nonzero RREF rows, pivot columns)."""
    rows = [list(v) for v in vectors]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        at = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if at is None:
            continue
        rows[r], rows[at] = rows[at], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return [tuple(r) for r in rows[:len(pivots)]], pivots


def reference_solve(m, b):
    """One particular solution of ``m @ x = b``, or None: Gauss-Jordan on the
    augmented rows (m | b), free variables set to zero."""
    rows, pivots = reference_rref([tuple(r) + (c,) for r, c in zip(m.entries, b)],
                                  m.cols + 1)
    if m.cols in pivots:
        return None
    x = [m.field.zero()] * m.cols
    for row, pc in zip(rows, pivots):
        x[pc] = row[m.cols]
    return tuple(x)


def reference_reduce(rows, pivots, w):
    out = list(w)
    for row, pc in zip(rows, pivots):
        f = w[pc]
        out = [x - f * y for x, y in zip(out, row)]
    return out


def reference_kernel(field, rows, pivots, cols):
    basis = []
    for j in (j for j in range(cols) if j not in pivots):
        v = [field.zero()] * cols
        v[j] = field.one()
        for row, pc in zip(rows, pivots):
            v[pc] = -row[j]
        basis.append(tuple(v))
    return basis


def reference_closure(field, mats, vectors, cols):
    """Add every image of the basis until the rank stops growing."""
    rows, _ = reference_rref(vectors, cols)
    while True:
        images = [m.apply(v) for m in mats for v in rows]
        grown, _ = reference_rref(rows + images, cols)
        if len(grown) == len(rows):
            return rows
        rows = grown


def reference_intertwiners(field, n, m, pairs):
    """Kernel of all the equations f a - b f = 0 at once, f an n x m matrix."""
    eqs = []
    for a, b in pairs:
        for r in range(n):
            for c in range(m):
                eq = [field.zero()] * (n * m)
                for j in range(m):
                    eq[r * m + j] = eq[r * m + j] + a.entries[j][c]
                for j in range(n):
                    eq[j * m + c] = eq[j * m + c] - b.entries[r][j]
                eqs.append(eq)
    rows, pivots = reference_rref(eqs, n * m)
    return [Matrix(field, n, m, [v[r * m:(r + 1) * m] for r in range(n)])
            for v in reference_kernel(field, rows, pivots, n * m)]


# -- strategies -----------------------------------------------------------------

def scalars(field):
    """Field elements with zero, one and minus one drawn often."""
    if field.order > 1000:
        some = st.integers(0, field.order - 1).map(field.from_base)
    else:
        some = st.sampled_from(list(field.elements()))
    usual = st.sampled_from([field.zero(), field.one(), -field.one()])
    return st.one_of(usual, some)


def matrix(data, field, rows, cols):
    scalar = scalars(field)
    return Matrix(field, rows, cols,
                  [[data.draw(scalar) for _ in range(cols)] for _ in range(rows)])


@st.composite
def spans(draw):
    field = draw(st.sampled_from(FIELDS))
    cols = draw(st.integers(1, 5))
    scalar = scalars(field)
    vecs = [tuple(draw(scalar) for _ in range(cols))
            for _ in range(draw(st.integers(0, 6)))]
    probe = tuple(draw(scalar) for _ in range(cols))
    return field, cols, vecs, probe


@settings(max_examples=70)
@given(spans())
def test_echelon_matches_the_reference(case):
    field, cols, vecs, probe = case
    rows, pivots = reference_rref(vecs, cols)
    span = Echelon(field, vecs)
    assert span.basis() == rows
    assert span.pivots == pivots
    assert span.reduce(probe) == reference_reduce(rows, pivots, probe)
    expected = not any(reference_reduce(rows, pivots, probe))
    assert span.contains(probe) == expected
    assert span.kernel(cols) == reference_kernel(field, rows, pivots, cols)
    if vecs:
        assert Matrix(field, len(vecs), cols, vecs).kernel_basis() == \
            reference_kernel(field, rows, pivots, cols)
    assert span.insert(probe) != expected
    assert span.basis() == reference_rref(vecs + [probe], cols)[0]


@settings(max_examples=70)
@given(st.sampled_from(FIELDS), st.integers(1, 4), st.data())
def test_closure_matches_the_reference(field, n, data):
    mats = [matrix(data, field, n, n) for _ in range(data.draw(st.integers(0, 2)))]
    scalar = scalars(field)
    seeds = [tuple(data.draw(scalar) for _ in range(n))
             for _ in range(data.draw(st.integers(1, 2)))]
    assert closure(field, mats, seeds) == \
        reference_closure(field, mats, seeds, n)


@settings(max_examples=70)
@given(st.sampled_from(FIELDS), st.integers(1, 3), st.integers(1, 3), st.data())
def test_intertwiners_match_the_reference(field, n, m, data):
    pairs = []
    for _ in range(data.draw(st.integers(0, 2))):
        a = matrix(data, field, m, m)
        # b is a's conjugate often enough for the space to be nonzero
        if n == m and data.draw(st.booleans()):
            P = matrix(data, field, n, n)
            b = a if P.inverse() is None else P.inverse() @ a @ P
        else:
            b = matrix(data, field, n, n)
        pairs.append((a, b))
    assert intertwiners(field, n, m, pairs) == \
        reference_intertwiners(field, n, m, pairs)


# -- spin and hom_space on modules ---------------------------------------------

@st.composite
def modules(draw):
    """A conjugated regular module of C_2, C_3 or U_2, or a sub or quotient
    of one spun from a seeded vector."""
    field = draw(st.sampled_from(FIELDS))
    make = draw(st.sampled_from((lambda F: cyclic_group_algebra(2, F),
                                 lambda F: cyclic_group_algebra(3, F),
                                 lambda F: upper_triangular_algebra(2, F))))
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    M = make(field).regular_module()

    def element():
        p = field.characteristic
        return field.element([rng.randrange(p) for _ in range(field.degree)])

    part = draw(st.sampled_from(("reg", "sub", "quot")))
    basis = spin(M, [[element() for _ in range(M.dim)]])
    if part != "reg" and 0 < len(basis) < M.dim:
        parts = sub_quotient(M, basis)
        M = parts.sub if part == "sub" else parts.quot
    while True:
        P = Matrix(field, M.dim, M.dim,
                   [[element() for _ in range(M.dim)] for _ in range(M.dim)])
        if P.is_invertible():
            return conjugate(M, P)


@settings(max_examples=70)
@given(modules(), st.data())
def test_spin_and_hom_space_match_the_reference(M, data):
    field = M.algebra.field
    scalar = scalars(field)
    seeds = [tuple(data.draw(scalar) for _ in range(M.dim))]
    assert spin(M, seeds) == \
        reference_closure(field, M.actions, seeds, M.dim)
    pairs = list(zip(M.actions, M.actions))
    assert list(hom_space(M, M).mats) == \
        reference_intertwiners(field, M.dim, M.dim, pairs)
