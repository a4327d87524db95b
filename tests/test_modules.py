import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from splitfields.algebras import (
    cyclic_group_algebra,
    matrix_algebra,
    quaternion_algebra,
    upper_triangular_algebra,
)
from splitfields.basechange import extend_algebra
from splitfields.fields import (
    embed_find,
    finite_field_of_degree,
    prime_field,
    rationals,
)
from splitfields.linalg import Echelon, Matrix, linear_combination
from splitfields.modules import (
    Module,
    conjugate,
    direct_sum,
    end_algebra,
    hom_space,
    is_isomorphic,
    module_validate,
    spin,
    sub_quotient,
)
from test_scalar_kernels import reference_solve  # Gauss-Jordan apart from Echelon
from test_structure import _change_basis  # A on a new basis
from test_structure import _uniserial_ideal  # U_2(F_2) e22, spun by e1, e2

Q = rationals()
F2 = prime_field(2)


def test_regular_module_is_valid():
    for A in (matrix_algebra(2, Q), cyclic_group_algebra(3, F2)):
        assert module_validate(A.regular_module()) is None


def test_spin_closes_under_action():
    A = upper_triangular_algebra(2, Q)
    M = A.regular_module()
    # e22 spins to the left ideal A*e22: the second column span, dim 2
    v = A.basis_vector(2)
    basis = spin(M, [v])
    assert len(basis) == 2
    assert spin(M, basis) == basis


def test_sub_quotient_splits_dimensions():
    A = upper_triangular_algebra(2, Q)
    M = A.regular_module()
    basis = spin(M, [A.basis_vector(2)])
    sq = sub_quotient(M, basis)
    assert sq.sub.dim + sq.quot.dim == M.dim
    assert module_validate(sq.sub) is None
    assert module_validate(sq.quot) is None


def test_hom_space_dimensions():
    # End of the regular module of QC_2 is 2-dimensional
    A = cyclic_group_algebra(2, Q)
    assert len(hom_space(A.regular_module(), A.regular_module()).mats) == 2
    # End of the column module of M_2(QQ) is 1-dimensional
    B = matrix_algebra(2, Q)
    M = B.regular_module()
    col = sub_quotient(M, spin(M, [B.basis_vector(0)])).sub
    assert col.dim == 2
    assert len(hom_space(col, col).mats) == 1


def test_hom_mats_intertwine():
    A = cyclic_group_algebra(3, F2)
    M = A.regular_module()
    hom = hom_space(M, M)
    for f in hom.mats:
        for i in range(A.dim):
            assert f @ M.actions[i] == M.actions[i] @ f


def test_end_algebra_is_unital_associative():
    from splitfields.algebras import algebra_validate

    A = cyclic_group_algebra(4, Q)
    E, hom = end_algebra(A.regular_module())
    assert E.dim == 4
    assert algebra_validate(E) is None


def test_direct_sum_and_isomorphism():
    A = cyclic_group_algebra(2, F2)
    M = A.regular_module()
    D = direct_sum(M, M)
    assert D.dim == 4
    res = is_isomorphic(M, M)
    assert res.isomorphic is True
    res = is_isomorphic(M, D)
    assert res.isomorphic is False


def test_isomorphism_with_witness_conjugate():
    from splitfields.modules import conjugate

    A = cyclic_group_algebra(3, F2)
    M = A.regular_module()
    P = Matrix.from_rows(F2, [[F2.one(), F2.one(), F2.zero()],
                              [F2.zero(), F2.one(), F2.one()],
                              [F2.zero(), F2.zero(), F2.one()]])
    N = conjugate(M, P)
    res = is_isomorphic(M, N)
    assert res.isomorphic is True
    W = res.witness
    assert W is not None and W.is_invertible()
    for i in range(A.dim):
        assert N.actions[i] @ W == W @ M.actions[i]


def test_a_singular_hom_space_is_decisively_not_an_isomorphism():
    # S1 + S2 and the uniserial ideal A e22 of A = U_2(F_2) both have
    # dimension 2, and their hom space is 1-dimensional, so the verdict
    # rests on the exhaustive search over its combinations
    A = upper_triangular_algebra(2, F2)

    def simple(unit):   # the basis element e11 or e22 acting as 1
        return Module(A, 1, [Matrix(F2, 1, 1, [[F2.one() if i == unit
                                                else F2.zero()]])
                             for i in range(A.dim)])

    S = direct_sum(simple(0), simple(2))
    N = _uniserial_ideal()
    assert module_validate(S) is None
    assert len(hom_space(S, N).mats) == 1
    assert is_isomorphic(S, N) == (False, None)


# -- property tests: generators against every basis element -------------------
# (fixed examples, no random seed)

FIELDS = (prime_field(2), prime_field(3), finite_field_of_degree(2, 2), Q)
FIELD_SQUARES = {F: finite_field_of_degree(F.characteristic, 2 * F.degree)
                 for F in FIELDS[:3]}


def _spin_by(actions, field, seeds):
    """Reference: the span of the seeds closed under every given matrix."""
    span = Echelon(field)
    frontier = [v for v in seeds if span.insert(v)]
    while frontier:
        v = frontier.pop()
        for act in actions:
            w = act.apply(v)
            if span.insert(w):
                frontier.append(w)
    return span.basis()


def _hom_space_stacked(M, N):
    """Reference: the kernel of the intertwining equations of every basis
    element, stacked into one matrix."""
    field = M.algebra.field
    nm, nn = M.dim, N.dim
    if nm == 0 or nn == 0:
        return ()
    unknowns = nn * nm
    rows = []
    for am, an in zip(M.actions, N.actions):
        for r in range(nn):
            for c in range(nm):
                row = [field.zero()] * unknowns
                for k in range(nm):
                    row[r * nm + k] = row[r * nm + k] + am.entries[k][c]
                for k in range(nn):
                    row[k * nm + c] = row[k * nm + c] - an.entries[r][k]
                rows.append(row)
    system = Matrix(field, len(rows), unknowns, rows)
    return tuple(Matrix(field, nn, nm, [[v[r * nm + c] for c in range(nm)]
                                        for r in range(nn)])
                 for v in system.kernel_basis())


def _end_constants_by_solve(hb_mats, dim):
    """Reference: the coordinates of every product and of the identity,
    each from its own solve."""
    field = hb_mats[0].field
    d = len(hb_mats)
    cols = [m.vec() for m in hb_mats]
    coord_mat = Matrix(field, dim * dim, d,
                       [[cols[j][i] for j in range(d)] for i in range(dim * dim)])
    constants = [[reference_solve(coord_mat, list((a @ b).vec())) for b in hb_mats]
                 for a in hb_mats]
    return constants, reference_solve(coord_mat,
                                      list(Matrix.identity(field, dim).vec()))


def _scalar_pool(field):
    if field.characteristic:
        return list(field.elements())
    return [Q.element([Fraction(c)]) for c in (-2, -1, 0, 1, 2)]


def _random_invertible(field, d, rng):
    pool = _scalar_pool(field)
    while True:
        P = Matrix(field, d, d, [[rng.choice(pool) for _ in range(d)]
                                 for _ in range(d)])
        if P.is_invertible():
            return P


def _base_algebras(field):
    out = [cyclic_group_algebra(1, field), cyclic_group_algebra(3, field),
           upper_triangular_algebra(2, field), matrix_algebra(2, field)]
    if field.characteristic != 2:
        out.append(quaternion_algebra(-1, -1, field))
    return out


@st.composite
def rebased_algebras(draw):
    """(A, P, B, rng): a small algebra A, a seeded dense change of basis P,
    A on that basis, and a seeded generator for further choices."""
    field = draw(st.sampled_from(FIELDS))
    A = draw(st.sampled_from(_base_algebras(field)))
    rng = random.Random(draw(st.integers(0, 2**16)))
    P = _random_invertible(field, A.dim, rng)
    return A, P, _change_basis(A, P), rng


def _module(A, P, B, kind, rng):
    """A module over A (regular, R + R, or a proper sub or quotient of R when
    one is generated by a basis vector or by a_0 - a_i), carried over to B and
    written in a seeded dense basis of its own."""
    R = A.regular_module()
    M = R
    if kind == "sum":
        M = direct_sum(R, R)
    elif kind in ("sub", "quot"):
        e = [A.basis_vector(i) for i in range(A.dim)]
        seeds = e + [tuple(a - b for a, b in zip(e[0], v)) for v in e[1:]]
        proper = [b for b in (_spin_by(R.actions, A.field, [v]) for v in seeds)
                  if len(b) < R.dim]
        if proper:
            sq = sub_quotient(R, rng.choice(proper))
            M = sq.sub if kind == "sub" else sq.quot
    M = Module(B, M.dim, [linear_combination(P.col(i), M.actions)
                          for i in range(B.dim)])
    return conjugate(M, _random_invertible(B.field, M.dim, rng))


KINDS = ("regular", "sum", "sub", "quot")


@st.composite
def module_pairs(draw):
    A, P, B, rng = draw(rebased_algebras())
    kinds = KINDS if A.dim <= 3 else ("regular", "sub", "quot")
    M, N = (_module(A, P, B, draw(st.sampled_from(kinds)), rng) for _ in range(2))
    return B, M, N, rng


@settings(max_examples=60)
@given(rebased_algebras())
def test_generators_close_to_the_whole_algebra(case):
    _, _, A, _ = case
    R = A.regular_module()
    gens = A._generators()
    assert list(gens) == sorted(set(gens))
    assert len(_spin_by([R.actions[g] for g in gens], A.field, [A.unit])) == A.dim
    assert A.opposite()._generators() == gens
    if A.field.characteristic:
        # the same indices generate the extension to the degree-2 field
        ext = extend_algebra(A, embed_find(A.field, FIELD_SQUARES[A.field])).extended
        assert ext._generators() == gens


@settings(max_examples=60)
@given(module_pairs())
def test_hom_space_equals_the_stacked_system(case):
    B, M, N, _ = case
    assert module_validate(M) is None and module_validate(N) is None
    assert hom_space(M, N).mats == _hom_space_stacked(M, N)
    assert hom_space(N, M).mats == _hom_space_stacked(N, M)


@settings(max_examples=60)
@given(module_pairs())
def test_spin_equals_the_all_actions_spin(case):
    B, M, _, rng = case
    pool = _scalar_pool(B.field)
    for n_seeds in (1, 2):
        seeds = [tuple(rng.choice(pool) for _ in range(M.dim)) for _ in range(n_seeds)]
        assert spin(M, seeds) == _spin_by(M.actions, B.field, seeds)


@settings(max_examples=30)
@given(module_pairs())
def test_end_algebra_equals_solving_each_product(case):
    B, M, _, _ = case
    if M.dim == 0:
        return
    E, hb = end_algebra(M)
    constants, unit = _end_constants_by_solve(hb.mats, M.dim)
    assert E.constants == tuple(tuple(tuple(v) for v in row) for row in constants)
    assert E.unit == tuple(unit)
