import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from splitfields import polys, structure
from splitfields.algebras import (
    Algebra,
    algebra_validate,
    cyclic_group_algebra,
    diagonal_algebra,
    field_algebra,
    matrix_algebra,
    quaternion_algebra,
    upper_triangular_algebra,
)
from splitfields.corpus import bundled_algebras
from splitfields.errors import Inconclusive
from splitfields.fields import (
    finite_field_of_degree,
    number_field,
    prime_field,
    rationals,
)
from splitfields.linalg import Matrix
from splitfields.modules import (
    conjugate,
    direct_sum,
    hom_space,
    spin,
    sub_quotient,
)
from splitfields.structure import (
    composition_factors,
    is_semisimple,
    oracle_composition_series_dims,
    oracle_is_simple,
    oracle_submodules,
    radical,
    simple_modules,
)

Q = rationals()
F2 = prime_field(2)
F3 = prime_field(3)


def test_radical_of_semisimple_is_zero():
    for A in (matrix_algebra(2, Q), diagonal_algebra(3, Q),
              cyclic_group_algebra(3, F2)):
        assert radical(A) == []
        assert is_semisimple(A)


def test_radical_of_upper_triangular():
    A = upper_triangular_algebra(2, Q)
    rad = radical(A)
    assert len(rad) == 1
    # the strictly-upper part: coordinates concentrated on e12
    assert [bool(c) for c in rad[0]] == [False, True, False]


def test_radical_of_modular_group_algebra():
    # F_2 C_2 is local: radical spanned by 1 + g
    A = cyclic_group_algebra(2, F2)
    rad = radical(A)
    assert len(rad) == 1
    assert all(bool(c) for c in rad[0])


def test_composition_factors_matrix_algebra():
    A = matrix_algebra(3, Q)
    facs = composition_factors(A.regular_module())
    assert [(S.dim, m) for S, m in facs] == [(3, 3)]


def test_composition_factors_cyclic3_rational():
    A = cyclic_group_algebra(3, Q)
    facs = composition_factors(A.regular_module())
    assert sorted((S.dim, m) for S, m in facs) == [(1, 1), (2, 1)]


def test_composition_factors_modular():
    A = cyclic_group_algebra(2, F2)
    facs = composition_factors(A.regular_module())
    assert [(S.dim, m) for S, m in facs] == [(1, 2)]


def test_quaternions_regular_module_is_simple():
    H = quaternion_algebra(-1, -1, Q)
    facs = composition_factors(H.regular_module())
    assert [(S.dim, m) for S, m in facs] == [(4, 1)]


def test_factors_are_seed_independent():
    A = cyclic_group_algebra(4, F2)
    base = sorted(S.dim for S, m in composition_factors(A.regular_module(), seed=0)
                  for _ in range(m))
    for seed in (1, 2, 17):
        dims = sorted(S.dim for S, m
                      in composition_factors(A.regular_module(), seed=seed)
                      for _ in range(m))
        assert dims == base


def test_simple_modules_multiplicities():
    A = matrix_algebra(2, F3)
    entries = simple_modules(A).entries
    assert [(S.dim, m) for S, m in entries] == [(2, 2)]


def test_oracle_simplicity():
    A = matrix_algebra(2, F2)
    M = A.regular_module()
    assert not oracle_is_simple(M)
    S = composition_factors(M)[0][0]
    assert oracle_is_simple(S)


def test_oracle_submodule_lattice():
    # F_2 C_2 regular module: 0, the radical, and the whole thing
    A = cyclic_group_algebra(2, F2)
    assert oracle_submodules(A.regular_module()) == [0, 1, 2]


def test_oracle_series_agrees_with_structure():
    for A in (cyclic_group_algebra(4, F2), matrix_algebra(2, F3),
              upper_triangular_algebra(2, F2)):
        M = A.regular_module()
        assert sorted(oracle_composition_series_dims(M)) == \
            sorted(S.dim for S, m in composition_factors(M) for _ in range(m))


ORACLE_FIELDS = (F2, F3, finite_field_of_degree(2, 2),
                 finite_field_of_degree(3, 2))
ORACLE_SOURCES = (lambda F: cyclic_group_algebra(2, F),
                  lambda F: cyclic_group_algebra(3, F),
                  lambda F: cyclic_group_algebra(4, F),
                  lambda F: upper_triangular_algebra(2, F),
                  lambda F: matrix_algebra(2, F))


@st.composite
def oracle_modules(draw):
    """A module of dimension <= 4 over GF(2), GF(3), GF(4) or GF(9): a regular
    module, a spun sub or quotient of one, or the sum of two such pieces,
    under a seeded change of basis."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    A = draw(st.sampled_from(ORACLE_SOURCES))(field)
    rng = random.Random(draw(st.integers(0, 1 << 32)))

    def element():
        p = field.characteristic
        return field.element([rng.randrange(p) for _ in range(field.degree)])

    def piece():
        M = A.regular_module()
        part = draw(st.sampled_from(("reg", "sub", "quot")))
        basis = spin(M, [[element() for _ in range(M.dim)]])
        if part == "reg" or not 0 < len(basis) < M.dim:
            return M
        parts = sub_quotient(M, basis)
        return parts.sub if part == "sub" else parts.quot

    M = piece()
    if draw(st.booleans()):
        other = piece()
        if M.dim + other.dim <= 4:
            M = direct_sum(M, other)
    while True:
        P = Matrix(field, M.dim, M.dim,
                   [[element() for _ in range(M.dim)] for _ in range(M.dim)])
        if P.is_invertible():
            return conjugate(M, P)


@settings(max_examples=40)
@given(oracle_modules())
def test_composition_factors_agree_with_the_oracle(M):
    factors = composition_factors(M)
    dims = sorted(S.dim for S, mult in factors for _ in range(mult))
    assert dims == sorted(oracle_composition_series_dims(M))
    assert sum(mult * S.dim for S, mult in factors) == M.dim


@st.composite
def modules_with_subs(draw):
    """A module from ``oracle_modules`` and the basis of a spun sub: a proper
    one, spun from a seeded or a standard vector, whenever one of those
    spins to a proper sub."""
    M = draw(oracle_modules())
    rng = random.Random(draw(st.integers(0, 1 << 32)))
    field = M.algebra.field
    zero, one = field.zero(), field.one()
    vectors = [[field.element([rng.randrange(field.characteristic)
                               for _ in range(field.degree)])
                for _ in range(M.dim)]]
    vectors += [[one if i == j else zero for j in range(M.dim)]
                for i in range(M.dim)]
    subs = [spin(M, [v]) for v in vectors]
    proper = [b for b in subs if 0 < len(b) < M.dim]
    return M, rng.choice(proper) if proper else subs[0]


@settings(max_examples=40)
@given(modules_with_subs())
def test_sub_quotient_splits_the_oracle_series(case):
    M, basis = case
    parts = sub_quotient(M, basis)
    assert parts.sub.dim == len(basis)
    assert parts.sub.dim + parts.quot.dim == M.dim
    dims = sorted(S.dim for N in (parts.sub, parts.quot)
                  for S, mult in composition_factors(N) for _ in range(mult))
    assert dims == sorted(oracle_composition_series_dims(M))


def _change_basis(A, P):
    """A on the basis f_i = sum_a P[a][i] a_a."""
    Pinv = P.inverse()
    cols = [P.col(i) for i in range(A.dim)]
    constants = [[Pinv.apply(A.mul_coords(cols[i], cols[j]))
                  for j in range(A.dim)] for i in range(A.dim)]
    return Algebra(A.field, A.dim, A.basis_labels, constants,
                   Pinv.apply(A.unit))


def _random_invertible(field, d, rng):
    while True:
        P = Matrix(field, d, d, [[field.from_base(rng.randint(-2, 2))
                                  for _ in range(d)] for _ in range(d)])
        if P.is_invertible():
            return P


def _char0_algebras():
    """The bundled char-0 algebras, and those of dimension <= 4 under two
    seeded dense changes of basis (the products of L_i stay cheap)."""
    out = []
    for name, A in bundled_algebras().items():
        if A.field.characteristic:
            continue
        out.append(pytest.param(A, id=name))
        for seed in (1, 2) if A.dim <= 4 else ():
            P = _random_invertible(A.field, A.dim, random.Random(seed))
            out.append(pytest.param(_change_basis(A, P), id=f"{name}/basis{seed}"))
    return out


@pytest.mark.parametrize("A", _char0_algebras())
def test_trace_form_equals_traces_of_products(A):
    assert algebra_validate(A) is None
    L = A.regular_module().actions
    gram = [[(L[i] @ L[j]).trace() for j in range(A.dim)] for i in range(A.dim)]
    assert structure._trace_form(A).entries == tuple(map(tuple, gram))


@pytest.mark.parametrize("A", [matrix_algebra(3, Q), cyclic_group_algebra(6, Q)],
                         ids=["M_3(QQ)", "QQ[C_6]"])
def test_simple_modules_computes_the_radical_once(A, monkeypatch):
    calls = []
    original = structure._radical_trace_form

    def counted(B):
        calls.append(B)
        return original(B)

    monkeypatch.setattr(structure, "_radical_trace_form", counted)
    simple_modules(A)
    assert calls == [A]


SMALL_BUNDLED = sorted(name for name, A in bundled_algebras().items()
                       if A.dim <= 4)


@st.composite
def rebased_bundled(draw):
    """A bundled algebra of dimension <= 4 on a seeded dense basis."""
    A = bundled_algebras()[draw(st.sampled_from(SMALL_BUNDLED))]
    rng = random.Random(draw(st.integers(0, 1 << 16)))
    return _change_basis(A, _random_invertible(A.field, A.dim, rng))


@settings(max_examples=25)
@given(rebased_bundled())
def test_simple_modules_fill_the_algebra_for_every_seed(A):
    shapes = []
    for seed in (0, 1, 2):
        entries = simple_modules(A, seed=seed).entries
        assert sum(mult * S.dim for S, mult in entries) == A.dim
        shapes.append(sorted((S.dim, mult) for S, mult in entries))
    assert shapes[0] == shapes[1] == shapes[2]


def _uniserial_ideal():
    """The left ideal A e22 of A = U_2(F_2), uniserial with End = F_2, in the
    basis P = [[1, 0], [1, 1]]: both standard vectors spin to the whole."""
    A = upper_triangular_algebra(2, F2)
    M = A.regular_module()
    ideal = sub_quotient(M, spin(M, [A.basis_vector(2)])).sub
    P = Matrix.from_rows(F2, [[F2.one(), F2.zero()], [F2.one(), F2.one()]])
    return conjugate(ideal, P)


def test_the_last_resort_finds_the_socle_of_a_uniserial_module(monkeypatch):
    # with no MeatAxe attempt, only the last resort sees the socle; "every
    # nonzero endomorphism is invertible" held here and called it simple
    N = _uniserial_ideal()
    field = N.algebra.field
    units = [[field.one(), field.zero()], [field.zero(), field.one()]]
    assert [len(spin(N, [e])) for e in units] == [2, 2]
    assert not oracle_is_simple(N)
    monkeypatch.setattr(structure, "_MEATAXE_ATTEMPTS", 0)
    dims = sorted(S.dim for S, m in composition_factors(N) for _ in range(m))
    assert dims == oracle_composition_series_dims(N) == [1, 1]


def test_a_finite_field_beyond_the_oracle_bound_is_inconclusive(monkeypatch):
    monkeypatch.setattr(structure, "_MEATAXE_ATTEMPTS", 0)
    monkeypatch.setattr(structure, "_ORACLE_BOUND", 2)
    with pytest.raises(Inconclusive, match=r"in 0 MeatAxe attempts .* "
                       r"2\^2 = 4 vectors exceed the oracle bound 2$"):
        composition_factors(_uniserial_ideal())


def test_the_end_pass_splits_what_no_standard_vector_splits(monkeypatch):
    # QQ x QQ in the basis [[1, 1], [1, 2]]: both standard vectors spin to
    # the whole, so with no MeatAxe attempt only the pass over End(M) sees
    # the two lines
    zero, one, two = Q.zero(), Q.one(), Q.from_base(2)
    P = Matrix.from_rows(Q, [[one, one], [one, two]])
    M = conjugate(diagonal_algebra(2, Q).regular_module(), P)
    units = [[one, zero], [zero, one]]
    assert [len(spin(M, [e])) for e in units] == [2, 2]
    monkeypatch.setattr(structure, "_MEATAXE_ATTEMPTS", 0)
    assert [(S.dim, m) for S, m in composition_factors(M)] == [(1, 1), (1, 1)]


def test_the_oracle_closes_cyclic_submodules_under_sums():
    # T + T for the 1-dim simple T of F_2: three lines, and the whole
    # 2-dim module, which no single vector spins to
    T = matrix_algebra(1, F2).regular_module()
    assert oracle_submodules(direct_sum(T, T)) == [0, 1, 1, 1, 2]


def _conic_has_point(a, b):
    """Whether a x^2 + b y^2 = z^2 has a solution with 0 <= x, y < 60, not
    both zero."""
    for x in range(60):
        for y in range(60):
            t = a * x * x + b * y * y
            if (x or y) and t >= 0 and isqrt(t) ** 2 == t:
                return True
    return False


def test_the_division_test_agrees_with_a_conic_search():
    values = [c for c in range(-12, 13) if c]
    for a in values:
        for b in values:
            assert structure._is_division_quaternion(a, b) \
                == (not _conic_has_point(a, b)), (a, b)


def test_the_division_test_reads_rationals_up_to_squares():
    assert structure._is_division_quaternion(Fraction(-1, 4), Fraction(-9, 2)) \
        == structure._is_division_quaternion(-1, -2) is True
    assert structure._is_division_quaternion(Fraction(2, 9), Fraction(7, 25)) \
        == structure._is_division_quaternion(2, 7) is False


@pytest.mark.parametrize("a, b, shape, division", [
    (-1, -1, [(4, 1)], True),
    (-1, 3, [(4, 1)], True),
    (1, 1, [(2, 2)], False),
    (2, 7, [(2, 2)], False),
])
def test_quaternion_algebras_over_QQ(a, b, shape, division):
    M = quaternion_algebra(a, b, Q).regular_module()
    # End(A) of the regular module is A^op, again the quaternion algebra (a, b)
    assert structure._is_division_end(hom_space(M, M).mats) is division
    assert [(S.dim, m) for S, m in composition_factors(M)] == shape


def test_a_sum_of_two_quaternion_modules_is_not_decided_by_its_end():
    H = quaternion_algebra(-1, -1, Q).regular_module()
    HH = direct_sum(H, H)
    mats = hom_space(HH, HH).mats
    assert len(mats) == 16 and not structure._is_division_end(mats)
    assert [(S.dim, m) for S, m in composition_factors(HH)] == [(4, 2)]


def test_a_quartic_field_is_not_taken_for_a_quaternion_algebra(monkeypatch):
    # End of the regular module of QQ(zeta_8) is commutative of dimension 4:
    # no quaternion presentation, so only the last resort decides it
    M = field_algebra(number_field([1, 0, 0, 0, 1])).regular_module()
    mats = hom_space(M, M).mats
    assert len(mats) == 4 and structure._quaternion_parameters(mats) is None
    assert not structure._is_division_end(mats)
    monkeypatch.setattr(structure, "_MEATAXE_ATTEMPTS", 0)
    assert [(S.dim, m) for S, m in composition_factors(M)] == [(4, 1)]


def test_the_quaternions_cost_at_most_two_factorizations(monkeypatch):
    calls = []
    original = polys.factor

    def counted(f, F):
        calls.append(f)
        return original(f, F)

    monkeypatch.setattr(polys, "factor", counted)
    H = quaternion_algebra(-1, -1, Q)
    assert [(S.dim, m) for S, m in composition_factors(H.regular_module())] \
        == [(4, 1)]
    assert len(calls) <= 2
