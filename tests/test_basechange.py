import random
import sys

import pytest

from splitfields.algebras import (
    Algebra,
    algebra_validate,
    cyclic_group_algebra,
    matrix_algebra,
    quaternion_algebra,
    upper_triangular_algebra,
)
from splitfields.basechange import (
    descend_module,
    extend_algebra,
    extend_module,
    end_algebra_extension_check,
    map_matrix,
    theta_apply,
    theta_dim_check,
    write_in,
)
from splitfields.corpus import bundled_algebras
from splitfields.errors import FieldMismatch, NotOverE
from splitfields.fields import (
    FieldEmbedding,
    compose_embeddings,
    embed_find,
    finite_field_of_degree,
    identity_embedding,
    number_field,
    prime_field,
    rationals,
)
from splitfields.linalg import Matrix
from splitfields.modules import Module, conjugate, hom_space, module_validate
from splitfields.structure import composition_factors

Q = rationals()
F2 = prime_field(2)
F4 = finite_field_of_degree(2, 2)
Qi = number_field([1, 0, 1])
EMB_QI = FieldEmbedding(Q, Qi, Qi.one())
EMB_F4 = embed_find(F2, F4)
F3 = prime_field(3)
F16 = finite_field_of_degree(2, 4)
Q8 = number_field([1, 0, 0, 0, 1])


def test_extend_algebra_preserves_axioms():
    for A, emb in ((cyclic_group_algebra(4, Q), EMB_QI),
                   (cyclic_group_algebra(3, F2), EMB_F4)):
        ctx = extend_algebra(A, emb)
        assert ctx.extended.dim == A.dim
        assert algebra_validate(ctx.extended) is None


def test_extend_algebra_does_not_validate():
    """The base change of a valid algebra is valid by construction."""
    A = bundled_algebras()["mat3_F2"]
    code = algebra_validate.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(event)

    sys.setprofile(profile)
    try:
        ctx = extend_algebra(A, EMB_F4)
        assert calls == []
        assert algebra_validate(ctx.extended) is None
    finally:
        sys.setprofile(None)
    assert calls == ["call"]


def test_extend_module_preserves_axioms():
    A = cyclic_group_algebra(3, F2)
    ctx = extend_algebra(A, EMB_F4)
    M = extend_module(A.regular_module(), ctx)
    assert module_validate(M) is None


def test_hom_dimension_constant_under_extension():
    A = quaternion_algebra(-1, -1, Q)
    ctx = extend_algebra(A, EMB_QI)
    M = A.regular_module()
    check = theta_dim_check(M, M, ctx)
    assert check.equal and check.dim_base == check.dim_extended == 4


def test_theta_maps_homs_to_homs():
    A = cyclic_group_algebra(2, Q)
    ctx = extend_algebra(A, EMB_QI)
    M = A.regular_module()
    for f in hom_space(M, M).mats:
        g = theta_apply(f, M, M, ctx)
        assert g.field == Qi


def test_end_algebra_extension_check():
    A = cyclic_group_algebra(3, Q)
    ctx = extend_algebra(A, EMB_QI)
    M = A.regular_module()
    assert end_algebra_extension_check(M, ctx)


# the four kinds of base change: QQ into a number field, GF(2) and GF(3)
# into extensions, and a number field into a larger one, i -> zeta_8^2
REFERENCE_EMBEDDINGS = [
    EMB_QI, embed_find(F2, F16), embed_find(F3, finite_field_of_degree(3, 2)),
    FieldEmbedding(Qi, Q8, Q8.generator() * Q8.generator())]


def _entrywise(emb, m):
    """The reference base change of a matrix: one ``apply`` per entry."""
    return Matrix(emb.target, m.rows, m.cols,
                  [[emb.apply(e) for e in row] for row in m.entries])


def _seeded_invertible(field, n, rng):
    while True:
        P = Matrix(field, n, n, [[field.element([rng.randint(-2, 2)
                                                 for _ in range(field.degree)])
                                  for _ in range(n)] for _ in range(n)])
        if P.is_invertible():
            return P


def _change_basis(A, P):
    """A on the basis f_i = sum_a P[a][i] a_a: dense structure constants."""
    Pinv = P.inverse()
    cols = [P.col(i) for i in range(A.dim)]
    constants = [[Pinv.apply(A.mul_coords(cols[i], cols[j]))
                  for j in range(A.dim)] for i in range(A.dim)]
    return Algebra(A.field, A.dim, A.basis_labels, constants,
                   Pinv.apply(A.unit))


@pytest.mark.parametrize("emb", REFERENCE_EMBEDDINGS,
                         ids=["QQ-QQ(i)", "F2-F16", "F3-F9", "QQ(i)-QQ(z8)"])
def test_extension_agrees_with_the_entrywise_reference(emb):
    rng = random.Random(3)
    k, F = emb.source, emb.target
    for A in (cyclic_group_algebra(3, k), upper_triangular_algebra(2, k),
              matrix_algebra(2, k)):
        P = _seeded_invertible(k, A.dim, rng)
        assert map_matrix(emb, P) == _entrywise(emb, P)
        B = _change_basis(A, P)
        reference = Algebra(F, B.dim, B.basis_labels,
                            [[[emb.apply(e) for e in v] for v in row]
                             for row in B.constants],
                            [emb.apply(e) for e in B.unit])
        ctx = extend_algebra(B, emb)
        assert ctx.extended == reference
        M = conjugate(B.regular_module(), _seeded_invertible(k, B.dim, rng))
        assert extend_module(M, ctx) == Module(
            reference, M.dim, [_entrywise(emb, a) for a in M.actions])
        for a in M.actions:
            assert map_matrix(emb, a) == _entrywise(emb, a)


@pytest.mark.parametrize("A, emb", [
    (matrix_algebra(3, F2), EMB_F4),
    (upper_triangular_algebra(3, F2), EMB_F4),
    (cyclic_group_algebra(5, F2), embed_find(F2, F16)),
    (quaternion_algebra(-1, -1, Q), EMB_QI),
], ids=["M_3", "U_3", "GF(2)[C_5]", "H(-1,-1)"])
@pytest.mark.parametrize("seed", [None, 4])
def test_the_extension_inherits_the_generating_set(A, emb, seed):
    """The generating set A^F inherits from A is the one computed afresh
    over F, in the standard basis and in a seeded dense one."""
    if seed is not None:
        A = _change_basis(A, _seeded_invertible(A.field, A.dim,
                                                random.Random(seed)))
    ext = extend_algebra(A, emb).extended
    fresh = Algebra(ext.field, ext.dim, ext.basis_labels, ext.constants,
                    ext.unit)
    assert ext._generators() == fresh._generators()


def test_a_matrix_over_the_wrong_field_is_not_mapped():
    A = cyclic_group_algebra(2, Q)
    ctx = extend_algebra(A, EMB_QI)
    M = A.regular_module()
    wrong = Matrix.identity(F2, 2)
    with pytest.raises(FieldMismatch):
        map_matrix(EMB_QI, wrong)
    with pytest.raises(FieldMismatch):
        theta_apply(wrong, M, M, ctx)
    # already over the target: the embedding's source is QQ, not QQ(i)
    with pytest.raises(FieldMismatch):
        map_matrix(EMB_QI, Matrix.identity(Qi, 2))


def test_base_change_maps_each_distinct_scalar_once(monkeypatch):
    """M_3(F_2) has two distinct scalars, 0 and 1: extending it, its
    regular module or both sides of a hom-dimension check costs at most
    two embedding images, not one per entry (729 constants, 81 entries)."""
    calls = []
    apply = FieldEmbedding.apply

    def counted(self, a):
        calls.append(a)
        return apply(self, a)

    A = matrix_algebra(3, F2)
    M = A.regular_module()
    monkeypatch.setattr(FieldEmbedding, "apply", counted)
    ctx = extend_algebra(A, EMB_F4)
    assert len(calls) <= 2
    calls.clear()
    extend_module(M, ctx)
    assert len(calls) <= 2
    calls.clear()
    theta_dim_check(M, M, ctx)
    assert len(calls) <= 2


def test_descend_simple_with_large_entry_field():
    # the nontrivial character of C_3 over F_4 needs all of F_4
    A = cyclic_group_algebra(3, F2)
    ctx = extend_algebra(A, EMB_F4)
    V = next(S for S, _ in composition_factors(ctx.extended.regular_module())
             if S.dim == 1 and any(c != ctx.extended.field.one()
                                   and bool(c)
                                   for m in S.actions for r in m.entries
                                   for c in r))
    descent = descend_module(ctx, V)
    assert descent.subfield.degree == 2


def test_descend_module_with_prime_entries():
    # the trivial character descends to F_2
    A = cyclic_group_algebra(3, F2)
    ctx = extend_algebra(A, EMB_F4)
    one = ctx.extended.field.one()
    V = next(S for S, _ in composition_factors(ctx.extended.regular_module())
             if S.dim == 1 and all(c == one
                                   for m in S.actions for r in m.entries
                                   for c in r))
    descent = descend_module(ctx, V)
    assert descent.subfield.degree == 1


def test_write_in_rejects_wrong_subfield():
    A = cyclic_group_algebra(3, F2)
    F16 = finite_field_of_degree(2, 4)
    ctx = extend_algebra(A, embed_find(F2, F16))
    V = next(S for S, _ in composition_factors(ctx.extended.regular_module())
             if descend_module(ctx, S).subfield.degree == 2)
    with pytest.raises(NotOverE):
        write_in(ctx, V, embed_find(F2, F16))


def test_write_in_through_a_frobenius_tower():
    """k = F_4, E = F = F_16 and E -> F the Frobenius t -> t^2: the k -> E
    that commutes with the tower is not embed_find's least root."""
    F16 = finite_field_of_degree(2, 4)
    frobenius = FieldEmbedding(F16, F16, F16.generator() * F16.generator())
    ctx = extend_algebra(cyclic_group_algebra(3, F4), embed_find(F4, F16))
    assert ctx.emb.generator_image == F16.element([0, 1, 0, 1])
    for V, _ in composition_factors(ctx.extended.regular_module()):
        descent = write_in(ctx, V, frobenius)
        assert descent.emb_base.generator_image == F16.element([1, 1, 0, 1])
        assert compose_embeddings(descent.emb_base, frobenius) == ctx.emb
        back = extend_algebra(descent.module.algebra, frobenius)
        assert extend_module(descent.module, back) == V


def test_write_in_round_trip():
    A = matrix_algebra(2, F2)
    ctx = extend_algebra(A, EMB_F4)
    M = extend_module(A.regular_module(), ctx)
    descent = write_in(ctx, M, EMB_F4)
    assert descent.module.algebra.field == F2
    assert descent.module.dim == M.dim


def _seeded_basis(field, n, seed, emb):
    """The rows of a seeded invertible n x n matrix over ``field``, mapped
    into the target of ``emb``."""
    P = _seeded_invertible(field, n, random.Random(seed))
    return [tuple(emb.apply(e) for e in row) for row in P.entries]


@pytest.mark.parametrize("A, emb", [(cyclic_group_algebra(3, F2), EMB_F4),
                                    (cyclic_group_algebra(4, Q), EMB_QI)])
@pytest.mark.parametrize("seed", [None, 1, 2])
def test_descent_witness_intertwines(A, emb, seed):
    """The witness P is invertible and P a = b P for every action a of the
    descended module extended back to F and the matching action b of V, on
    the standard basis and on seeded bases over k (descending to k) and
    over F (descending to F itself)."""
    F = emb.target
    ctx = extend_algebra(A, emb)
    V = extend_module(A.regular_module(), ctx)
    cases = [(emb, None)] if seed is None else \
        [(emb, _seeded_basis(A.field, V.dim, seed, emb)),
         (identity_embedding(F), _seeded_basis(F, V.dim, seed,
                                               identity_embedding(F)))]
    for emb_up, basis in cases:
        descent = write_in(ctx, V, emb_up, basis=basis)
        P = descent.witness
        assert P.is_invertible()
        back = extend_module(descent.module,
                             extend_algebra(descent.module.algebra, emb_up))
        assert back.algebra == V.algebra
        for a, b in zip(back.actions, V.actions):
            assert P @ a == b @ P
