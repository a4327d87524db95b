import random
import sys

import pytest

from splitfields.algebras import (
    algebra_validate,
    cyclic_group_algebra,
    matrix_algebra,
    quaternion_algebra,
)
from splitfields.basechange import (
    descend_module,
    extend_algebra,
    extend_module,
    end_algebra_extension_check,
    theta_apply,
    theta_dim_check,
    write_in,
)
from splitfields.corpus import bundled_algebras
from splitfields.errors import NotOverE
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
from splitfields.modules import hom_space, module_validate
from splitfields.structure import composition_factors

Q = rationals()
F2 = prime_field(2)
F4 = finite_field_of_degree(2, 2)
Qi = number_field([1, 0, 1])
EMB_QI = FieldEmbedding(Q, Qi, Qi.one())
EMB_F4 = embed_find(F2, F4)


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
    rng = random.Random(seed)
    while True:
        P = Matrix(field, n, n, [[field.element([rng.randint(-2, 2)
                                                 for _ in range(field.degree)])
                                  for _ in range(n)] for _ in range(n)])
        if P.is_invertible():
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
