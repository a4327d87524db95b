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
    embed_find,
    finite_field_of_degree,
    number_field,
    prime_field,
    rationals,
)
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


def test_write_in_round_trip():
    A = matrix_algebra(2, F2)
    ctx = extend_algebra(A, EMB_F4)
    M = extend_module(A.regular_module(), ctx)
    descent = write_in(ctx, M, EMB_F4)
    assert descent.module.algebra.field == F2
    assert descent.module.dim == M.dim
