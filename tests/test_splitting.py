import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

from splitfields.algebras import (
    cyclic_group_algebra,
    diagonal_algebra,
    field_algebra,
    matrix_algebra,
    quaternion_algebra,
    upper_triangular_algebra,
)
from splitfields.basechange import extend_algebra
from splitfields.errors import DegreeCapExceeded, NotSimple, PreconditionFailed
from splitfields.fields import (
    FieldEmbedding,
    adjoin_root,
    compose_embeddings,
    embed_find,
    finite_field_of_degree,
    identity_embedding,
    number_field,
    poly_roots,
    prime_field,
    rationals,
)
from splitfields.linalg import Matrix
from splitfields.modules import Module
from splitfields.polys import factor
from splitfields.splitting import (
    _descends_into,
    find_splitting_field,
    is_absolutely_simple,
    is_split,
    is_splitting_field,
    verify_chain_theorem,
    verify_split_radical,
)
from splitfields.structure import composition_factors

Q = rationals()
F2 = prime_field(2)
Qi = number_field([1, 0, 1])
EMB_QI = FieldEmbedding(Q, Qi, Qi.one())


def test_is_absolutely_simple_matrix_column():
    A = matrix_algebra(2, Q)
    S = composition_factors(A.regular_module())[0][0]
    flag, dim_end, image_rank = is_absolutely_simple(S)
    assert flag and dim_end == 1 and image_rank == 4


def test_is_absolutely_simple_rejects_non_simple():
    A = cyclic_group_algebra(2, Q)
    with pytest.raises(NotSimple):
        is_absolutely_simple(A.regular_module())


def test_quaternion_simple_fails_absoluteness():
    H = quaternion_algebra(-1, -1, Q)
    S = composition_factors(H.regular_module())[0][0]
    flag, dim_end, image_rank = is_absolutely_simple(S, assume_simple=True)
    assert not flag and dim_end == 4 and image_rank == 4


def test_is_split_verdicts():
    assert is_split(matrix_algebra(2, Q)).verdict
    assert is_split(diagonal_algebra(2, Q)).verdict
    assert not is_split(quaternion_algebra(-1, -1, Q)).verdict
    assert not is_split(cyclic_group_algebra(3, Q)).verdict


def test_is_splitting_field_cyclotomic():
    A = cyclic_group_algebra(3, Q)
    Qz = number_field([1, 1, 1])
    emb = FieldEmbedding(Q, Qz, Qz.one())
    rep = is_splitting_field(A, emb)
    assert rep.verdict
    assert sorted((e.module.dim, e.multiplicity) for e in rep.per_simple) \
        == [(1, 1)] * 3
    assert not is_splitting_field(A, identity_embedding(Q)).verdict


def test_is_splitting_field_gf4():
    A = field_algebra(finite_field_of_degree(2, 2))
    rep = is_splitting_field(A, embed_find(F2, finite_field_of_degree(2, 2)))
    assert rep.verdict
    assert len(rep.per_simple) == 2


def test_find_splitting_field_quaternions():
    H = quaternion_algebra(-1, -1, Q)
    res = find_splitting_field(H)
    assert res.degree == 2
    per = res.certificate.per_simple
    assert [(e.module.dim, e.multiplicity, e.dim_end) for e in per] == [(2, 2, 1)]


def test_find_splitting_field_cyclic4():
    res = find_splitting_field(cyclic_group_algebra(4, Q))
    E = res.final_field
    assert res.degree == 2
    assert poly_roots([E.one(), E.zero(), E.one()], E)  # contains a root of x^2+1


def test_find_splitting_field_respects_degree_cap():
    H = quaternion_algebra(-1, -1, Q)
    with pytest.raises(DegreeCapExceeded, match=r"of degree 2, would reach "
                       r"degree 2, beyond the max degree 1$"):
        find_splitting_field(H, max_degree=1)


def test_find_splitting_field_already_split():
    res = find_splitting_field(matrix_algebra(2, F2))
    assert res.degree == 1 and res.iterations == 0


def test_verify_split_radical_true_cases():
    emb4 = embed_find(F2, finite_field_of_degree(2, 2))
    assert verify_split_radical(matrix_algebra(2, Q), EMB_QI)
    assert verify_split_radical(upper_triangular_algebra(2, Q), EMB_QI)
    assert verify_split_radical(cyclic_group_algebra(2, F2), emb4)
    assert verify_split_radical(diagonal_algebra(2, Q), EMB_QI)


def test_verify_split_radical_requires_split():
    with pytest.raises(PreconditionFailed):
        verify_split_radical(quaternion_algebra(-1, -1, Q), EMB_QI)


def test_chain_finite_tower():
    F4 = finite_field_of_degree(2, 2)
    F16 = finite_field_of_degree(2, 4)
    rep = verify_chain_theorem(cyclic_group_algebra(3, F2),
                               embed_find(F2, F4), embed_find(F4, F16))
    assert rep.decisive and rep.agree
    assert rep.side_mid is True and rep.side_top is True


def test_chain_negative_top_over_a_finite_field():
    # F_2 is not a splitting field of F_2 C_3 (x^2 + x + 1 is irreducible),
    # so the top side is false without any descent
    ident = identity_embedding(F2)
    rep = verify_chain_theorem(cyclic_group_algebra(3, F2), ident, ident)
    assert rep.side_top is False and rep.side_mid is False
    assert rep.decisive and rep.agree and rep.details == ()


def test_chain_negative_mid():
    # QQ is not a splitting field of QC_3, and neither side claims it is
    Qz = number_field([1, 1, 1])
    emb = FieldEmbedding(Q, Qz, Qz.one())
    rep = verify_chain_theorem(cyclic_group_algebra(3, Q),
                               identity_embedding(Q), emb)
    assert rep.decisive and rep.agree
    assert rep.side_mid is False and rep.side_top is False


def test_descent_must_land_inside_the_middle_field():
    # QQ < E = QQ(cbrt2) < F = E(omega): QQ(omega cbrt2) is isomorphic to E
    # but is a different subfield of F, so a module written over it is not
    # written in E
    E = number_field([-2, 0, 0, 1])
    x2_x_1 = [E.one(), E.one(), E.one()]
    F, emb_top, omega = adjoin_root(E, x2_x_1)
    emb_mid = embed_find(Q, E)
    A = field_algebra(E)
    ctx = extend_algebra(A, compose_embeddings(emb_mid, emb_top))
    cbrt2 = emb_top.apply(E.generator())

    def module(t):
        return Module(ctx.extended, 1, [Matrix(F, 1, 1, [[t ** i]])
                                        for i in range(A.dim)])

    assert _descends_into(ctx, module(omega * cbrt2), emb_top) == (False, True)
    assert _descends_into(ctx, module(cbrt2), emb_top) == (True, True)


@contextmanager
def _within(seconds):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass."""
    def stop(signum, frame):
        raise TimeoutError(f"took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_factoring_over_a_number_field_reads_domain_elements():
    # converting sympy's factor expressions back rebuilt QQ(alpha) for each
    # coefficient and did not return within minutes on this input
    K = number_field([Fraction(8, 9), Fraction(4, 3), 1])
    f = [K.from_base(Fraction(265, 4)), K.from_base(3), K.one()]
    with _within(5):
        factors = factor(f, K)
    assert [g for g, _ in factors] == [
        [K.element([Fraction(-13, 2), -12]), K.one()],
        [K.element([Fraction(19, 2), 12]), K.one()],
    ]


def test_chain_theorem_on_the_cube_root_of_two_tower():
    # QQ < E = QQ(cbrt2) < F = E(omega) for the QQ-algebra E: E (x) E has
    # the factor E(omega), so E does not split it; F does, but the simple
    # on which cbrt2 acts as omega cbrt2 cannot be written in E
    E = number_field([-2, 0, 0, 1])
    F, emb_top, _omega = adjoin_root(E, [E.one(), E.one(), E.one()])
    with _within(5):
        rep = verify_chain_theorem(field_algebra(E), embed_find(Q, E), emb_top)
    assert rep.decisive and rep.agree
    assert rep.side_mid is False and rep.side_top is False
