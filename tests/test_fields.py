import copy
import pickle
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from splitfields import documents, polys
from splitfields.corpus import bundled_embeddings, eisenstein_rationals
from splitfields.errors import BadParams, FieldMismatch, NoEmbedding
from splitfields.fields import (
    FieldEmbedding,
    adjoin_root,
    compose_embeddings,
    element_degree,
    element_min_poly,
    embed_find,
    embedding_preimage,
    finite_field,
    finite_field_of_degree,
    number_field,
    poly_roots,
    prime_field,
    rationals,
    subfield_generated,
)
from splitfields.linalg import Matrix


def test_prime_field_arithmetic():
    F5 = prime_field(5)
    a, b = F5.element([3]), F5.element([4])
    assert (a * b).coords == (2,)
    assert (a + b).coords == (2,)
    assert (a / b).coords == (2,)  # 3 * 4^{-1} = 3 * 4 = 12 = 2
    assert (-a).coords == (2,)


def test_prime_field_requires_prime():
    with pytest.raises(BadParams):
        prime_field(6)


def test_gf4_generator_relation():
    F4 = finite_field(2, [1, 1, 1])
    t = F4.generator()
    assert (t * t).coords == (1, 1)  # t^2 = t + 1
    assert (t * t * t) == F4.one()


def test_finite_field_rejects_reducible():
    with pytest.raises(BadParams):
        finite_field(2, [1, 0, 1])  # x^2 + 1 = (x+1)^2 over F_2


def test_canonical_field_of_degree():
    F16 = finite_field_of_degree(2, 4)
    # lex-least monic irreducible of degree 4 over F_2
    assert F16.modulus == (1, 0, 0, 1, 1)
    assert F16.order == 16


def test_gaussian_rationals_inverse():
    Qi = number_field([1, 0, 1])
    a = Qi.element([Fraction(1), Fraction(2)])  # 1 + 2i
    inv = a.inverse()
    assert a * inv == Qi.one()
    assert inv.coords == (Fraction(1, 5), Fraction(-2, 5))


def test_poly_roots_finite_exhaustive():
    F7 = prime_field(7)
    # x^2 - 2 has roots 3, 4 mod 7
    f = [F7.element([-2]), F7.zero(), F7.one()]
    roots = sorted(r.coords[0] for r in poly_roots(f, F7))
    assert roots == [3, 4]
    for r in poly_roots(f, F7):
        assert r * r == F7.element([2])


def test_poly_roots_rational():
    Q = rationals()
    # (x - 1/2)(x + 3)
    f = [Q.element([Fraction(-3, 2)]), Q.element([Fraction(5, 2)]), Q.one()]
    roots = sorted(r.coords[0] for r in poly_roots(f, Q))
    assert roots == [Fraction(-3), Fraction(1, 2)]


def test_embedding_is_homomorphism():
    F4 = finite_field_of_degree(2, 2)
    F16 = finite_field_of_degree(2, 4)
    emb = embed_find(F4, F16)
    for a in F4.elements():
        for b in F4.elements():
            assert emb.apply(a + b) == emb.apply(a) + emb.apply(b)
            assert emb.apply(a * b) == emb.apply(a) * emb.apply(b)
    assert emb.apply(F4.one()) == F16.one()


def test_embedding_requires_degree_divisibility():
    with pytest.raises(NoEmbedding):
        embed_find(finite_field_of_degree(2, 2), finite_field_of_degree(2, 3))


def test_embedding_rejects_non_root():
    F4 = finite_field_of_degree(2, 2)
    F16 = finite_field_of_degree(2, 4)
    with pytest.raises(NoEmbedding):
        FieldEmbedding(F4, F16, F16.generator())


def test_embedding_preimage_round_trip():
    F4 = finite_field_of_degree(2, 2)
    F16 = finite_field_of_degree(2, 4)
    emb = embed_find(F4, F16)
    for a in F4.elements():
        assert embedding_preimage(emb, emb.apply(a)) == a
    assert embedding_preimage(emb, F16.generator()) is None


def test_compose_embeddings():
    F2, F4, F16 = prime_field(2), finite_field_of_degree(2, 2), \
        finite_field_of_degree(2, 4)
    e1 = embed_find(F2, F4)
    e2 = embed_find(F4, F16)
    comp = compose_embeddings(e1, e2)
    assert comp.source == F2 and comp.target == F16
    assert comp.apply(F2.one()) == F16.one()


def test_min_poly_of_generator():
    F4 = finite_field(2, [1, 1, 1])
    mp = element_min_poly(F4.generator())
    assert list(mp) == [1, 1, 1]


def test_subfield_generated_finite():
    F16 = finite_field_of_degree(2, 4)
    E, emb = subfield_generated(F16, [F16.one()])
    assert E.degree == 1
    E, emb = subfield_generated(F16, [F16.generator()])
    assert E == F16


def test_subfield_generated_char0():
    Qi = number_field([1, 0, 1])
    i = Qi.generator()
    E, emb = subfield_generated(Qi, [i])
    assert E.degree == 2
    assert emb.apply(emb.source.generator()) in (i, -i)


def test_subfield_generated_rejects_elements_of_another_field():
    F4, F16 = finite_field_of_degree(2, 2), finite_field_of_degree(2, 4)
    with pytest.raises(FieldMismatch):
        subfield_generated(F16, [F4.generator()])
    with pytest.raises(FieldMismatch):
        subfield_generated(number_field([1, 0, 1]),
                           [eisenstein_rationals().generator()])


# -- property tests of generated subfields and preimages (fixed examples) ----

F4, F9, F16 = (finite_field_of_degree(p, m) for p, m in ((2, 2), (3, 2), (2, 4)))
F64, F81 = finite_field_of_degree(2, 6), finite_field_of_degree(3, 4)
QI, QZ = number_field([1, 0, 1]), eisenstein_rationals()
SUBFIELD_FIELDS = (F9, F16, F64, F81, QI, QZ)


def _embeddings():
    """The bundled embeddings, maps out of their targets, and the composites."""
    bundled = list(bundled_embeddings().values())
    ups = [embed_find(F4, F16), embed_find(F4, F64), embed_find(F9, F81),
           FieldEmbedding(F16, F16, F16.generator() ** 2),     # Frobenius
           FieldEmbedding(QI, QI, -QI.generator()),            # conjugation
           adjoin_root(QZ, [QZ.from_base(-2), QZ.zero(), QZ.one()])[1]]
    return bundled + ups + [compose_embeddings(b, u) for b in bundled
                            for u in ups if b.target is u.source]


EMBEDDINGS = _embeddings()


def elements_of(F):
    if F.characteristic:
        coord = st.integers(0, F.characteristic - 1)
    else:
        coord = st.fractions(min_value=-20, max_value=20, max_denominator=9)
    return st.lists(coord, min_size=F.degree, max_size=F.degree).map(F.element)


@st.composite
def element_lists(draw):
    F = draw(st.sampled_from(SUBFIELD_FIELDS))
    return F, draw(st.lists(elements_of(F), max_size=4))


@settings(max_examples=60)
@given(element_lists())
def test_subfield_generated_has_the_degree_of_its_generators(case):
    F, gens = case
    E, emb = subfield_generated(F, gens)
    # in a finite field, and in a quadratic one, the generated subfield has
    # the lcm of the generators' degrees as its degree
    assert E.degree == lcm(1, *(element_degree(g) for g in gens))
    assert emb.target is F
    for g in gens:
        a = embedding_preimage(emb, g)
        assert a is not None and emb.apply(a) == g


@settings(max_examples=60)
@given(st.data())
def test_preimage_inverts_apply(data):
    emb = data.draw(st.sampled_from(EMBEDDINGS))
    a = data.draw(elements_of(emb.source))
    assert embedding_preimage(emb, emb.apply(a)) == a


def test_adjoin_root_over_rationals():
    Q = rationals()
    g = [Q.element([1]), Q.element([1]), Q.one()]  # x^2 + x + 1
    E, emb, root = adjoin_root(Q, g)
    assert E.degree == 2
    assert root * root + root + E.one() == E.zero()


def test_adjoin_root_over_number_field():
    Qi = number_field([1, 0, 1])
    g = [Qi.element([-2, 0]), Qi.zero(), Qi.one()]  # x^2 - 2 over QQ(i)
    E, emb, root = adjoin_root(Qi, g)
    assert E.degree == 4
    assert root * root == E.from_base(2)
    i = emb.apply(Qi.generator())
    assert i * i == -E.one()


def test_adjoin_root_over_a_cubic_field():
    # 3 x 3 blocks of multiplication by cbrt2; the pair generating the
    # whole field needs a multiplier c != 0 in the primitive-element search
    E = number_field([-2, 0, 0, 1])
    F, emb, root = adjoin_root(E, [E.one(), E.one(), E.one()])  # x^2 + x + 1
    assert F.degree == 6
    assert root * root + root + F.one() == F.zero()
    cbrt2 = emb.apply(E.generator())
    assert cbrt2 ** 3 == F.from_base(2)
    K, _ = subfield_generated(F, [cbrt2, root])
    assert K.degree == 6


# -- property test of the inverse (fixed examples, no random seed) ----------

INVERSE_FIELDS = (prime_field(2), prime_field(7), finite_field_of_degree(2, 2),
                  finite_field_of_degree(2, 3), finite_field_of_degree(3, 2),
                  finite_field_of_degree(5, 3), rationals(),
                  number_field([1, 0, 1]), number_field([1, 1, 1]),
                  number_field([-2, 0, 0, 1]), number_field([-2, 0, 0, 0, 1]))


@st.composite
def nonzero_elements(draw):
    F = draw(st.sampled_from(INVERSE_FIELDS))
    if F.characteristic:
        coord = st.integers(0, F.characteristic - 1)
    else:
        coord = st.fractions(min_value=-20, max_value=20, max_denominator=9)
    a = F.element([draw(coord) for _ in range(F.degree)])
    if not a:
        a = F.one()
    return a


@settings(max_examples=150)
@given(nonzero_elements())
def test_inverse_is_a_two_sided_inverse(a):
    inv = a.inverse()
    assert a * inv == a.field.one()
    assert inv * a == a.field.one()


# -- one object per field ----------------------------------------------------

def test_equal_fields_are_one_object():
    F4 = finite_field_of_degree(2, 2)
    F9 = finite_field_of_degree(3, 2)
    Qi = number_field([1, 0, 1])
    assert rationals() is rationals()
    assert prime_field(5) is prime_field(5)
    assert finite_field_of_degree(2, 1) is prime_field(2)
    assert finite_field(2, [1, 1, 1]) is F4
    assert finite_field(2, [3, -1, 5]) is F4      # reduced mod 2 first
    assert finite_field(3, [1, 0, 1]) is F9
    assert number_field([Fraction(1), 0, Fraction(2, 2)]) is Qi
    for F in (rationals(), prime_field(3), F4, F9, Qi):
        assert documents.field_in(documents.field_out(F)) is F


def test_copies_and_pickles_are_the_same_object():
    F4 = finite_field_of_degree(2, 2)
    for F in (rationals(), prime_field(2), number_field([1, 0, 1]), F4):
        assert pickle.loads(pickle.dumps(F)) is F
        assert copy.deepcopy(F) is F
    M = Matrix.from_rows(F4, [[F4.generator(), F4.one()], [F4.zero(), F4.one()]])
    assert copy.deepcopy(M) @ M == M @ M


def test_derived_fields_are_the_constructors_objects():
    F2, F4, F16 = prime_field(2), finite_field_of_degree(2, 2), \
        finite_field_of_degree(2, 4)
    g = [F2.one(), F2.one(), F2.one()]             # x^2 + x + 1
    assert adjoin_root(F2, g)[0] is F4
    assert adjoin_root(F4, [F4.generator(), F4.one(), F4.one()])[0] is F16
    Q, Qi = rationals(), number_field([1, 0, 1])
    assert adjoin_root(Q, [Q.one(), Q.zero(), Q.one()])[0] is Qi
    x2 = [Qi.from_base(-2), Qi.zero(), Qi.one()]   # x^2 - 2 over QQ(i)
    assert adjoin_root(Qi, x2)[0] is adjoin_root(Qi, x2)[0]
    t = embed_find(F4, F16).generator_image
    assert subfield_generated(F16, [t])[0] is F4
    assert subfield_generated(F16, [F16.one()])[0] is F2
    assert subfield_generated(Qi, [Qi.generator()])[0] is Qi
    assert subfield_generated(Qi, [Qi.one()])[0] is Q


def test_each_modulus_is_checked_once(monkeypatch):
    calls = []
    original = polys.is_irreducible

    def counted(coeffs, field):
        calls.append(coeffs)
        return original(coeffs, field)

    monkeypatch.setattr(polys, "is_irreducible", counted)
    E = number_field([-13, 0, 0, 1])               # x^3 - 13, seen nowhere else
    assert len(calls) == 1
    for make in (lambda: finite_field_of_degree(2, 8),
                 lambda: number_field([1, 0, 1]),
                 lambda: number_field([-13, 0, 0, 1])):
        F = make()
        calls.clear()
        assert make() is F
        assert calls == []
    assert number_field([-13, 0, 0, 1]) is E
    # a rejection is not cached as an exception: it raises on every call,
    # and a reducible modulus is not factored again either
    for i in range(2):
        calls.clear()
        with pytest.raises(BadParams):
            prime_field(4)
        with pytest.raises(BadParams):
            finite_field(2, [1, 0, 1])             # (x + 1)^2
        with pytest.raises(BadParams):
            number_field([-1, 0, 1])               # (x - 1)(x + 1)
        with pytest.raises(BadParams):
            finite_field_of_degree(4, 2)
        if i:
            assert calls == []
