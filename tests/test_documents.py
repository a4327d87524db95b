import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from splitfields import documents as docs
from splitfields.algebras import cyclic_group_algebra, matrix_algebra
from splitfields.basechange import extend_algebra
from splitfields.corpus import bundled_algebras, gaussian_rationals
from splitfields.errors import InputError
from splitfields.fields import (
    embed_find,
    finite_field_of_degree,
    prime_field,
    rationals,
)
from splitfields.linalg import Matrix
from splitfields.modules import spin, sub_quotient
from test_structure import _change_basis  # A on a new basis


def test_field_round_trip():
    for F in (rationals(), prime_field(3), gaussian_rationals(),
              finite_field_of_degree(2, 4)):
        text = docs.dumps(docs.field_out(F))
        kind, back = docs.parse_any(text)
        assert kind == "field" and back == F
        assert docs.dumps(docs.field_out(back)) == text


def test_algebra_round_trip():
    for A in (matrix_algebra(2, rationals()),
              cyclic_group_algebra(3, prime_field(2)),
              matrix_algebra(2, gaussian_rationals())):
        text = docs.dumps(docs.algebra_out(A))
        kind, back = docs.parse_any(text)
        assert kind == "algebra" and back == A
        assert docs.dumps(docs.algebra_out(back)) == text


def test_module_round_trip():
    M = cyclic_group_algebra(3, prime_field(2)).regular_module()
    text = docs.dumps(docs.module_out(M))
    kind, back = docs.parse_any(text)
    assert kind == "module" and back == M
    assert docs.dumps(docs.module_out(back)) == text


def test_rational_scalars_are_exact_strings():
    from fractions import Fraction

    Q = rationals()
    a = Q.element([Fraction(3, 4)])
    assert docs.element_out(a) == "3/4"
    assert docs.element_in("3/4", Q, "t") == a


def test_unknown_keys_rejected():
    doc = docs.field_out(rationals())
    doc["payload"]["extra"] = 1
    with pytest.raises(InputError):
        docs.field_in(docs.loads(docs.dumps(doc)))


def test_bad_format_version_rejected():
    doc = docs.field_out(rationals())
    doc["format_version"] = "2"
    with pytest.raises(InputError):
        docs.loads(docs.dumps(doc))


def test_corrupted_constants_rejected():
    A = matrix_algebra(2, prime_field(3))
    doc = docs.algebra_out(A)
    doc["payload"]["constants"][0] = 99  # outside [0, 3)
    with pytest.raises(InputError):
        docs.algebra_in(doc)


def test_non_associative_constants_rejected():
    A = cyclic_group_algebra(2, prime_field(3))
    doc = docs.algebra_out(A)
    doc["payload"]["constants"][0] = 2  # breaks the unit law
    with pytest.raises(InputError):
        docs.algebra_in(doc)


def test_bundled_documents_validate():
    import importlib.resources as res

    names = set()
    for entry in res.files("splitfields").joinpath("data").iterdir():
        if entry.name.endswith(".json"):
            kind, obj = docs.parse_any(entry.read_text())
            assert kind in ("field", "algebra")
            names.add(entry.name[:-5])
    for name in bundled_algebras():
        assert name in names


# -- round trips of seeded documents (fixed examples, no random seed) --------

ROUND_TRIP_FIELDS = (rationals(), gaussian_rationals(), prime_field(2),
                     prime_field(3), finite_field_of_degree(2, 2),
                     finite_field_of_degree(3, 2))


def _small_algebras(F):
    """The bundled algebras of dimension <= 4 over F, and those over the
    prime base of F extended to F."""
    base = prime_field(F.characteristic) if F.characteristic else rationals()
    out = []
    for A in bundled_algebras().values():
        if A.dim > 4:
            continue
        if A.field is F:
            out.append(A)
        elif A.field is base:
            out.append(extend_algebra(A, embed_find(base, F)).extended)
    return out


def _element(F, rng):
    p = F.characteristic
    return F.element([rng.randrange(p) if p else rng.randint(-2, 2)
                      for _ in range(F.degree)])


@st.composite
def seeded_objects(draw):
    """A small algebra over one of six fields on a seeded dense basis, its
    regular module, or a spun sub or quotient of that module."""
    F = draw(st.sampled_from(ROUND_TRIP_FIELDS))
    A = draw(st.sampled_from(_small_algebras(F)))
    rng = random.Random(draw(st.integers(0, 2**16)))
    while True:
        P = Matrix(F, A.dim, A.dim, [[_element(F, rng) for _ in range(A.dim)]
                                     for _ in range(A.dim)])
        if P.is_invertible():
            break
    B = _change_basis(A, P)
    part = draw(st.sampled_from(("algebra", "regular", "sub", "quot")))
    if part == "algebra":
        return B
    M = B.regular_module()
    basis = spin(M, [[_element(F, rng) for _ in range(M.dim)]])
    if part == "regular" or not 0 < len(basis) < M.dim:
        return M
    parts = sub_quotient(M, basis)
    return parts.sub if part == "sub" else parts.quot


@settings(max_examples=60)
@given(seeded_objects())
def test_documents_round_trip_byte_for_byte(obj):
    out = docs.algebra_out if hasattr(obj, "constants") else docs.module_out
    text = docs.dumps(out(obj))
    _, back = docs.parse_any(text)
    assert back == obj
    assert docs.dumps(out(back)) == text
    field = getattr(obj, "algebra", obj).field
    assert getattr(back, "algebra", back).field is field
