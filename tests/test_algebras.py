"""Constructions, quotients and the axiom check on structure constants.

``golden_validate.json`` freezes the report of ``algebra_validate`` on every
bundled algebra with one structure constant corrupted (one added) at a few
fixed positions.  It is written from the current code by

    PYTHONPATH=src python tests/test_algebras.py
"""

import json
from pathlib import Path

import pytest

from splitfields.algebras import (
    Algebra,
    algebra_validate,
    cyclic_group_algebra,
    diagonal_algebra,
    field_algebra,
    group_algebra,
    is_two_sided_ideal,
    matrix_algebra,
    quaternion_algebra,
    quotient_algebra,
    upper_triangular_algebra,
)
from splitfields.basechange import extend_algebra
from splitfields.corpus import bundled_algebras
from splitfields.errors import (
    BadParams,
    NotAGroup,
    NotAnIdeal,
)
from splitfields.fields import (
    FieldEmbedding,
    embed_find,
    finite_field_of_degree,
    number_field,
    prime_field,
    rationals,
)

Q = rationals()
F2 = prime_field(2)
GOLDEN_VALIDATE = Path(__file__).resolve().parent / "golden_validate.json"


@pytest.mark.parametrize("make", [
    lambda: matrix_algebra(2, Q),
    lambda: matrix_algebra(3, F2),
    lambda: cyclic_group_algebra(4, Q),
    lambda: upper_triangular_algebra(3, Q),
    lambda: quaternion_algebra(-1, -1, Q),
    lambda: diagonal_algebra(3, Q),
    lambda: field_algebra(finite_field_of_degree(2, 2)),
])
def test_constructions_satisfy_axioms(make):
    assert algebra_validate(make()) is None


def test_matrix_units_multiply():
    A = matrix_algebra(2, Q)
    # e01 * e10 = e00, e01 * e01 = 0  (row-major basis order)
    e01 = A.basis_vector(1)
    e10 = A.basis_vector(2)
    assert A.mul_coords(e01, e10) == A.basis_vector(0)
    assert all(not bool(c) for c in A.mul_coords(e01, e01))


def test_regular_module_is_left_multiplication():
    for A in bundled_algebras().values():
        for i, L in enumerate(A.regular_module().actions):
            ei = A.basis_vector(i)
            for j in range(A.dim):
                assert L.col(j) == A.mul_coords(ei, A.basis_vector(j))


def test_group_algebra_rejects_non_group():
    # row 1 repeats an element: not a Latin square
    with pytest.raises(NotAGroup):
        group_algebra([[0, 1], [1, 1]], Q)


def test_quaternion_relations():
    H = quaternion_algebra(-1, -1, Q)
    one, i, j, k = (H.basis_vector(n) for n in range(4))
    assert H.mul_coords(i, i) == tuple(-c for c in one)
    assert H.mul_coords(i, j) == k
    assert H.mul_coords(j, i) == tuple(-c for c in k)


def test_quaternions_need_odd_characteristic():
    with pytest.raises(BadParams):
        quaternion_algebra(-1, -1, F2)


def test_quotient_by_radical_of_upper_triangular():
    A = upper_triangular_algebra(2, Q)
    from splitfields.structure import radical
    rad = radical(A)
    assert is_two_sided_ideal(A, rad)
    B, proj = quotient_algebra(A, rad)
    assert B.dim == 2
    assert algebra_validate(B) is None


def test_quotient_rejects_non_ideal():
    A = matrix_algebra(2, Q)
    with pytest.raises(NotAnIdeal):
        quotient_algebra(A, [A.basis_vector(0)])


def test_opposite_is_valid():
    A = upper_triangular_algebra(2, Q)
    assert algebra_validate(A.opposite()) is None


def corrupted_positions(d):
    """Fixed (i, j, l): the unit's row, off-diagonal products and the corner."""
    return sorted({(0, 0, 0), (1 % d, 2 % d, 0), ((d - 2) % d, 1 % d, d - 1),
                   (d - 1, d - 1, 0), (d // 2, d - 1, d // 2)})


def corrupted(A, i, j, l):
    """A with one added to the structure constant c[i][j][l]."""
    constants = [[list(v) for v in row] for row in A.constants]
    constants[i][j][l] = constants[i][j][l] + A.field.one()
    return Algebra(A.field, A.dim, A.basis_labels, constants, A.unit)


def validate_reports():
    return [{"algebra": name, "position": [i, j, l],
             "report": algebra_validate(corrupted(A, i, j, l))}
            for name, A in bundled_algebras().items()
            for i, j, l in corrupted_positions(A.dim)]


def test_validate_reports_are_unchanged():
    golden = json.loads(GOLDEN_VALIDATE.read_text(encoding="utf-8"))
    assert validate_reports() == golden


def test_validate_reports_survive_extension():
    """An embedding is an injective ring map, so A^F fails the axioms exactly
    where A does; extend_algebra maps the constants without checking them."""
    Qi = number_field([1, 0, 1])
    along = {F2: embed_find(F2, finite_field_of_degree(2, 2)),
             Q: FieldEmbedding(Q, Qi, Qi.one())}
    checked = 0
    for A in bundled_algebras().values():
        emb = along.get(A.field)
        if emb is None:
            continue
        for i, j, l in corrupted_positions(A.dim):
            B = corrupted(A, i, j, l)
            image = Algebra(emb.target, B.dim, B.basis_labels,
                            [[[emb.apply(e) for e in v] for v in row]
                             for row in B.constants],
                            [emb.apply(e) for e in B.unit])
            report = algebra_validate(B)
            assert algebra_validate(image) == report
            assert extend_algebra(B, emb).extended == image
            checked += 1
    assert checked > 40


if __name__ == "__main__":
    GOLDEN_VALIDATE.write_text(json.dumps(validate_reports(), indent=1) + "\n",
                               encoding="utf-8")
