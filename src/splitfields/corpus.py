"""Bundled example algebras and seeded random modules.

Everything here is deterministic: the corpus is a fixed list keyed by name,
and the random-module generator is a pure function of its seed.
"""

from __future__ import annotations

import random

from .algebras import (
    cyclic_group_algebra,
    diagonal_algebra,
    field_algebra,
    matrix_algebra,
    quaternion_algebra,
    upper_triangular_algebra,
)
from .fields import (
    FieldEmbedding,
    finite_field_of_degree,
    number_field,
    prime_field,
    rationals,
)
from .linalg import Matrix
from .modules import conjugate, direct_sum, sub_quotient, spin


def gaussian_rationals():
    """QQ(i), the degree-2 number field with i^2 = -1."""
    return number_field([1, 0, 1])


def eisenstein_rationals():
    """QQ(z) with z a primitive cube root of unity, z^2 + z + 1 = 0."""
    return number_field([1, 1, 1])


def base_fields():
    return {
        "QQ": rationals(),
        "F2": prime_field(2),
        "F3": prime_field(3),
        "QQ(i)": gaussian_rationals(),
    }


def bundled_algebras():
    """Name -> algebra, in a fixed order."""
    Q = rationals()
    F2 = prime_field(2)
    F3 = prime_field(3)
    Qi = gaussian_rationals()
    out = {}
    for n in (1, 2, 3):
        for fname, F in (("QQ", Q), ("F2", F2), ("F3", F3), ("QQ(i)", Qi)):
            out[f"mat{n}_{fname}"] = matrix_algebra(n, F)
    for n in (2, 3, 4):
        for fname, F in (("QQ", Q), ("F2", F2), ("F3", F3)):
            out[f"cyclic{n}_{fname}"] = cyclic_group_algebra(n, F)
    out["upper2_QQ"] = upper_triangular_algebra(2, Q)
    out["upper2_F2"] = upper_triangular_algebra(2, F2)
    out["upper2_F3"] = upper_triangular_algebra(2, F3)
    out["quat_QQ"] = quaternion_algebra(-1, -1, Q)
    out["gf4_over_F2"] = field_algebra(finite_field_of_degree(2, 2))
    out["product2_QQ"] = diagonal_algebra(2, Q)
    return out


def bundled_embeddings():
    """Name -> embedding used by the extension-identity checks."""
    from .fields import embed_find

    Q = rationals()
    Qi = gaussian_rationals()
    Qz = eisenstein_rationals()
    return {
        "QQ->QQ(i)": FieldEmbedding(Q, Qi, Qi.one()),
        "QQ->QQ(z)": FieldEmbedding(Q, Qz, Qz.one()),
        "F2->F4": embed_find(prime_field(2), finite_field_of_degree(2, 2)),
        "F2->F16": embed_find(prime_field(2), finite_field_of_degree(2, 4)),
        "F3->F9": embed_find(prime_field(3), finite_field_of_degree(3, 2)),
    }


def embeddings_for(field):
    """The bundled extensions whose source is the given field."""
    return [emb for emb in bundled_embeddings().values() if emb.source == field]


# ---------------------------------------------------------------------------
# seeded random modules
# ---------------------------------------------------------------------------

_SOURCE_ALGEBRAS = ("cyclic2", "cyclic3", "cyclic4", "upper2", "mat2")


def _source_algebra(name, F):
    if name.startswith("cyclic"):
        return cyclic_group_algebra(int(name[-1]), F)
    if name == "upper2":
        return upper_triangular_algebra(2, F)
    return matrix_algebra(2, F)


def _random_invertible(field, dim, rng):
    n = field.order
    while True:
        rows = [[field.from_base(rng.randrange(n)) for _ in range(dim)]
                for _ in range(dim)]
        P = Matrix.from_rows(field, rows)
        if P.is_invertible():
            return P


def _random_submodule(M, rng):
    """A proper nonzero invariant subspace found by spinning, or None."""
    field = M.algebra.field
    n = field.order
    for _ in range(8):
        v = tuple(field.from_base(rng.randrange(n)) for _ in range(M.dim))
        if not any(bool(c) for c in v):
            continue
        basis = spin(M, [v])
        if 0 < len(basis) < M.dim:
            return basis
    return None


def random_modules(p, count, seed):
    """``count`` seeded modules over F_p with dimension <= 6.

    Built by twisting regular modules: conjugation, passing to a spun
    sub or quotient, and direct sums of small pieces.
    """
    rng = random.Random(f"modules:{p}:{seed}")
    F = prime_field(p)
    out = []
    while len(out) < count:
        A = _source_algebra(rng.choice(_SOURCE_ALGEBRAS), F)
        M = A.regular_module()
        move = rng.randrange(4)
        if move == 1:
            basis = _random_submodule(M, rng)
            if basis is not None:
                sq = sub_quotient(M, basis)
                M = sq.sub if rng.randrange(2) else sq.quot
        elif move == 2 and 2 * M.dim <= 6:
            M = direct_sum(M, M)
        elif move == 3:
            basis = _random_submodule(M, rng)
            if basis is not None:
                piece = sub_quotient(M, basis).sub
                if piece.dim + M.dim <= 6:
                    M = direct_sum(piece, M)
        M = conjugate(M, _random_invertible(F, M.dim, rng))
        out.append(M)
    return out
